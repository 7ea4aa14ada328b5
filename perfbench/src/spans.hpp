#pragma once

// In-memory spans recorded around each layer call the benchmark makes, and
// the per-layer table built from them (count, busy, self and wait time).
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (the union of the children, clipped to the parent,
// so overlapping children are not counted twice). Parents are found by
// interval containment on one rank's timeline, which also places the
// program's own obs spans (pmix.*, cid.*, pml.*, ...) under the benchmark
// span that caused them.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< immortal string (literal or obs event name)
  const char* layer = "";  ///< repo module: sim, core, pmix, coll, ...
  std::uint32_t op = 0;    ///< operation id shared by every span of one op
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Modeled delay the span asked for (sim.delay spans); the excess of the
  /// duration over it is scheduler wait. -1 when not a delay.
  std::int64_t requested_ns = -1;
  /// The call exists to block on other ranks (barriers, request waits):
  /// its self time is reported as wait.
  bool wait = false;

  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Parent index (-1 for roots) and self time of every span of one rank.
struct Nesting {
  std::vector<int> parent;
  std::vector<std::int64_t> self_ns;
};

/// Nest the spans of one timeline by containment and compute self times.
Nesting nest(const std::vector<Span>& spans);

/// Give every span with op == 0 the op id of its nearest ancestor that has
/// one (program spans inherit the benchmark operation that caused them).
void inherit_ops(std::vector<Span>& spans, const Nesting& n);

struct LayerRow {
  std::uint64_t count = 0;
  std::int64_t busy_ns = 0;  ///< summed span durations
  std::int64_t self_ns = 0;  ///< summed self times
  std::int64_t wait_ns = 0;  ///< self time of wait spans + delay overshoot
};

/// Accumulate one nested timeline into the per-layer table.
void accumulate_layers(const std::vector<Span>& spans, const Nesting& n,
                       std::map<std::string, LayerRow>& table);

/// Layer of a program obs span, from its name prefix ("pmix.fence" ->
/// "pmix"; the core's session/comm/cid/pml probes -> "core").
const char* layer_of_obs_span(const char* name);

void print_layer_table(std::ostream& os,
                       const std::map<std::string, LayerRow>& table);

}  // namespace perfbench
