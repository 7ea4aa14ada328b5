// Checks of the benchmark's own logic: the tail-percentile rule, the
// self-time computation on synthetic nested and overlapping spans, and the
// split of a phase's iterations over segments. Exits nonzero if any check
// failed.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "phases.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) {
    ++g_failures;
  }
}

perfbench::Span span(const char* layer, std::int64_t start, std::int64_t end,
                     std::uint32_t op = 0) {
  perfbench::Span s;
  s.name = layer;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.op = op;
  return s;
}

void percentile_rule() {
  using perfbench::highest_supported_percentile;
  using perfbench::percentile_supported;
  check(perfbench::min_samples_for(90.0) == 100, "p90 needs 100 samples");
  check(perfbench::min_samples_for(99.0) == 1000, "p99 needs 1000 samples");
  check(!percentile_supported(99, 90.0), "99 samples do not support p90");
  check(percentile_supported(100, 90.0), "100 samples support p90");
  check(highest_supported_percentile(0) == 0.0, "no samples, no percentile");
  check(highest_supported_percentile(9) == 50.0, "9 samples: median only");
  check(highest_supported_percentile(100) == 90.0, "100 samples: p90");
  check(highest_supported_percentile(999) == 90.0, "999 samples: p90");
  check(highest_supported_percentile(1000) == 99.0, "1000 samples: p99");
  check(highest_supported_percentile(10000) == 99.9, "10000 samples: p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(101 - i);  // unsorted input
  }
  check(perfbench::percentile(v, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  check(perfbench::percentile(v, 90.0) == 90.0, "nearest-rank p90 of 1..100");
  check(perfbench::percentile(v, 100.0) == 100.0, "p100 is the maximum");
  check(perfbench::median({3.0}) == 3.0, "median of one sample");
}

void self_time_nested() {
  // root [0,100) > mid [10,60) > leaf [20,30); sibling [70,90) under root.
  std::vector<perfbench::Span> s = {span("app", 0, 100, 7),
                                    span("core", 10, 60),
                                    span("pmix", 20, 30),
                                    span("fabric", 70, 90)};
  const auto n = perfbench::nest(s);
  check(n.parent[0] == -1 && n.parent[1] == 0 && n.parent[2] == 1 &&
            n.parent[3] == 0,
        "nested parents by containment");
  check(n.self_ns[0] == 100 - 50 - 20, "root self = 100 - mid - sibling");
  check(n.self_ns[1] == 40, "mid self = 50 - leaf");
  check(n.self_ns[2] == 10 && n.self_ns[3] == 20, "leaves keep full duration");
  perfbench::inherit_ops(s, n);
  check(s[2].op == 7 && s[3].op == 7, "children inherit the root op id");
}

void self_time_overlapping() {
  // Two children overlapping each other: [10,40) and [30,60) cover [10,60),
  // not 60 ns. A third child starts inside the parent and runs past its
  // end: only the part inside the parent counts.
  std::vector<perfbench::Span> s = {span("core", 0, 100), span("pml", 10, 40),
                                    span("pml", 30, 60),
                                    span("fabric", 90, 130)};
  const auto n = perfbench::nest(s);
  check(n.parent[1] == 0 && n.parent[2] == 0 && n.parent[3] == 0,
        "overlapping children nest under the span containing them");
  check(n.self_ns[0] == 100 - 50 - 10, "union of children, clipped to parent");

  // Identical intervals: the first recorded is the parent.
  std::vector<perfbench::Span> same = {span("a", 5, 9), span("b", 5, 9)};
  const auto m = perfbench::nest(same);
  check(m.parent[1] == 0 && m.self_ns[0] == 0 && m.self_ns[1] == 4,
        "identical intervals nest in record order");

  // Back-to-back spans touching at one instant are siblings.
  std::vector<perfbench::Span> seq = {span("a", 0, 10), span("b", 10, 20)};
  const auto q = perfbench::nest(seq);
  check(q.parent[1] == -1, "touching spans are siblings");
}

void layer_table() {
  std::vector<perfbench::Span> s = {span("app", 0, 100), span("sim", 0, 30),
                                    span("core", 40, 90)};
  s[1].requested_ns = 25;  // 5 ns of scheduler overshoot
  s[2].wait = true;
  const auto n = perfbench::nest(s);
  std::map<std::string, perfbench::LayerRow> table;
  perfbench::accumulate_layers(s, n, table);
  check(table["app"].self_ns == 20 && table["app"].busy_ns == 100,
        "app busy/self");
  check(table["sim"].wait_ns == 5, "delay overshoot counts as wait");
  check(table["core"].wait_ns == 50, "wait span self time counts as wait");
  check(std::string(perfbench::layer_of_obs_span("pmix.pgcid_acquire")) ==
                "pmix" &&
            std::string(perfbench::layer_of_obs_span("cid.excid_alloc")) ==
                "core",
        "obs span names map to layers");
}

}  // namespace

/// Segments cover every iteration once, in order, with sizes one apart.
void segment_split() {
  for (const int total : {1, 15, 16, 48, 100, 241}) {
    int next = 0, smallest = total, largest = 0;
    for (int part = 0; part < perfbench::kSegments; ++part) {
      const auto [first, count] = perfbench::split_share(total, perfbench::kSegments, part);
      check(first == next, "segment " + std::to_string(part) + " of " +
                               std::to_string(total) + " starts where the last ended");
      next = first + count;
      smallest = std::min(smallest, count);
      largest = std::max(largest, count);
    }
    check(next == total, std::to_string(total) + " iterations covered exactly");
    check(largest - smallest <= 1, std::to_string(total) + " split evenly");
  }
}

int main() {
  percentile_rule();
  segment_split();
  self_time_nested();
  self_time_overlapping();
  layer_table();
  std::cout << (g_failures == 0 ? "selftest PASS" : "selftest FAIL") << "\n";
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
