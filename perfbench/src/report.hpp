#pragma once

// Turns a workload's raw samples into the named metrics of BENCHMARK.json,
// the correctness verdict and the traced per-layer table.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "phases.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (1 = one reading)
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, LayerRow> layers;  ///< traced runs only
  std::map<Phase, double> phase_s;         ///< host time per phase
  std::string iterations;                  ///< iterations run per phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Build the report. `nproc` is the host's core count for the thread
/// budget check.
Report build_report(const Plan& plan, Results& res, long nproc);

/// Human-readable tables (every metric with unit and sample count).
void print_report(std::ostream& os, const Plan& plan, const Report& rep);

/// The last output line: {"correct", "attempted", "failed", "metrics"} with
/// the end-to-end metrics (untraced) or the per-layer ones (traced).
void print_result_json(std::ostream& os, const Report& rep, bool traced);

/// Write every recorded span (rank, op, layer, name, start, end, self) as
/// tab-separated lines; returns the number written, or -1 on error.
long write_spans(const std::string& path, const Results& res);

}  // namespace perfbench
