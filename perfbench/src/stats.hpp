#pragma once

// Sample statistics for the benchmark: nearest-rank percentiles and the
// choosing-metrics tail rule ("report the highest percentile that has at
// least ten samples beyond it").

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile needs beyond it before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Fewest samples for which percentile `pct` (0 < pct < 100, resolved to a
/// tenth) has at least kTailSamples samples above it:
/// n * (1 - pct/100) >= kTailSamples, in integer per-mille to avoid
/// rounding at p99.9.
inline std::size_t min_samples_for(double pct) {
  const auto beyond = static_cast<std::size_t>(1000 - std::llround(pct * 10.0));
  return (kTailSamples * 1000 + beyond - 1) / beyond;
}

/// True when `n` samples support reporting percentile `pct`.
inline bool percentile_supported(std::size_t n, double pct) {
  return pct <= 50.0 ? n > 0 : n >= min_samples_for(pct);
}

/// The highest of the customary report percentiles (p99.9, p99, p90, p50)
/// that `n` samples support; 0 when n == 0.
inline double highest_supported_percentile(std::size_t n) {
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    if (percentile_supported(n, pct)) {
      return pct;
    }
  }
  return 0.0;
}

/// Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

}  // namespace perfbench
