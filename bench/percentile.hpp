#pragma once

// Nearest-rank percentile shared by the serving benches (bench_server,
// bench_throughput, bench_vault). Header-only and dependency-free, so a bench
// that does not link wavekey_core can use it; bench/common.hpp pulls in the
// trained-model stack. Unlike wavekey::percentile (numeric/stats.hpp), which
// interpolates with p in [0, 100], this picks a recorded sample.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace wavekey::bench {

/// Sample at rank floor(q * n) of the sorted values (clamped to the last), for
/// q in [0, 1]; 0 when there are no samples. Takes the samples by value and
/// sorts the copy.
template <typename T>
double nearest_rank(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  if (idx >= values.size()) idx = values.size() - 1;
  return static_cast<double>(values[idx]);
}

}  // namespace wavekey::bench
