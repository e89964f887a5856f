#include "latency.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

void LatencyRecord::sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyRecord::percentile(double pct) const {
  if (samples_.empty()) throw std::logic_error("percentile of an empty LatencyRecord");
  sort();
  const double n = static_cast<double>(samples_.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples_.size());
  return samples_[rank - 1];
}

std::size_t LatencyRecord::beyond(double pct) const {
  const double v = percentile(pct);
  return static_cast<std::size_t>(samples_.end() -
                                  std::upper_bound(samples_.begin(), samples_.end(), v));
}

LatencySummary LatencyRecord::summary() const {
  LatencySummary s;
  s.count = samples_.size();
  if (samples_.empty()) return s;
  s.p50 = percentile(50.0);
  for (const double pct : kTailPercentiles) {
    if (beyond(pct) >= kMinTail) {
      s.tail_percentile = pct;
      s.tail = percentile(pct);
      break;
    }
  }
  return s;
}

std::string LatencySummary::describe(const char* unit) const {
  char buf[160];
  if (tail_percentile > 0.0)
    std::snprintf(buf, sizeof buf, "n=%zu p50=%.4g%s p%g=%.4g%s", count, p50, unit,
                  tail_percentile, tail, unit);
  else
    std::snprintf(buf, sizeof buf, "n=%zu p50=%.4g%s tail=n/a(<%zu beyond)", count, p50, unit,
                  LatencyRecord::kMinTail);
  return buf;
}

}  // namespace perfbench
