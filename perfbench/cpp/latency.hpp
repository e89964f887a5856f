#pragma once

// The one latency-record helper every workload reports through. Reporting
// rule: a timing is its median, plus the highest percentile that still has
// at least ten samples strictly beyond it, plus the sample count.
//
// Percentiles use the nearest-rank definition on the sorted samples
// (value at rank ceil(q * n)). "Beyond" counts samples strictly greater than
// that value, so ties at the percentile never count as tail samples.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  /// Highest of kTailPercentiles with >= kMinTail samples beyond it; 0 when
  /// no percentile qualifies (then `tail` is meaningless).
  double tail_percentile = 0.0;
  double tail = 0.0;

  /// e.g. "n=2048 p50=12.5 p99.9=80.1" (or "p99.9=n/a" without a tail).
  std::string describe(const char* unit) const;
};

class LatencyRecord {
 public:
  static constexpr std::size_t kMinTail = 10;
  static constexpr double kTailPercentiles[] = {99.99, 99.9, 99.0, 90.0};

  void reserve(std::size_t n) { samples_.reserve(n); }
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  void merge(const LatencyRecord& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
  }
  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }

  /// Nearest-rank percentile, pct in (0, 100]. Requires count() > 0.
  double percentile(double pct) const;
  /// Samples strictly greater than percentile(pct).
  std::size_t beyond(double pct) const;
  /// True iff percentile(pct) has at least kMinTail samples beyond it.
  bool has_tail(double pct) const { return !empty() && beyond(pct) >= kMinTail; }

  LatencySummary summary() const;

 private:
  void sort() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace perfbench
