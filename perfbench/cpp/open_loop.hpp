#pragma once

// Open-loop load generator: request i is due at t0 + i / rate whether or not
// earlier requests have finished, as independent door taps would be. Each
// request's latency is timed from its due time, so a stall anywhere (in the
// generator, in a blocking submit, in the server) is charged to every
// request that came due during it. How late the generator itself ran is
// recorded per request. A transient stall of the generator is latency like
// any other; a generator that fell behind (most requests sent late) offers
// less than the stated rate, so its measurement is invalid, not reported.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "latency.hpp"

namespace perfbench {

struct Schedule {
  std::int64_t t0_ns = 0;
  double rate = 1.0;  ///< requests per second
  std::int64_t due(std::size_t i) const {
    return t0_ns + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  }
};

/// Calls submit(i, due_ns, start_ns) for i in [first, last) at the due
/// times; late_ns[i] receives start_ns - due_ns. A generator that is behind
/// does not wait: overdue requests go out back to back.
template <typename Submit>
void run_open_loop(const Schedule& schedule, std::size_t first, std::size_t last,
                   std::vector<std::int64_t>& late_ns, Submit&& submit) {
  for (std::size_t i = first; i < last; ++i) {
    const std::int64_t due = schedule.due(i);
    spin_until(due);
    const std::int64_t start = now_ns();
    late_ns[i] = start - due;
    submit(i, due, start);
  }
}

/// Generator validity rule: the median request went out within the limit.
inline bool generator_kept_up(const LatencyRecord& late_us, double limit_us) {
  return !late_us.empty() && late_us.percentile(50.0) <= limit_us;
}

}  // namespace perfbench
