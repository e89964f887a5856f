#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {
namespace {

const Clock::time_point process_start = Clock::now();

/// Nanoseconds for 40 000 multiplies in 8 independent chains: bound by
/// multiplier throughput, which a busy sibling hyperthread shares.
std::int64_t probe_ns() {
  std::uint64_t m[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::int64_t t0 = now_ns();
  for (int k = 0; k < 5000; ++k)
    for (std::uint64_t& x : m) {
      x = x * 0x9E3779B97F4A7C15ull + (x >> 17);
      asm volatile("" : "+r"(x));  // keeps the chains scalar (no vectorising)
    }
  const std::int64_t t1 = now_ns();
  std::uint64_t a = 0;
  for (const std::uint64_t x : m) a += x;
  asm volatile("" : : "r"(a));
  return t1 - t0;
}

/// Best of three probes.
std::int64_t probe3_ns() { return std::min({probe_ns(), probe_ns(), probe_ns()}); }

}  // namespace

bool QuietCpu::pin(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

void QuietCpu::check() {
  if (cpu_ >= 0) {
    const std::int64_t ns = probe_ns();
    best_ns_ = std::min(best_ns_, ns);
    if (static_cast<double>(ns) <= kSlack * static_cast<double>(best_ns_)) return;
  }
  static const cpu_set_t allowed = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) CPU_ZERO(&s);
    return s;
  }();
  int best_cpu = -1;
  std::int64_t best_now = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || !pin(cpu)) continue;
    const std::int64_t ns = probe3_ns();
    if (best_cpu < 0 || ns < best_now) {
      best_cpu = cpu;
      best_now = ns;
    }
  }
  if (best_cpu < 0 || !pin(best_cpu)) return;  // affinity unavailable: run unpinned
  best_ns_ = cpu_ < 0 ? best_now : std::min(best_ns_, best_now);
  if (cpu_ >= 0 && best_cpu != cpu_) ++moves_;
  cpu_ = best_cpu;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - process_start)
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void spin_until(std::int64_t t) {
  while (now_ns() < t) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

void RunResult::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back(Metric{name, value, unit});
}

void RunResult::error(const std::string& what) {
  if (errors.size() < 20) errors.push_back(what);
  else if (errors.size() == 20) errors.push_back("... further errors suppressed");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
