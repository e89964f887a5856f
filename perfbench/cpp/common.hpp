#pragma once

// Shared plumbing of the repo benchmark: the clock every timestamp is read
// from, the command-line options, and the result record a workload fills.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

/// Nanoseconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID). A guest
/// kernel with paravirtual steal accounting does not count the time the
/// hypervisor gave the vCPU to another tenant.
std::int64_t thread_cpu_ns();

/// Nanoseconds all threads of this process have run (CLOCK_PROCESS_CPUTIME_ID).
std::int64_t process_cpu_ns();

/// Busy-waits until now_ns() >= t (the open-loop generator's pacing).
void spin_until(std::int64_t t);

/// Keeps a single-threaded loop on a quiet CPU. On a shared host a vCPU
/// whose physical core's other hyperthread is busy can run throughput-bound
/// code ~1.9x slower, and which vCPUs are affected changes every few hundred
/// milliseconds. check() times a fixed multiply-heavy probe on the
/// current CPU; when it runs more than kSlack slower than the fastest probe
/// seen so far, the thread is moved to the CPU (of those the process may
/// use) where the probe runs fastest now.
class QuietCpu {
 public:
  static constexpr double kSlack = 1.2;

  void check();
  std::uint64_t moves() const { return moves_; }

 private:
  bool pin(int cpu);
  std::int64_t best_ns_ = 0;  ///< fastest probe seen on any CPU
  int cpu_ = -1;              ///< where the thread is pinned; -1 before the first check
  std::uint64_t moves_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where trace and result files are written
};

/// One reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced. `errors` lists every output-check mismatch;
/// a run with any error is not correct.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;      ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;   ///< human-readable lines printed before the JSON

  void set(const std::string& name, double value, const std::string& unit);
  void error(const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  bool correct() const { return errors.empty(); }
};

/// Shortest round-trip decimal form of a double (JSON-safe; non-finite -> null).
std::string json_number(double v);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Median of a small sample (the set-up repetitions).
double median_of(std::vector<double> v);

int run_pair(const Options& options, RunResult& result);
int run_grants(const Options& options, bool churn, RunResult& result);

}  // namespace perfbench
