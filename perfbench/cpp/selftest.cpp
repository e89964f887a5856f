// The benchmark's own tests: the latency-record reporting rule, the open-loop
// generator's stall accounting, span self-time attribution, and the quiet-CPU
// pinning.
// Exit code 0 iff every check passed.

#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "latency.hpp"
#include "open_loop.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void latency_record_edges() {
  LatencyRecord empty;
  check(empty.summary().count == 0 && empty.summary().tail_percentile == 0.0,
        "empty record: count 0, no tail");

  LatencyRecord few;
  for (int v = 1; v <= 9; ++v) few.add(v);
  const LatencySummary s9 = few.summary();
  check(s9.count == 9 && s9.p50 == 5.0, "9 samples: nearest-rank median is the 5th");
  check(s9.tail_percentile == 0.0, "9 samples: no percentile has 10 samples beyond it");
  check(!few.has_tail(50.0), "9 samples: even p50 lacks 10 samples beyond");

  LatencyRecord hundred;
  for (int v = 100; v >= 1; --v) hundred.add(v);  // unsorted input
  check(hundred.percentile(50.0) == 50.0 && hundred.percentile(90.0) == 90.0,
        "1..100: p50 = 50, p90 = 90 regardless of insertion order");
  check(hundred.beyond(90.0) == 10 && hundred.summary().tail_percentile == 90.0,
        "1..100: p90 has exactly 10 beyond, p99 has 1, so the tail is p90");

  LatencyRecord thousand;
  for (int v = 1; v <= 1000; ++v) thousand.add(v);
  check(thousand.summary().tail_percentile == 99.0 && thousand.summary().tail == 990.0,
        "1..1000: tail is p99 = 990 (10 beyond); p99.9 has 1 beyond");

  LatencyRecord ties;
  for (int i = 0; i < 1000; ++i) ties.add(7.0);
  check(ties.summary().p50 == 7.0 && ties.summary().tail_percentile == 0.0,
        "1000 equal samples: median 7, no tail (ties are not beyond)");

  LatencyRecord tied_tail;
  for (int i = 0; i < 980; ++i) tied_tail.add(1.0);
  for (int i = 0; i < 20; ++i) tied_tail.add(5.0);
  // p99 lands inside the tied block of 5.0s: nothing is strictly beyond it,
  // so the tail falls back to p90 (= 1.0, with 20 samples beyond).
  check(tied_tail.beyond(99.0) == 0 && tied_tail.summary().tail_percentile == 90.0 &&
            tied_tail.summary().tail == 1.0,
        "tied tail block: p99 has 0 beyond, tail falls back to p90");

  LatencyRecord incremental;
  for (int v = 1; v <= 20; ++v) incremental.add(v);
  const double p50_before = incremental.percentile(50.0);
  incremental.add(0.5);
  incremental.add(0.25);
  check(p50_before == 10.0 && incremental.percentile(50.0) == 9.0,
        "adding after a query re-sorts");
}

void open_loop_stall() {
  // 1000 requests at 10 kHz, served synchronously (completion = end of
  // submit); request 200's submit stalls for 20 ms.
  const double rate = 10000.0;
  const std::size_t n = 1000, stalled = 200;
  const std::int64_t stall_ns = 20'000'000;
  std::vector<std::int64_t> late(n), latency(n);
  const Schedule schedule{now_ns() + 1'000'000, rate};
  run_open_loop(schedule, 0, n, late, [&](std::size_t i, std::int64_t due, std::int64_t) {
    if (i == stalled) std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
    latency[i] = now_ns() - due;
  });
  // Requests due during the stall went out late and carry its remainder:
  // request 200 + k was due k * 100 us into the stall.
  bool carried = true;
  for (std::size_t k = 1; k < 150; ++k) {
    const std::int64_t expect = stall_ns - static_cast<std::int64_t>(k) * 100'000;
    carried = carried && latency[stalled + k] >= expect - 100'000;
  }
  check(carried, "a 20 ms stall shows as latency of every later request due during it");
  check(latency[stalled + 1] >= stall_ns - 200'000,
        "the request right after the stall waited ~the whole stall");
  LatencyRecord late_us;
  for (const std::int64_t v : late) late_us.add(static_cast<double>(v) / 1e3);
  check(late_us.percentile(99.0) >= 10'000.0, "gen.late p99 reflects the stall");
  check(generator_kept_up(late_us, 500.0), "a transient stall leaves the run valid");

  // A generator that cannot keep the rate: every submit takes 2x the period,
  // so it falls further behind with every request.
  std::vector<std::int64_t> late_behind(200);
  const Schedule fast{now_ns() + 1'000'000, rate};
  run_open_loop(fast, 0, late_behind.size(), late_behind,
                [](std::size_t, std::int64_t, std::int64_t) {
                  spin_until(now_ns() + 200'000);
                });
  LatencyRecord behind_us;
  for (const std::int64_t v : late_behind) behind_us.add(static_cast<double>(v) / 1e3);
  check(!generator_kept_up(behind_us, 500.0),
        "a generator that fell behind marks the run invalid (late p50 > 500 us)");

  // The same load without a stall keeps up.
  std::vector<std::int64_t> late2(n);
  const Schedule calm{now_ns() + 1'000'000, rate};
  run_open_loop(calm, 0, n, late2, [](std::size_t, std::int64_t, std::int64_t) {});
  LatencyRecord late2_us;
  for (const std::int64_t v : late2) late2_us.add(static_cast<double>(v) / 1e3);
  check(generator_kept_up(late2_us, 500.0), "an unstalled generator keeps up");
}

void trace_self_time() {
  Tracer t;
  const NameId root = t.intern("root"), a = t.intern("a"), b = t.intern("b"),
               leaf = t.intern("leaf");
  // op 1: root [0,100) with children a [10,30) and b [20,50) (overlap 20..30
  // counted once) and a grandchild leaf [12,18) under a.
  t.record(root, kNoParent, 1, 0, 100);
  t.record(a, root, 1, 10, 30);
  t.record(b, root, 1, 20, 50);
  t.record(leaf, a, 1, 12, 18);
  // op 2 (recorded from another thread): root [0,10) with child a [5,15)
  // clipped to the parent.
  std::thread([&] {
    t.record(a, root, 2, 5, 15);
    t.record(root, kNoParent, 2, 0, 10);
  }).join();
  const std::vector<LayerTotals> tot = t.aggregate();
  check(tot[root].total_ns == 110 && tot[root].self_ns == 60 + 5,
        "root self = duration minus the union of child coverage (clipped)");
  check(tot[a].total_ns == 30 && tot[a].self_ns == 14 + 10, "a self excludes its leaf child");
  check(tot[b].self_ns == 30 && tot[leaf].self_ns == 6, "leaves: self == total");
  check(t.span_count() == 6, "spans from two threads are all collected");
}

}  // namespace

void quiet_cpu_pinning() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    check(false, "sched_getaffinity");
    return;
  }
  QuietCpu quiet;
  quiet.check();
  cpu_set_t now;
  CPU_ZERO(&now);
  sched_getaffinity(0, sizeof now, &now);
  CPU_AND(&now, &now, &allowed);
  check(CPU_COUNT(&now) == 1, "check() pins the thread to one of the CPUs it was allowed");
  for (int i = 0; i < 50; ++i) quiet.check();
  CPU_ZERO(&now);
  sched_getaffinity(0, sizeof now, &now);
  CPU_AND(&now, &now, &allowed);
  check(CPU_COUNT(&now) == 1 && quiet.moves() <= 50, "later checks keep it on one allowed CPU");
  sched_setaffinity(0, sizeof allowed, &allowed);
}

int main() {
  latency_record_edges();
  open_loop_stall();
  trace_self_time();
  quiet_cpu_pinning();
  std::printf("%s (%d failed)\n", failures == 0 ? "selftest passed" : "selftest FAILED", failures);
  return failures == 0 ? 0 : 1;
}
