// Tests for runtime::TimerWheel, the hierarchical timing wheel behind both
// EventLoop::sleep_for and the KeyVault TTL purge: a differential run against
// a sorted-multimap reference over seeded random arm/advance sequences, plus
// targeted checks of the cascade boundaries, arms at or before the current
// tick, span-sized jumps and the wake-tick bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "runtime/timer_wheel.hpp"

namespace {

using Wheel = wavekey::runtime::TimerWheel<std::uint64_t>;
constexpr std::uint64_t kSpan = Wheel::kSpan;  // 64^4 ticks

/// The obvious timer store: deadlines in a sorted multimap.
struct RefModel {
  std::uint64_t current_tick = 0;
  std::multimap<std::uint64_t, std::uint64_t> armed;  // deadline -> id

  void arm(std::uint64_t id, std::uint64_t deadline) {
    armed.emplace(std::max(deadline, current_tick + 1), id);
  }
  std::vector<std::uint64_t> advance_to(std::uint64_t target) {
    std::vector<std::uint64_t> fired;
    if (target <= current_tick) return fired;
    current_tick = target;
    const auto end = armed.upper_bound(target);
    for (auto it = armed.begin(); it != end; ++it) fired.push_back(it->second);
    armed.erase(armed.begin(), end);
    std::sort(fired.begin(), fired.end());
    return fired;
  }
};

std::vector<std::uint64_t> advance(Wheel& wheel, std::uint64_t target) {
  std::vector<std::uint64_t> fired;
  wheel.advance_to(target, fired);
  std::sort(fired.begin(), fired.end());
  return fired;
}

/// A tick on or one off a cascade boundary (multiple of 64, 64^2, 64^3 or
/// the whole span) a few wraps past `from`.
std::uint64_t near_boundary(std::mt19937_64& rng, std::uint64_t from) {
  static constexpr std::uint64_t kBoundaries[] = {64, 4096, 262144, kSpan};
  const std::uint64_t b = kBoundaries[rng() % 4];
  const std::uint64_t tick = (from / b + 1 + rng() % 3) * b;
  return tick + (rng() % 3) - 1;
}

void check_wake_bound(const Wheel& wheel, const RefModel& ref) {
  if (ref.armed.empty()) return;
  const std::uint64_t wake = wheel.next_wake_tick();
  const std::uint64_t earliest = ref.armed.begin()->first;
  ASSERT_GT(wake, ref.current_tick);
  ASSERT_LE(wake, earliest) << "the wheel would sleep past a pending deadline";
  ASSERT_LE(wake, ref.current_tick + Wheel::kSlots) << "wake beyond one L0 wrap";
}

void run_differential(std::uint64_t seed) {
  Wheel wheel;
  RefModel ref;
  std::mt19937_64 rng(seed);
  std::uint64_t next_id = 0;
  constexpr int kOps = 4000;

  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t now = ref.current_tick;
    if (rng() % 3 != 0) {  // arm
      std::uint64_t deadline = 0;
      switch (rng() % 5) {
        case 0: deadline = now + 1 + rng() % 64; break;         // L0
        case 1: deadline = now + 1 + rng() % 300000; break;     // L1..L3
        case 2: deadline = near_boundary(rng, now); break;      // cascade edges
        case 3: deadline = now - std::min(now, rng() % 100); break;  // at/before now
        default: deadline = now + kSpan + rng() % (3 * kSpan); break;  // past the span
      }
      const std::uint64_t id = next_id++;
      wheel.arm(id, deadline);
      ref.arm(id, deadline);
    } else {  // advance
      std::uint64_t target = now;
      switch (rng() % 6) {
        case 0: target = now + 1; break;
        case 1: target = now + rng() % 200; break;
        case 2: target = near_boundary(rng, now); break;
        case 3: target = now + rng() % 400000; break;
        case 4: target = now + kSpan + rng() % kSpan; break;  // span jump
        default: target = now - std::min(now, rng() % 10); break;  // no-op
      }
      // Stepping just short of a span jump is the slowest path; keep it rare.
      if (target > now && target - now > 400000 && target - now < kSpan) target = now + 400000;
      ASSERT_EQ(advance(wheel, target), ref.advance_to(target))
          << "seed " << seed << " op " << op << " advance " << now << " -> " << target;
    }
    ASSERT_EQ(wheel.size(), ref.armed.size()) << "seed " << seed << " op " << op;
    check_wake_bound(wheel, ref);
  }
  // Drain: everything still armed fires, and only at its deadline.
  while (!ref.armed.empty()) {
    const std::uint64_t d = ref.armed.begin()->first;
    ASSERT_TRUE(advance(wheel, d - 1).empty()) << "seed " << seed << " early fire before " << d;
    ref.advance_to(d - 1);
    ASSERT_EQ(advance(wheel, d), ref.advance_to(d)) << "seed " << seed << " deadline " << d;
  }
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, DifferentialAgainstSortedMultimap) {
  for (std::uint64_t seed : {1u, 2u, 3u, 0x7E1Eu, 0xC0FFEEu}) {
    run_differential(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(TimerWheel, CascadeBoundariesFireExactlyOnTheirTick) {
  Wheel wheel;
  std::vector<std::uint64_t> deadlines;
  for (std::uint64_t b : {std::uint64_t{64}, std::uint64_t{4096}, std::uint64_t{262144}, kSpan})
    for (std::uint64_t d : {b - 1, b, b + 1, 2 * b}) deadlines.push_back(d);
  std::sort(deadlines.begin(), deadlines.end());
  deadlines.erase(std::unique(deadlines.begin(), deadlines.end()), deadlines.end());
  for (std::uint64_t d : deadlines) wheel.arm(d, d);  // payload = deadline

  for (std::uint64_t d : deadlines) {
    EXPECT_TRUE(advance(wheel, d - 1).empty()) << "early fire before " << d;
    EXPECT_EQ(advance(wheel, d), std::vector<std::uint64_t>{d}) << "deadline " << d;
  }
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, ArmAtOrBeforeCurrentTickFiresOnNextAdvance) {
  Wheel wheel;
  advance(wheel, 1000);
  wheel.arm(1, 0);
  wheel.arm(2, 999);
  wheel.arm(3, 1000);
  wheel.arm(4, 1001);
  EXPECT_EQ(wheel.size(), 4u);
  EXPECT_EQ(wheel.next_wake_tick(), 1001u);
  EXPECT_EQ(advance(wheel, 1001), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, SpanJumpFiresDueEntriesAndRefilesTheRest) {
  Wheel wheel;
  advance(wheel, 5);
  const std::uint64_t target = 5 + kSpan + 100;
  // Due by the target: one per level, one exactly on it.
  const std::vector<std::uint64_t> due = {6, 5000, 300000, kSpan, target};
  // Pending past it, at every distance class from the target.
  const std::vector<std::uint64_t> later = {target + 1, target + 64, target + 4097,
                                            target + 262145, target + kSpan + 7};
  for (std::uint64_t d : due) wheel.arm(d, d);
  for (std::uint64_t d : later) wheel.arm(d, d);

  EXPECT_EQ(advance(wheel, target), due);
  EXPECT_EQ(wheel.size(), later.size());
  EXPECT_EQ(wheel.next_wake_tick(), target + 1);
  // The re-filed entries keep firing exactly on their deadlines.
  for (std::uint64_t d : later) {
    EXPECT_TRUE(advance(wheel, d - 1).empty()) << "early fire before " << d;
    EXPECT_EQ(advance(wheel, d), std::vector<std::uint64_t>{d});
  }
}

TEST(TimerWheel, EmptyWheelJumpsStraightToTarget) {
  Wheel wheel;
  advance(wheel, kSpan - 1);  // no entries: no tick stepping
  wheel.arm(7, 0);            // due on the tick after the current one
  EXPECT_EQ(wheel.next_wake_tick(), kSpan);
  wheel.arm(8, kSpan + 10);
  EXPECT_EQ(advance(wheel, kSpan + 9), std::vector<std::uint64_t>{7});
  EXPECT_EQ(advance(wheel, 1ull << 40), std::vector<std::uint64_t>{8});
  wheel.arm(9, 0);
  EXPECT_EQ(wheel.next_wake_tick(), (1ull << 40) + 1);
}

TEST(TimerWheel, ClearDropsEntriesAndRewinds) {
  Wheel wheel;
  for (std::uint64_t i = 0; i < 100; ++i) wheel.arm(i, 10 + i * 1000);
  advance(wheel, 50);
  EXPECT_GT(wheel.memory_bytes(), 0u);
  wheel.clear();
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_EQ(wheel.memory_bytes(), 0u);
  wheel.arm(1, 0);  // rewound: tick 1 is next, and only the new entry fires
  EXPECT_EQ(wheel.next_wake_tick(), 1u);
  EXPECT_EQ(advance(wheel, 1'000'000), std::vector<std::uint64_t>{1});
}

}  // namespace
