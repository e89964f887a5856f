#pragma once

// runtime::TimerWheel — hierarchical timing wheel (Varghese & Lauck,
// "Hashed and Hierarchical Timing Wheels", SOSP '87; DESIGN.md §12.1).
//
// One implementation serves both time bounds of the system: EventLoop files
// suspended coroutines by their sleep_for deadline (100 us ticks on the
// steady clock) and KeyVault files session ids by their TTL deadline (10 ms
// ticks on the caller's seconds axis). The wheel itself only knows ticks;
// each owner converts its own clock.
//
// Layout: 4 levels x 64 slots. An entry is filed into the level whose span
// covers its remaining delta (L0: < 64 ticks, L1: < 64^2, L2: < 64^3, L3:
// everything else) at the slot addressed by the matching 6-bit field of its
// absolute deadline tick. When a level-k index wraps, the slot at the new
// level-(k+1) index is cascaded: its entries are re-filed by their fresh
// delta, drifting down one level per wrap until they expire out of L0. Every
// entry fires exactly at its deadline tick. Arm and expire are O(1)
// amortized; a cascade touches one slot.
//
// Advances:
//  - an entry armed at or before the current tick fires on the next advance;
//  - an empty wheel jumps straight to the target;
//  - a jump of the whole span (64^4 ticks) or more re-files every entry by
//    its delta from the target, firing exactly the due ones, in O(entries +
//    slots) instead of 64^4 tick steps; it never fires an entry early;
//  - anything shorter steps tick by tick (an empty tick is one index
//    increment and one empty-vector check).
//
// Not thread-safe; each owner guards its wheel with its own mutex.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wavekey::runtime {

template <typename Payload>
class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kLevelBits = 6;
  static constexpr std::uint64_t kSlots = 1ull << kLevelBits;          // 64
  static constexpr std::uint64_t kSpan = 1ull << (kLevelBits * kLevels);  // 64^4

  struct Entry {
    Payload payload;
    std::uint64_t deadline_tick;
  };

  /// Files `payload` to fire when the wheel reaches `deadline_tick` (or on
  /// the next advance if that tick has already been processed).
  void arm(Payload payload, std::uint64_t deadline_tick) {
    place(Entry{payload, std::max(deadline_tick, current_tick_ + 1)});
    ++size_;
  }

  /// Processes every tick up to and including `target`, appending the
  /// payloads that came due to `fired`. A target at or before the current
  /// tick is a no-op.
  void advance_to(std::uint64_t target, std::vector<Payload>& fired) {
    if (target <= current_tick_) return;
    if (size_ != 0 && target - current_tick_ >= kSpan) {
      current_tick_ = target;
      for (int l = 0; l < kLevels; ++l) {
        for (std::uint64_t idx = 0; idx < kSlots; ++idx) cascade(l, idx, fired);
      }
      return;
    }
    while (current_tick_ < target) {
      if (size_ == 0) {
        current_tick_ = target;
        return;
      }
      step(fired);
    }
  }

  /// The next tick worth waking for: the first non-empty L0 slot before the
  /// next L0 wrap, else that wrap itself. Never later than the earliest
  /// pending deadline, and never more than one L0 wrap (64 ticks) ahead, so
  /// an entry parked in a higher level is never slept past.
  std::uint64_t next_wake_tick() const {
    const std::uint64_t boundary = (current_tick_ | (kSlots - 1)) + 1;
    for (std::uint64_t k = current_tick_ + 1; k < boundary; ++k) {
      if (!slots_[0][k & (kSlots - 1)].empty()) return k;
    }
    return boundary;
  }

  std::size_t size() const { return size_; }  ///< entries armed, not yet fired

  /// Heap bytes held by the slot vectors.
  std::size_t memory_bytes() const {
    std::size_t total = 0;
    for (const auto& level : slots_) {
      for (const auto& slot : level) total += slot.capacity() * sizeof(Entry);
    }
    return total;
  }

  /// Drops every entry, frees the slot storage and rewinds to tick 0.
  void clear() { *this = TimerWheel{}; }

 private:
  void place(const Entry& e) {
    const std::uint64_t delta = e.deadline_tick - current_tick_;
    int level = kLevels - 1;
    for (int l = 0; l < kLevels - 1; ++l) {
      if (delta < (1ull << (kLevelBits * (l + 1)))) {
        level = l;
        break;
      }
    }
    slots_[level][(e.deadline_tick >> (kLevelBits * level)) & (kSlots - 1)].push_back(e);
  }

  /// Re-files every entry of one slot by its delta from the current tick,
  /// firing the ones already due.
  void cascade(int level, std::uint64_t idx, std::vector<Payload>& fired) {
    std::vector<Entry> moved = std::move(slots_[level][idx]);
    slots_[level][idx].clear();
    for (const Entry& e : moved) {
      if (e.deadline_tick <= current_tick_) {
        fired.push_back(e.payload);
        --size_;
      } else {
        place(e);
      }
    }
  }

  void step(std::vector<Payload>& fired) {
    const std::uint64_t t = ++current_tick_;
    // Cascade every level whose index wrapped at this tick, top-down so
    // re-filed entries land in already-processed (or lower) positions.
    int wrapped = 0;
    for (int l = 1; l < kLevels; ++l) {
      if ((t & ((1ull << (kLevelBits * l)) - 1)) != 0) break;
      wrapped = l;
    }
    for (int l = wrapped; l >= 1; --l) cascade(l, (t >> (kLevelBits * l)) & (kSlots - 1), fired);
    // An L0 slot holds exactly the entries due at t; it keeps its capacity.
    auto& due = slots_[0][t & (kSlots - 1)];
    for (const Entry& e : due) fired.push_back(e.payload);
    size_ -= due.size();
    due.clear();
  }

  std::uint64_t current_tick_ = 0;  ///< last tick fully processed
  std::size_t size_ = 0;
  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> slots_;
};

}  // namespace wavekey::runtime
