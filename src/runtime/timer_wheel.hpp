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
//  - a jump of the whole span (64^4 ticks) or more re-files every entry by
//    its delta from the target, firing exactly the due ones, in O(entries +
//    slots) instead of 64^4 tick steps; it never fires an entry early;
//  - anything shorter skips every tick at which a step would do nothing:
//    one occupancy bit per slot finds the next tick that either fires an
//    occupied L0 slot or cascades an occupied slot at a level boundary, and
//    the wheel jumps straight there (an empty wheel jumps to the target). An
//    advance costs O(slots touched + entries moved), not O(ticks elapsed).
//
// Not thread-safe; each owner guards its wheel with its own mutex.

#include <algorithm>
#include <array>
#include <bit>
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
    for (std::uint64_t next = next_event_tick(); next <= target; next = next_event_tick()) {
      current_tick_ = next - 1;  // every tick before `next` is a no-op step
      step(fired);
    }
    current_tick_ = target;
  }

  /// The next tick worth waking for: the first non-empty L0 slot before the
  /// next L0 wrap, else that wrap itself. Never later than the earliest
  /// pending deadline, and never more than one L0 wrap (64 ticks) ahead, so
  /// an entry parked in a higher level is never slept past.
  std::uint64_t next_wake_tick() const {
    return std::min(next_event_tick(), (current_tick_ | (kSlots - 1)) + 1);
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
    const std::uint64_t idx = (e.deadline_tick >> (kLevelBits * level)) & (kSlots - 1);
    slots_[level][idx].push_back(e);
    occupied_[level] |= 1ull << idx;
  }

  /// The first tick after the current one at which step() has work: an
  /// occupied L0 slot comes due, or a level-l boundary (a multiple of 64^l)
  /// cascades an occupied slot. At level l the boundaries ahead are
  /// ((current >> 6l) + 1 + k) << 6l for k = 0..63, cascading slot
  /// (current >> 6l) + 1 + k mod 64; rotating the occupancy mask puts slot k
  /// at bit k. UINT64_MAX when the wheel is empty.
  std::uint64_t next_event_tick() const {
    std::uint64_t next = ~std::uint64_t{0};
    for (int l = 0; l < kLevels; ++l) {
      if (occupied_[l] == 0) continue;
      const int shift = kLevelBits * l;
      const std::uint64_t first = (current_tick_ >> shift) + 1;
      const auto k = std::countr_zero(
          std::rotr(occupied_[l], static_cast<int>(first & (kSlots - 1))));
      next = std::min(next, (first + static_cast<std::uint64_t>(k)) << shift);
    }
    return next;
  }

  /// Re-files every entry of one slot by its delta from the current tick,
  /// firing the ones already due.
  void cascade(int level, std::uint64_t idx, std::vector<Payload>& fired) {
    std::vector<Entry> moved = std::move(slots_[level][idx]);
    slots_[level][idx].clear();
    occupied_[level] &= ~(1ull << idx);  // before re-filing: an entry may land here again
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
    occupied_[0] &= ~(1ull << (t & (kSlots - 1)));
  }

  std::uint64_t current_tick_ = 0;  ///< last tick fully processed
  std::size_t size_ = 0;
  std::array<std::uint64_t, kLevels> occupied_{};  ///< bit s of level l: slots_[l][s] non-empty
  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> slots_;
};

}  // namespace wavekey::runtime
