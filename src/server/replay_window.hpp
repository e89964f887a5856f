#pragma once

// Per-session anti-replay window (DESIGN.md §9.6): a sliding bitmap over
// the request counter, IPsec/DTLS style. The window tracks the highest
// counter accepted so far plus a `bits`-wide bitmap of recently-seen
// counters below it, so modestly out-of-order arrivals are admitted exactly
// once while duplicates and too-old counters are rejected:
//
//   counter >  max      -> fresh; slide the window forward
//   max-bits < counter <= max -> fresh iff its bit is unset
//   counter <= max-bits -> rejected (fell off the window; indistinguishable
//                          from a replay, so treated as one)
//
// check_and_update must only be called AFTER the request's MAC verified —
// otherwise an attacker could burn future counters with forged requests
// (KeyVault::authorize enforces this ordering under the shard lock).
//
// Thread-safety: none; callers synchronize (the vault holds its shard lock).
//
// Storage: windows up to 256 bits (the vault default is 128) live in an
// inline 4-word array — a ReplayWindow then costs zero heap allocations,
// which matters at a million resident sessions. Wider windows spill to a
// heap vector transparently.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wavekey::server {

/// Monotonic-counter acceptance predicate, shared by ReplayWindow's slide
/// decision and the offline grant verifier's strict per-actuator counters
/// (server/grants.hpp): true iff `candidate` is strictly ahead of `seen` —
/// the only direction a monotonic counter may move. Total over the full u64
/// range: at seen == UINT64_MAX the stream is exhausted (nothing advances),
/// and candidate == 0 can never advance past anything, which is why strict
/// counter streams mint from 1 and use 0 as the "nothing seen" floor.
inline bool counter_advance(std::uint64_t seen, std::uint64_t candidate) {
  return candidate > seen;
}

class ReplayWindow {
 public:
  /// @param bits  window width; rounded up to a multiple of 64, minimum 64.
  explicit ReplayWindow(std::size_t bits = 128) { reconfigure(bits); }

  /// Resizes to `bits` (same rounding as the constructor) and resets all
  /// state. Used when a pooled session entry is recycled with a different
  /// window width.
  void reconfigure(std::size_t bits) {
    bits_ = ((bits < 64 ? 64 : bits) + 63) / 64 * 64;
    nwords_ = bits_ / 64;
    heap_.clear();
    if (nwords_ > kInlineWords) heap_.resize(nwords_, 0);
    inline_.fill(0);
    any_ = false;
    max_seen_ = 0;
  }

  std::size_t bits() const { return bits_; }

  /// True iff `counter` is fresh; marks it seen. False on duplicate or
  /// counter older than the window.
  bool check_and_update(std::uint64_t counter) {
    if (!any_) {
      any_ = true;
      max_seen_ = counter;
      set_bit(0);
      return true;
    }
    if (counter_advance(max_seen_, counter)) {
      slide(counter - max_seen_);
      max_seen_ = counter;
      set_bit(0);
      return true;
    }
    const std::uint64_t age = max_seen_ - counter;  // 0 == max itself
    if (age >= bits_) return false;                 // fell off the window
    if (get_bit(age)) return false;                 // duplicate
    set_bit(age);
    return true;
  }

  /// Forgets everything (key rotation starts a fresh counter epoch).
  void reset() {
    any_ = false;
    max_seen_ = 0;
    std::uint64_t* w = words();
    for (std::size_t i = 0; i < nwords_; ++i) w[i] = 0;
  }

  /// Highest counter accepted so far (0 if nothing seen yet).
  std::uint64_t max_seen() const { return any_ ? max_seen_ : 0; }

  /// Portable window state — what replica handoff ships between vault nodes
  /// (src/server/cluster.*). Restoring a snapshot on the replica makes the
  /// promoted node reject exactly the counters the failed primary already
  /// accepted: the zero-accepted-replays invariant survives the migration.
  struct Snapshot {
    bool any = false;
    std::uint64_t max_seen = 0;
    std::vector<std::uint64_t> words;
  };

  Snapshot snapshot() const {
    const std::uint64_t* w = words();
    return Snapshot{any_, max_seen_, std::vector<std::uint64_t>(w, w + nwords_)};
  }

  /// Adopts `s`. A snapshot from a wider window is truncated to this width
  /// (oldest counters fall off — they would be rejected as too-old anyway);
  /// a narrower one zero-fills the missing words.
  void restore(const Snapshot& s) {
    any_ = s.any;
    max_seen_ = s.max_seen;
    std::uint64_t* w = words();
    for (std::size_t i = 0; i < nwords_; ++i) w[i] = i < s.words.size() ? s.words[i] : 0;
  }

 private:
  static constexpr std::size_t kInlineWords = 4;  // 256 bits without heap

  std::uint64_t* words() { return nwords_ > kInlineWords ? heap_.data() : inline_.data(); }
  const std::uint64_t* words() const {
    return nwords_ > kInlineWords ? heap_.data() : inline_.data();
  }

  // Bit `age` means counter (max_seen_ - age); bit 0 lives in words()[0] LSB.
  bool get_bit(std::uint64_t age) const {
    return (words()[age / 64] >> (age % 64)) & 1;
  }
  void set_bit(std::uint64_t age) { words()[age / 64] |= std::uint64_t{1} << (age % 64); }

  /// Ages every seen counter by `distance` (the new max is `distance` ahead).
  void slide(std::uint64_t distance) {
    std::uint64_t* w = words();
    if (distance >= bits_) {
      for (std::size_t i = 0; i < nwords_; ++i) w[i] = 0;
      return;
    }
    const std::size_t word_shift = static_cast<std::size_t>(distance / 64);
    const std::size_t bit_shift = static_cast<std::size_t>(distance % 64);
    for (std::size_t i = nwords_; i-- > 0;) {
      std::uint64_t v = 0;
      if (i >= word_shift) {
        v = w[i - word_shift] << bit_shift;
        if (bit_shift != 0 && i > word_shift) v |= w[i - word_shift - 1] >> (64 - bit_shift);
      }
      w[i] = v;
    }
  }

  std::size_t bits_ = 0;
  std::size_t nwords_ = 0;
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::vector<std::uint64_t> heap_;
  std::uint64_t max_seen_ = 0;
  bool any_ = false;
};

}  // namespace wavekey::server
