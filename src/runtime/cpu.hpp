#pragma once

// Runtime CPU feature detection and SIMD-tier dispatch (DESIGN.md §8.5).
//
// Every vectorized kernel in the tree (nn/gemm, ecc/gf256, crypto/chacha20)
// selects its implementation through one seam: `cpu::active_tier()`. There
// are two tiers, kAvx2 (AVX2 + FMA) and kScalar (portable C++, also the
// differential oracle), and the chosen tier can only ever be *lowered*, never
// raised above what the hardware reports — forcing `avx2` on a machine
// without it silently clamps to the detected tier instead of faulting.
//
// Override: the environment variable WAVEKEY_SIMD=scalar|avx2 pins the tier
// for the whole process (read once, on first use). Unknown values are
// ignored with a warning. The decision is logged to stderr exactly once so
// every bench/test log records which code path actually ran.
//
// Thread-safety: active_tier()/detected_tier() are safe from any thread
// (atomic cache, idempotent initialization). force_tier_for_testing() is a
// test/bench-only hook and must not race with kernels in flight.

#include <cstddef>
#include <optional>

namespace wavekey::runtime::cpu {

/// SIMD tiers, ordered so that numeric comparison means "at least as
/// capable as".
enum class SimdTier : int {
  kScalar = 0,  // portable C++ only
  kAvx2 = 1,    // 256-bit vectors + FMA
};

/// Human-readable tier name ("scalar" / "avx2").
const char* tier_name(SimdTier tier);

/// Highest tier the hardware supports (cached after the first call).
SimdTier detected_tier();

/// Tier the dispatch seam actually uses: detected_tier() clamped by the
/// WAVEKEY_SIMD override. Logged to stderr once per process.
SimdTier active_tier();

/// Pure resolution rule behind active_tier(): parses `env` (may be null)
/// and clamps to `detected`. Exposed so tests can exercise the parsing
/// without touching process environment or the cached state.
SimdTier resolve_tier(const char* env, SimdTier detected);

/// Test/bench-only: pins active_tier() to min(tier, detected_tier()) until
/// reset with std::nullopt (which re-applies the environment policy). Not
/// safe to call while kernels run on other threads.
void force_tier_for_testing(std::optional<SimdTier> tier);

/// True iff the hardware executes the SHA-NI extension (sha256rnds2 et al).
/// Orthogonal to the vector-width ladder: a capability probe, not a tier.
bool detected_sha_ni();

/// True iff the SHA-256 kernel may use SHA-NI right now: the hardware has it
/// AND dispatch is not pinned to scalar — so WAVEKEY_SIMD=scalar (and
/// force_tier_for_testing(kScalar)) pins hashing to the portable kernel
/// together with every other vectorized path, while a host with SHA-NI but
/// without AVX2 still hashes with SHA-NI.
bool sha_ni_active();

/// Best-effort hardware concurrency (>= 1).
std::size_t hardware_threads();

}  // namespace wavekey::runtime::cpu
