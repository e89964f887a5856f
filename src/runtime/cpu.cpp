#include "runtime/cpu.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace wavekey::runtime::cpu {
namespace {

// Cached state. kUnset marks "not yet resolved"; resolution is idempotent,
// so a benign race between first callers resolves to the same value.
// g_ceiling is the requested tier before clamping to the hardware (kAvx2
// when nothing is pinned): active_tier() is min(ceiling, detected), and
// sha_ni_active() needs to know whether scalar was asked for or detected.
constexpr int kUnset = -1;
std::atomic<int> g_detected{kUnset};
std::atomic<int> g_ceiling{kUnset};

SimdTier probe_hardware() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return SimdTier::kAvx2;
  return SimdTier::kScalar;
#else
  // Non-x86: only the portable kernels are compiled for dispatch.
  return SimdTier::kScalar;
#endif
}

void log_decision(SimdTier active, SimdTier detected, const char* env) {
  static std::once_flag flag;
  std::call_once(flag, [&] {
    if (env != nullptr) {
      std::fprintf(stderr, "wavekey: SIMD tier %s (detected %s, WAVEKEY_SIMD=%s)\n",
                   tier_name(active), tier_name(detected), env);
    } else {
      std::fprintf(stderr, "wavekey: SIMD tier %s\n", tier_name(active));
    }
  });
}

/// WAVEKEY_SIMD value -> requested ceiling; unset, empty and unknown values
/// request no limit (kAvx2).
SimdTier parse_ceiling(const char* env) {
  if (env == nullptr || *env == '\0') return SimdTier::kAvx2;
  if (std::strcmp(env, "scalar") == 0) return SimdTier::kScalar;
  if (std::strcmp(env, "avx2") == 0) return SimdTier::kAvx2;
  std::fprintf(stderr, "wavekey: ignoring unknown WAVEKEY_SIMD value '%s'\n", env);
  return SimdTier::kAvx2;
}

SimdTier clamp(SimdTier requested, SimdTier detected) {
  // Never raise above what the hardware can execute.
  return requested < detected ? requested : detected;
}

SimdTier ceiling() {
  int cached = g_ceiling.load(std::memory_order_relaxed);
  if (cached == kUnset) {
    const char* env = std::getenv("WAVEKEY_SIMD");
    const SimdTier requested = parse_ceiling(env);
    log_decision(clamp(requested, detected_tier()), detected_tier(), env);
    cached = static_cast<int>(requested);
    g_ceiling.store(cached, std::memory_order_relaxed);
  }
  return static_cast<SimdTier>(cached);
}

}  // namespace

const char* tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
  }
  return "unknown";
}

SimdTier detected_tier() {
  int cached = g_detected.load(std::memory_order_relaxed);
  if (cached == kUnset) {
    cached = static_cast<int>(probe_hardware());
    g_detected.store(cached, std::memory_order_relaxed);
  }
  return static_cast<SimdTier>(cached);
}

SimdTier resolve_tier(const char* env, SimdTier detected) {
  return clamp(parse_ceiling(env), detected);
}

SimdTier active_tier() { return clamp(ceiling(), detected_tier()); }

bool detected_sha_ni() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

bool sha_ni_active() { return detected_sha_ni() && ceiling() != SimdTier::kScalar; }

void force_tier_for_testing(std::optional<SimdTier> tier) {
  g_ceiling.store(tier.has_value() ? static_cast<int>(*tier) : kUnset,
                  std::memory_order_relaxed);
}

}  // namespace wavekey::runtime::cpu
