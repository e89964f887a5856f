// SHA-NI SHA-256 compression (DESIGN.md §12.4): the x86 SHA extension runs
// two rounds per `sha256rnds2`, turning the 64-round scalar compression
// (~490 ns/block on the reference host) into ~16 instructions of real work
// (~40 ns/block). The message schedule is computed on the fly with
// `sha256msg1/sha256msg2`, so the kernel needs no 64-entry W buffer.
//
// State layout: the intrinsics want the eight working variables packed as
// two 128-bit lanes in (ABEF, CDGH) order; we convert from the byte-order
// independent state_[8] array at entry and back at exit, so the caller's
// representation is unchanged.
//
// This translation unit is compiled with -msha -msse4.1 on x86 (see
// src/crypto/CMakeLists.txt). On toolchains/targets without the extension
// the functions delegate to nothing — callers gate on
// runtime::cpu::sha_ni_active() before taking this path, and
// sha256_shani_compiled() tells tests whether the kernel exists at all.

#include "crypto/sha256.hpp"

#if defined(__SHA__) && defined(__SSE4_1__)
#include <immintrin.h>
#endif

namespace wavekey::crypto {

#if defined(__SHA__) && defined(__SSE4_1__)

bool sha256_shani_compiled() { return true; }

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline __m128i k_at(int i) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(kK + i));
}

}  // namespace

void sha256_process_blocks_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                                 std::size_t nblocks) {
  // Big-endian load shuffle for 32-bit words within 128-bit lanes.
  const __m128i kBswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);

  // Pack {a,b,c,d,e,f,g,h} into the (ABEF, CDGH) register layout.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));      // DCBA
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                          // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);                                          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, st1, 8);                                 // ABEF
  __m128i cdgh = _mm_blend_epi16(st1, tmp, 0xF0);                              // CDGH

  for (std::size_t b = 0; b < nblocks; ++b, blocks += 64) {
    const __m128i save_abef = abef;
    const __m128i save_cdgh = cdgh;

    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 0)), kBswap);
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16)), kBswap);
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 32)), kBswap);
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 48)), kBswap);

    // Rounds 0-15 consume the raw message; every later 4-round step first
    // extends the schedule with sha256msg1/msg2 plus the alignr carry term.
    __m128i msg = _mm_add_epi32(msg0, k_at(0));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));

    msg = _mm_add_epi32(msg1, k_at(4));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    msg = _mm_add_epi32(msg2, k_at(8));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    msg = _mm_add_epi32(msg3, k_at(12));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
    msg0 = _mm_add_epi32(_mm_sha256msg2_epu32(
                             _mm_add_epi32(msg0, _mm_alignr_epi8(msg3, msg2, 4)), msg3),
                         _mm_setzero_si128());
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-63: four schedule registers rotate through extend + rounds.
    for (int i = 16; i < 64; i += 16) {
      msg = _mm_add_epi32(msg0, k_at(i));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      msg1 = _mm_sha256msg2_epu32(_mm_add_epi32(msg1, _mm_alignr_epi8(msg0, msg3, 4)), msg0);
      msg3 = _mm_sha256msg1_epu32(msg3, msg0);

      msg = _mm_add_epi32(msg1, k_at(i + 4));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      msg2 = _mm_sha256msg2_epu32(_mm_add_epi32(msg2, _mm_alignr_epi8(msg1, msg0, 4)), msg1);
      msg0 = _mm_sha256msg1_epu32(msg0, msg1);

      msg = _mm_add_epi32(msg2, k_at(i + 8));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      msg3 = _mm_sha256msg2_epu32(_mm_add_epi32(msg3, _mm_alignr_epi8(msg2, msg1, 4)), msg2);
      msg1 = _mm_sha256msg1_epu32(msg1, msg2);

      msg = _mm_add_epi32(msg3, k_at(i + 12));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      if (i + 16 < 64) {
        msg0 = _mm_sha256msg2_epu32(_mm_add_epi32(msg0, _mm_alignr_epi8(msg3, msg2, 4)),
                                    msg3);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);
      }
    }

    abef = _mm_add_epi32(abef, save_abef);
    cdgh = _mm_add_epi32(cdgh, save_cdgh);
  }

  // Unpack (ABEF, CDGH) back to {a..h}.
  __m128i t0 = _mm_shuffle_epi32(abef, 0x1B);  // FEBA
  __m128i t1 = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  const __m128i dcba = _mm_blend_epi16(t0, t1, 0xF0);
  const __m128i hgfe = _mm_alignr_epi8(t1, t0, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#else  // !(__SHA__ && __SSE4_1__)

bool sha256_shani_compiled() { return false; }

void sha256_process_blocks_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                                 std::size_t nblocks) {
  // Never reached: callers gate on sha_ni_active(), which is false when the
  // hardware (and therefore this build) lacks the extension.
  (void)state;
  (void)blocks;
  (void)nblocks;
}

#endif

}  // namespace wavekey::crypto
