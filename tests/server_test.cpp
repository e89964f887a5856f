// Tests for the backend access-control server (src/server, DESIGN.md §9):
// HKDF vectors, the sliding-bitmap replay window, token-bucket admission,
// the AccessRequest/AccessGrant wire codec (+ malformed-input fuzzing in
// the style of protocol_test.cpp), the sharded KeyVault lifecycle (TTL
// boundary, revocation, rotation epochs, LRU pressure), NIST randomness of
// rotated keys, the AccessServer end-to-end path, and the pairing-engine →
// vault handoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/pairing_engine.hpp"
#include "core/seed_quantizer.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "nist/nist.hpp"
#include "numeric/rng.hpp"
#include "server/access_server.hpp"
#include "server/admission.hpp"
#include "server/key_vault.hpp"
#include "server/replay_window.hpp"

using namespace wavekey;
using namespace wavekey::server;
using protocol::Bytes;
using protocol::WireError;

namespace {

SessionKey random_key(crypto::Drbg& rng) {
  SessionKey key{};
  rng.random_bytes(key);
  return key;
}

std::array<std::uint8_t, kNonceBytes> nonce_from(std::uint64_t v) {
  std::array<std::uint8_t, kNonceBytes> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return nonce;
}

/// Builds a valid request against the vault's current key/epoch.
AccessRequest client_request(const KeyVault& vault, std::uint64_t session_id,
                             std::uint64_t counter, double now_s,
                             Bytes payload = {0xD0, 0x0F}) {
  const auto key = vault.current_key(session_id, now_s);
  const auto epoch = vault.current_epoch(session_id, now_s);
  EXPECT_TRUE(key.has_value() && epoch.has_value());
  return make_access_request(session_id, epoch.value_or(0), counter, nonce_from(counter),
                             std::move(payload), key.value_or(SessionKey{}));
}

AccessStatus authorize(KeyVault& vault, const AccessRequest& req, double now_s,
                       SessionKey* key_out = nullptr) {
  return vault.authorize(req, req.mac_input(), now_s, key_out);
}

}  // namespace

// --- HKDF (RFC 5869) ---

TEST(HkdfTest, Rfc5869Case1) {
  const std::vector<std::uint8_t> ikm(22, 0x0b);
  std::vector<std::uint8_t> salt, info;
  for (std::uint8_t i = 0x00; i <= 0x0c; ++i) salt.push_back(i);
  for (std::uint8_t i = 0xf0; i <= 0xf9; ++i) info.push_back(i);

  const crypto::Digest256 prk = crypto::hkdf_extract(salt, ikm);
  const crypto::Digest256 expected_prk = {0x07, 0x77, 0x09, 0x36, 0x2c, 0x2e, 0x32, 0xdf,
                                          0x0d, 0xdc, 0x3f, 0x0d, 0xc4, 0x7b, 0xba, 0x63,
                                          0x90, 0xb6, 0xc7, 0x3b, 0xb5, 0x0f, 0x9c, 0x31,
                                          0x22, 0xec, 0x84, 0x4a, 0xd7, 0xc2, 0xb3, 0xe5};
  EXPECT_EQ(prk, expected_prk);

  const std::vector<std::uint8_t> okm = crypto::hkdf_expand(prk, info, 42);
  const std::vector<std::uint8_t> expected_okm = {
      0x3c, 0xb2, 0x5f, 0x25, 0xfa, 0xac, 0xd5, 0x7a, 0x90, 0x43, 0x4f, 0x64, 0xd0, 0x36,
      0x2f, 0x2a, 0x2d, 0x2d, 0x0a, 0x90, 0xcf, 0x1a, 0x5a, 0x4c, 0x5d, 0xb0, 0x2d, 0x56,
      0xec, 0xc4, 0xc5, 0xbf, 0x34, 0x00, 0x72, 0x08, 0xd5, 0xb8, 0x87, 0x18, 0x58, 0x65};
  EXPECT_EQ(okm, expected_okm);
}

TEST(HkdfTest, Rfc5869Case2MultiBlockExpand) {
  // A.2: 80-byte IKM/salt/info and L=82, so expand runs T(1)..T(3) and
  // truncates the last block — the multi-block counter path that Case 1
  // (42 bytes) only half exercises.
  std::vector<std::uint8_t> ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) ikm.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0x60; i <= 0xaf; ++i) salt.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0xb0; i <= 0xff; ++i) info.push_back(static_cast<std::uint8_t>(i));

  const crypto::Digest256 prk = crypto::hkdf_extract(salt, ikm);
  const crypto::Digest256 expected_prk = {0x06, 0xa6, 0xb8, 0x8c, 0x58, 0x53, 0x36, 0x1a,
                                          0x06, 0x10, 0x4c, 0x9c, 0xeb, 0x35, 0xb4, 0x5c,
                                          0xef, 0x76, 0x00, 0x14, 0x90, 0x46, 0x71, 0x01,
                                          0x4a, 0x19, 0x3f, 0x40, 0xc1, 0x5f, 0xc2, 0x44};
  EXPECT_EQ(prk, expected_prk);

  const std::vector<std::uint8_t> okm = crypto::hkdf_expand(prk, info, 82);
  const std::vector<std::uint8_t> expected_okm = {
      0xb1, 0x1e, 0x39, 0x8d, 0xc8, 0x03, 0x27, 0xa1, 0xc8, 0xe7, 0xf7, 0x8c, 0x59, 0x6a,
      0x49, 0x34, 0x4f, 0x01, 0x2e, 0xda, 0x2d, 0x4e, 0xfa, 0xd8, 0xa0, 0x50, 0xcc, 0x4c,
      0x19, 0xaf, 0xa9, 0x7c, 0x59, 0x04, 0x5a, 0x99, 0xca, 0xc7, 0x82, 0x72, 0x71, 0xcb,
      0x41, 0xc6, 0x5e, 0x59, 0x0e, 0x09, 0xda, 0x32, 0x75, 0x60, 0x0c, 0x2f, 0x09, 0xb8,
      0x36, 0x77, 0x93, 0xa9, 0xac, 0xa3, 0xdb, 0x71, 0xcc, 0x30, 0xc5, 0x81, 0x79, 0xec,
      0x3e, 0x87, 0xc1, 0x4c, 0x01, 0xd5, 0xc1, 0xf3, 0x43, 0x4f, 0x1d, 0x87};
  EXPECT_EQ(okm, expected_okm);
  EXPECT_EQ(crypto::hkdf_sha256(salt, ikm, info, 82), expected_okm);
}

TEST(HkdfTest, LabeledDerivationChainsOneHopPerLabel) {
  // hkdf_labeled is defined as iterated extract-then-expand with the label
  // as salt — check it against the primitives hop by hop, plus the identity
  // that an empty label list just re-keys nothing.
  std::vector<std::uint8_t> master(32, 0xA5);
  const std::vector<std::uint8_t> l1 = {'t', 'e', 'n', 'a', 'n', 't'};
  const std::vector<std::uint8_t> l2 = {'t', 'a', 'g'};
  const std::vector<std::vector<std::uint8_t>> labels = {l1, l2};

  crypto::Digest256 expected{};
  std::copy(master.begin(), master.end(), expected.begin());
  EXPECT_EQ(crypto::hkdf_labeled(master, {}), expected);  // zero hops = identity
  for (const auto& label : labels) {
    const auto okm = crypto::hkdf_sha256(label, expected, {}, 32);
    std::copy(okm.begin(), okm.end(), expected.begin());
  }
  EXPECT_EQ(crypto::hkdf_labeled(master, labels), expected);

  // Distinct labels at the same depth diverge; prefix order matters.
  const std::vector<std::vector<std::uint8_t>> swapped = {l2, l1};
  EXPECT_NE(crypto::hkdf_labeled(master, labels), crypto::hkdf_labeled(master, swapped));
  const std::vector<std::vector<std::uint8_t>> just_one = {l1};
  EXPECT_NE(crypto::hkdf_labeled(master, labels), crypto::hkdf_labeled(master, just_one));
}

TEST(HkdfTest, Rfc5869Case3ZeroSalt) {
  // A.3: empty salt and info.
  const std::vector<std::uint8_t> ikm(22, 0x0b);
  const std::vector<std::uint8_t> okm = crypto::hkdf_sha256({}, ikm, {}, 42);
  const std::vector<std::uint8_t> expected = {
      0x8d, 0xa4, 0xe7, 0x75, 0xa5, 0x63, 0xc1, 0x8f, 0x71, 0x5f, 0x80, 0x2a, 0x06, 0x3c,
      0x5a, 0x31, 0xb8, 0xa1, 0x1f, 0x5c, 0x5e, 0xe1, 0x87, 0x9e, 0xc3, 0x45, 0x4e, 0x5f,
      0x3c, 0x73, 0x8d, 0x2d, 0x9d, 0x20, 0x13, 0x95, 0xfa, 0xa4, 0xb6, 0x1a, 0x96, 0xc8};
  EXPECT_EQ(okm, expected);
}

TEST(HkdfTest, ExpandLengthBound) {
  const crypto::Digest256 prk{};
  EXPECT_NO_THROW(crypto::hkdf_expand(prk, {}, 255 * 32));
  EXPECT_THROW(crypto::hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

// --- replay window ---

TEST(ReplayWindowTest, DuplicateRejectedFreshAccepted) {
  ReplayWindow window(128);
  EXPECT_TRUE(window.check_and_update(1));
  EXPECT_FALSE(window.check_and_update(1));
  EXPECT_TRUE(window.check_and_update(2));
  EXPECT_FALSE(window.check_and_update(2));
  EXPECT_FALSE(window.check_and_update(1));
}

TEST(ReplayWindowTest, OutOfOrderWithinWindow) {
  ReplayWindow window(128);
  EXPECT_TRUE(window.check_and_update(100));
  EXPECT_TRUE(window.check_and_update(40));  // age 60, inside 128
  EXPECT_FALSE(window.check_and_update(40));
  EXPECT_TRUE(window.check_and_update(99));
  EXPECT_FALSE(window.check_and_update(99));
}

TEST(ReplayWindowTest, TooOldRejected) {
  ReplayWindow window(128);
  EXPECT_TRUE(window.check_and_update(500));
  EXPECT_FALSE(window.check_and_update(500 - 128));  // age == bits: off the edge
  EXPECT_TRUE(window.check_and_update(500 - 127));   // oldest representable
}

TEST(ReplayWindowTest, SlideAcrossWordBoundaries) {
  ReplayWindow window(128);
  for (std::uint64_t c = 1; c <= 70; ++c) EXPECT_TRUE(window.check_and_update(c));
  // Jump far ahead but keep some history inside the window.
  EXPECT_TRUE(window.check_and_update(130));
  for (std::uint64_t c = 3; c <= 70; ++c)
    EXPECT_FALSE(window.check_and_update(c)) << "counter " << c << " must stay seen";
  EXPECT_FALSE(window.check_and_update(2));  // age 128: fell off
  // A giant jump clears all history.
  EXPECT_TRUE(window.check_and_update(10000));
  EXPECT_FALSE(window.check_and_update(130));  // far below the new window
}

TEST(ReplayWindowTest, ResetForgetsEverything) {
  ReplayWindow window(64);
  EXPECT_TRUE(window.check_and_update(7));
  EXPECT_FALSE(window.check_and_update(7));
  window.reset();
  EXPECT_TRUE(window.check_and_update(7));
}

// Counters are uint64 and the age arithmetic (max_seen - counter) runs right
// at the type's edge when a client burns through the top of the range — no
// wraparound may ever readmit a seen counter.

TEST(ReplayWindowTest, SequenceAtUint64MaxStaysExactlyOnce) {
  ReplayWindow window(128);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_TRUE(window.check_and_update(top - 2));
  EXPECT_TRUE(window.check_and_update(top));  // slide of 2 at the very edge
  EXPECT_EQ(window.max_seen(), top);
  EXPECT_TRUE(window.check_and_update(top - 1));   // in-window straggler
  EXPECT_FALSE(window.check_and_update(top));      // duplicates still caught
  EXPECT_FALSE(window.check_and_update(top - 1));
  EXPECT_FALSE(window.check_and_update(top - 2));
  // There is no counter above max: the window simply stays parked at top.
  EXPECT_TRUE(window.check_and_update(top - 3));
}

TEST(ReplayWindowTest, HugeAgeBelowMaxRejectsWithoutWrap) {
  ReplayWindow window(64);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_TRUE(window.check_and_update(top));
  // Ages near 2^64: far older than any window — rejected, not readmitted.
  EXPECT_FALSE(window.check_and_update(0));
  EXPECT_FALSE(window.check_and_update(1));
  EXPECT_FALSE(window.check_and_update(top - 64));  // exactly on the edge
  EXPECT_TRUE(window.check_and_update(top - 63));   // last in-window age
}

TEST(ReplayWindowTest, SlideByNearUint64MaxClearsCleanly) {
  ReplayWindow window(128);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_TRUE(window.check_and_update(5));
  EXPECT_TRUE(window.check_and_update(top));  // distance ~2^64: full clear
  EXPECT_EQ(window.max_seen(), top);
  EXPECT_FALSE(window.check_and_update(5));       // ancient -> replay
  EXPECT_FALSE(window.check_and_update(top));     // new max is marked seen
  EXPECT_TRUE(window.check_and_update(top - 1));  // window usable after slide
}

TEST(ReplayWindowTest, SnapshotRestoreRoundTripsAtTheEdge) {
  ReplayWindow window(128);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_TRUE(window.check_and_update(top - 70));
  EXPECT_TRUE(window.check_and_update(top));
  ReplayWindow restored(128);
  restored.restore(window.snapshot());
  EXPECT_EQ(restored.max_seen(), top);
  EXPECT_FALSE(restored.check_and_update(top));       // seen before snapshot
  EXPECT_FALSE(restored.check_and_update(top - 70));  // bitmap rode along
  EXPECT_TRUE(restored.check_and_update(top - 1));    // fresh stays fresh
}

// --- admission control ---

TEST(TokenBucketTest, BurstThenRate) {
  TokenBucket bucket(10.0, 3.0);  // 10/s, burst 3
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.05));  // only 0.5 tokens refilled
  EXPECT_TRUE(bucket.try_acquire(0.1));    // 1 token refilled
  EXPECT_FALSE(bucket.try_acquire(0.1));
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket(100.0, 5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.try_acquire(0.0));
  // A long idle period must not bank more than `burst` tokens.
  EXPECT_NEAR(bucket.tokens(1000.0), 5.0, 1e-9);
}

TEST(TenantLimiterTest, TenantsAreIsolated) {
  AdmissionConfig config;
  config.rate_per_s = 0.0;  // no refill: burst is the whole budget
  config.burst = 2.0;
  TenantLimiter limiter(config);
  EXPECT_TRUE(limiter.admit(1, 0.0));
  EXPECT_TRUE(limiter.admit(1, 0.0));
  EXPECT_FALSE(limiter.admit(1, 0.0));  // tenant 1 exhausted
  EXPECT_TRUE(limiter.admit(2, 0.0));   // tenant 2 unaffected
}

TEST(TenantLimiterTest, TenantMapBoundFailsClosed) {
  AdmissionConfig config;
  config.max_tenants = 2;
  TenantLimiter limiter(config);
  EXPECT_TRUE(limiter.admit(1, 0.0));
  EXPECT_TRUE(limiter.admit(2, 0.0));
  EXPECT_FALSE(limiter.admit(3, 0.0));  // map full: new tenants refused
  EXPECT_TRUE(limiter.admit(1, 0.0));   // existing tenants unaffected
}

// --- access protocol wire codec ---

TEST(AccessProtocolTest, RequestRoundTrip) {
  crypto::Drbg rng(1);
  const SessionKey key = random_key(rng);
  const AccessRequest req =
      make_access_request(0x1122334455667788ull, 3, 42, nonce_from(9), {1, 2, 3}, key);
  const AccessRequest parsed = AccessRequest::parse(req.serialize());
  EXPECT_EQ(parsed.session_id, req.session_id);
  EXPECT_EQ(parsed.epoch, 3u);
  EXPECT_EQ(parsed.counter, 42u);
  EXPECT_EQ(parsed.nonce, req.nonce);
  EXPECT_EQ(parsed.payload, req.payload);
  EXPECT_EQ(parsed.mac, req.mac);
}

TEST(AccessProtocolTest, GrantRoundTripAndVerify) {
  crypto::Drbg rng(2);
  const SessionKey key = random_key(rng);
  const AccessGrant grant = make_access_grant(7, 11, AccessStatus::kGranted, key);
  const AccessGrant parsed = AccessGrant::parse(grant.serialize());
  EXPECT_EQ(parsed.session_id, 7u);
  EXPECT_EQ(parsed.counter, 11u);
  EXPECT_EQ(parsed.status, AccessStatus::kGranted);
  EXPECT_TRUE(verify_access_grant(parsed, key));

  AccessGrant forged = parsed;
  forged.status = AccessStatus::kRevoked;  // attacker flips the decision
  EXPECT_FALSE(verify_access_grant(forged, key));
}

TEST(AccessProtocolTest, UnknownGrantStatusByteThrows) {
  const AccessGrant grant = make_access_grant(1, 1, AccessStatus::kGranted, {});
  Bytes wire = grant.serialize();
  wire[1 + 8 + 8] = 200;  // status byte past tag + session id + counter
  EXPECT_THROW(AccessGrant::parse(wire), WireError);
}

TEST(AccessProtocolTest, EveryStatusHasDistinctName) {
  std::set<std::string> names;
  for (std::uint8_t s = 0; s < kAccessStatusCount; ++s)
    names.insert(access_status_name(static_cast<AccessStatus>(s)));
  EXPECT_EQ(names.size(), kAccessStatusCount);
}

// --- malformed-input fuzzing (mirrors protocol_test.cpp's corpus style) ---

namespace {

Bytes mutate_wire(const Bytes& base, Rng& rng) {
  Bytes out = base;
  switch (rng.uniform_u64(4)) {
    case 0:  // truncate
      out.resize(static_cast<std::size_t>(rng.uniform_u64(base.size() + 1)));
      break;
    case 1: {  // flip 1..8 bits
      if (out.empty()) break;
      const std::size_t flips = 1 + rng.uniform_u64(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t bit = rng.uniform_u64(out.size() * 8);
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 2:  // fully random buffer
      out.resize(static_cast<std::size_t>(rng.uniform_u64(300)));
      rng.fill_bytes(out);
      break;
    default:  // append junk
      for (std::size_t i = 0, n = 1 + rng.uniform_u64(32); i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(rng.uniform_u64(256)));
      break;
  }
  return out;
}

template <typename F>
void fuzz_decoder(const Bytes& base, std::uint64_t seed, F&& decode) {
  Rng rng(seed);
  for (int i = 0; i < 1000; ++i) {
    const Bytes mutated = mutate_wire(base, rng);
    try {
      decode(mutated);  // parsing garbage successfully is fine; UB is not
    } catch (const WireError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

}  // namespace

TEST(MalformedInputFuzz, AccessRequestParseNeverCrashes) {
  crypto::Drbg rng(21);
  const AccessRequest req =
      make_access_request(5, 0, 1, nonce_from(1), {1, 2, 3, 4}, random_key(rng));
  fuzz_decoder(req.serialize(), 2001, [](const Bytes& wire) { (void)AccessRequest::parse(wire); });
}

TEST(MalformedInputFuzz, AccessGrantParseNeverCrashes) {
  crypto::Drbg rng(22);
  const AccessGrant grant = make_access_grant(5, 1, AccessStatus::kGranted, random_key(rng));
  fuzz_decoder(grant.serialize(), 2002, [](const Bytes& wire) { (void)AccessGrant::parse(wire); });
}

TEST(MalformedInputFuzz, FullAuthorizePathYieldsTypedErrorsOnly) {
  // Mutations driven through parse + vault authorization: every outcome must
  // be a typed AccessStatus or a WireError — never UB, never a grant for a
  // tampered MAC input.
  VaultConfig vc;
  KeyVault vault(vc);
  crypto::Drbg rng(23);
  const SessionKey key = random_key(rng);
  ASSERT_TRUE(vault.install(77, key, 0.0));
  const AccessRequest base = make_access_request(77, 0, 1, nonce_from(1), {9, 9}, key);
  const Bytes base_wire = base.serialize();

  Rng mutator(2003);
  for (int i = 0; i < 1000; ++i) {
    const Bytes mutated = mutate_wire(base_wire, mutator);
    try {
      const AccessRequest req = AccessRequest::parse(mutated);
      const AccessStatus status = authorize(vault, req, 1.0);
      if (status == AccessStatus::kGranted) {
        // Only the untouched original (or a replayed copy of it) can ever be
        // granted once — and only with the genuine MAC input.
        EXPECT_EQ(mutated, base_wire);
      }
    } catch (const WireError&) {
    }
  }
}

TEST(MalformedInputFuzz, FieldMutationsAreBadMac) {
  VaultConfig vc;
  KeyVault vault(vc);
  crypto::Drbg rng(24);
  const SessionKey key = random_key(rng);
  ASSERT_TRUE(vault.install(12, key, 0.0));
  const AccessRequest base = make_access_request(12, 0, 5, nonce_from(5), {1, 2, 3}, key);

  AccessRequest tampered = base;
  tampered.payload[0] ^= 1;  // payload flip: MAC no longer covers it
  EXPECT_EQ(authorize(vault, tampered, 0.5), AccessStatus::kBadMac);

  tampered = base;
  tampered.counter += 1;  // counter advance without re-MAC
  EXPECT_EQ(authorize(vault, tampered, 0.5), AccessStatus::kBadMac);

  tampered = base;
  tampered.mac[0] ^= 1;  // direct MAC corruption
  EXPECT_EQ(authorize(vault, tampered, 0.5), AccessStatus::kBadMac);
}

// --- key vault lifecycle ---

TEST(KeyVaultTest, GrantRoundTrip) {
  VaultConfig vc;
  KeyVault vault(vc);
  crypto::Drbg rng(31);
  ASSERT_TRUE(vault.install(1, random_key(rng), 0.0));
  const AccessRequest req = client_request(vault, 1, 1, 0.0);
  SessionKey grant_key{};
  EXPECT_EQ(authorize(vault, req, 0.1, &grant_key), AccessStatus::kGranted);
  EXPECT_EQ(grant_key, vault.current_key(1, 0.1).value());
  const AccessRequest unknown =
      make_access_request(999, 0, 1, nonce_from(1), {}, random_key(rng));
  EXPECT_EQ(authorize(vault, unknown, 0.1), AccessStatus::kUnknownSession);
}

TEST(KeyVaultTest, TtlExpiryExactlyAtBoundary) {
  VaultConfig vc;
  vc.ttl_s = 10.0;
  crypto::Drbg rng(32);

  {
    KeyVault vault(vc);
    ASSERT_TRUE(vault.install(1, random_key(rng), 0.0));
    // One tick before the boundary: still valid.
    EXPECT_EQ(authorize(vault, client_request(vault, 1, 1, 9.999), 9.999),
              AccessStatus::kGranted);
  }
  {
    KeyVault vault(vc);
    ASSERT_TRUE(vault.install(1, random_key(rng), 0.0));
    // Exactly at install + ttl: expired (valid while now < expiry).
    const AccessRequest req = client_request(vault, 1, 1, 9.0);
    EXPECT_EQ(authorize(vault, req, 10.0), AccessStatus::kExpired);
    EXPECT_EQ(vault.stats().ttl_evictions, 1u);
    // The tombstone was reaped: a second probe sees no session at all.
    EXPECT_EQ(authorize(vault, req, 10.0), AccessStatus::kUnknownSession);
  }
}

TEST(KeyVaultTest, RevokeThenAccess) {
  VaultConfig vc;
  KeyVault vault(vc);
  crypto::Drbg rng(33);
  ASSERT_TRUE(vault.install(4, random_key(rng), 0.0));
  const AccessRequest req = client_request(vault, 4, 1, 0.0);
  ASSERT_TRUE(vault.revoke(4));
  EXPECT_EQ(authorize(vault, req, 0.1), AccessStatus::kRevoked);
  // Revoked sessions cannot rotate back to life.
  EXPECT_FALSE(vault.rotate(4, 0.1).has_value());
  EXPECT_FALSE(vault.revoke(999));  // absent
}

TEST(KeyVaultTest, RotationInvalidatesOldEpoch) {
  VaultConfig vc;
  KeyVault vault(vc);
  crypto::Drbg rng(34);
  const SessionKey key0 = random_key(rng);
  ASSERT_TRUE(vault.install(9, key0, 0.0));

  // A request MACed under epoch 0, replayed after rotation.
  const AccessRequest old_epoch_req = client_request(vault, 9, 1, 0.0);
  const auto new_epoch = vault.rotate(9, 1.0);
  ASSERT_TRUE(new_epoch.has_value());
  EXPECT_EQ(*new_epoch, 1u);
  EXPECT_EQ(authorize(vault, old_epoch_req, 1.1), AccessStatus::kStaleEpoch);

  // Old key + new epoch number: the epoch check passes, the MAC must not.
  const AccessRequest old_key_req =
      make_access_request(9, 1, 2, nonce_from(2), {0xD0, 0x0F}, key0);
  EXPECT_EQ(authorize(vault, old_key_req, 1.1), AccessStatus::kBadMac);

  // The client re-derives the same epoch-1 key with the shared schedule.
  const SessionKey key1 = derive_rotated_key(key0, 9, 1);
  EXPECT_EQ(key1, vault.current_key(9, 1.1).value());
  EXPECT_NE(key1, key0);
  const AccessRequest fresh =
      make_access_request(9, 1, 2, nonce_from(2), {0xD0, 0x0F}, key1);
  EXPECT_EQ(authorize(vault, fresh, 1.2), AccessStatus::kGranted);
}

TEST(KeyVaultTest, RotationResetsReplayWindow) {
  VaultConfig vc;
  KeyVault vault(vc);
  crypto::Drbg rng(35);
  ASSERT_TRUE(vault.install(2, random_key(rng), 0.0));
  EXPECT_EQ(authorize(vault, client_request(vault, 2, 5, 0.0), 0.0), AccessStatus::kGranted);
  EXPECT_EQ(authorize(vault, client_request(vault, 2, 5, 0.0), 0.0), AccessStatus::kReplay);
  ASSERT_TRUE(vault.rotate(2, 0.5).has_value());
  // Same counter value is fresh again in the new epoch (new key, new window).
  EXPECT_EQ(authorize(vault, client_request(vault, 2, 5, 0.5), 0.5), AccessStatus::kGranted);
}

TEST(KeyVaultTest, ReplayAndWindowAging) {
  VaultConfig vc;
  vc.replay_window_bits = 64;
  KeyVault vault(vc);
  crypto::Drbg rng(36);
  ASSERT_TRUE(vault.install(3, random_key(rng), 0.0));
  EXPECT_EQ(authorize(vault, client_request(vault, 3, 100, 0.0), 0.0), AccessStatus::kGranted);
  EXPECT_EQ(authorize(vault, client_request(vault, 3, 60, 0.0), 0.0),
            AccessStatus::kGranted);  // out of order, inside the window
  EXPECT_EQ(authorize(vault, client_request(vault, 3, 60, 0.0), 0.0), AccessStatus::kReplay);
  EXPECT_EQ(authorize(vault, client_request(vault, 3, 36, 0.0), 0.0),
            AccessStatus::kReplay);  // age 64 == window width: off the edge
}

TEST(KeyVaultTest, LruEvictionUnderCapacityPressure) {
  VaultConfig vc;
  vc.shards = 1;  // single shard so capacity pressure is deterministic
  vc.capacity = 4;
  KeyVault vault(vc);
  crypto::Drbg rng(37);
  for (std::uint64_t id = 1; id <= 4; ++id) ASSERT_TRUE(vault.install(id, random_key(rng), 0.0));
  // Touch session 1 so session 2 becomes the least recently used.
  EXPECT_EQ(authorize(vault, client_request(vault, 1, 1, 0.0), 0.0), AccessStatus::kGranted);
  ASSERT_TRUE(vault.install(5, random_key(rng), 0.0));
  EXPECT_EQ(vault.stats().lru_evictions, 1u);
  EXPECT_EQ(vault.size(), 4u);
  EXPECT_EQ(authorize(vault, client_request(vault, 5, 1, 0.0), 0.0), AccessStatus::kGranted);
  EXPECT_EQ(authorize(vault, client_request(vault, 1, 2, 0.0), 0.0), AccessStatus::kGranted);
  // Session 2 is gone; building a request for it needs the stashed key.
  EXPECT_FALSE(vault.current_key(2, 0.0).has_value());
}

TEST(KeyVaultTest, LruEvictionRacingRevocationNeverResurrects) {
  // Revocation tombstones live in the same LRU as real entries, so capacity
  // churn can evict one. The safety contract under that race: a revoked
  // session answers kRevoked while its tombstone survives, kUnknownSession
  // once the tombstone ages out — and NEVER kGranted, from any interleaving.
  VaultConfig vc;
  vc.shards = 1;  // one shard: revoker and churner collide on the same LRU
  vc.capacity = 24;
  KeyVault vault(vc);
  crypto::Drbg rng(53);

  constexpr std::uint64_t kVictims = 8;
  std::vector<SessionKey> victim_keys;
  for (std::uint64_t id = 0; id < kVictims; ++id) {
    victim_keys.push_back(random_key(rng));
    ASSERT_TRUE(vault.install(id, victim_keys.back(), 0.0));
  }

  std::atomic<bool> stop{false};
  std::thread revoker([&] {
    for (int round = 0; round < 50; ++round)
      for (std::uint64_t id = 0; id < kVictims; ++id) vault.revoke(id);
  });
  std::thread churner([&] {
    // Fresh installs flood the shard, LRU-evicting whatever is coldest —
    // victims and tombstones alike.
    crypto::Drbg churn_rng(54);
    for (std::uint64_t id = 1000; !stop.load(); ++id)
      vault.install(id, random_key(churn_rng), 0.0);
  });
  std::thread prober([&] {
    // Races both writers; outcomes mid-race are timing-dependent (a grant
    // before the first revoke lands is legitimate) — the value of this
    // thread is exercising authorize against concurrent revoke+evict.
    for (int round = 0; round < 200; ++round)
      for (std::uint64_t id = 0; id < kVictims; ++id) {
        const AccessRequest req = make_access_request(
            id, 0, static_cast<std::uint64_t>(round) + 2, nonce_from(id), {}, victim_keys[id]);
        (void)vault.authorize(req, req.mac_input(), 0.0, nullptr);
      }
  });
  revoker.join();  // all revocations are in before we stop churning...
  // (the prober keeps racing the churner for the rest of its rounds)
  prober.join();
  stop.store(true);
  churner.join();

  // With every revoke landed, a serial sweep must be airtight:
  for (std::uint64_t id = 0; id < kVictims; ++id) {
    const AccessRequest req =
        make_access_request(id, 0, 1000, nonce_from(id), {}, victim_keys[id]);
    const AccessStatus status = vault.authorize(req, req.mac_input(), 0.0, nullptr);
    EXPECT_TRUE(status == AccessStatus::kRevoked || status == AccessStatus::kUnknownSession)
        << "session " << id << " resolved to " << access_status_name(status);
  }
}

TEST(KeyVaultTest, ShardingSpreadsSessions) {
  VaultConfig vc;
  vc.shards = 8;
  vc.capacity = 800;
  KeyVault vault(vc);
  crypto::Drbg rng(38);
  for (std::uint64_t id = 0; id < 256; ++id) ASSERT_TRUE(vault.install(id, random_key(rng), 0.0));
  EXPECT_EQ(vault.size(), 256u);
  EXPECT_EQ(vault.shards(), 8u);
  // With splitmix64 spreading, no shard should be starved (capacity 100
  // per shard, 256 sessions → expected 32 each; zero lru evictions proves
  // no shard overflowed).
  EXPECT_EQ(vault.stats().lru_evictions, 0u);
}

TEST(KeyVaultTest, ShardCountRoundsUpToPowerOfTwo) {
  // Routing is mask-based, so the constructor rounds shards UP to a power
  // of two (documented in key_vault.hpp).
  for (const auto& [requested, expected] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {31, 32}}) {
    VaultConfig vc;
    vc.shards = requested;
    vc.capacity = 1024;
    KeyVault vault(vc);
    EXPECT_EQ(vault.shards(), expected) << "requested " << requested;
    EXPECT_EQ(vault.shards() & (vault.shards() - 1), 0u) << "not a power of two";
  }
}

TEST(KeyVaultTest, WheelPurgeReclaimsUntouchedExpiredSessions) {
  VaultConfig vc;
  vc.shards = 4;
  vc.capacity = 400;
  vc.ttl_s = 10.0;
  KeyVault vault(vc);
  crypto::Drbg rng(45);
  for (std::uint64_t id = 0; id < 100; ++id)
    ASSERT_TRUE(vault.install(id, random_key(rng), 0.0));
  ASSERT_EQ(vault.stats().resident_entries, 100u);

  // Not yet expired: the sweep reclaims nothing and leaks nothing.
  EXPECT_EQ(vault.purge_expired(9.9), 0u);
  EXPECT_EQ(vault.stats().resident_entries, 100u);

  // This is the stale-stats gap the sweep closes: the sessions expired but
  // were never touched, so before the sweep nothing shows in ttl_evictions.
  EXPECT_EQ(vault.stats().ttl_evictions, 0u);
  EXPECT_EQ(vault.purge_expired(10.5), 100u);
  const VaultStats stats = vault.stats();
  EXPECT_EQ(stats.purged_expired, 100u);
  EXPECT_EQ(stats.ttl_evictions, 100u);  // sweep reclaims count as TTL evictions
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(vault.size(), 0u);

  // Idempotent: a second sweep finds nothing.
  EXPECT_EQ(vault.purge_expired(11.0), 0u);
}

TEST(KeyVaultTest, PurgeAfterFortyHourIdleGapReclaimsExactlyTheExpired) {
  // 40 h is 14.4M wheel ticks, just short of the 64^4-tick span jump, so the
  // sweep takes the idle-gap skip path.
  constexpr double kNow = 40.0 * 3600.0;
  VaultConfig vc;
  vc.shards = 8;
  vc.capacity = 256;
  vc.ttl_s = 3600.0;
  KeyVault vault(vc);
  crypto::Drbg rng(47);
  for (std::uint64_t id = 0; id < 32; ++id)  // expired 39 h before the sweep
    ASSERT_TRUE(vault.install(id, random_key(rng), 0.0));
  for (std::uint64_t id = 32; id < 48; ++id)  // expire exactly at the sweep
    ASSERT_TRUE(vault.install(id, random_key(rng), kNow - vc.ttl_s));
  for (std::uint64_t id = 48; id < 64; ++id)  // expire one second after it
    ASSERT_TRUE(vault.install(id, random_key(rng), kNow + 1.0 - vc.ttl_s));

  EXPECT_EQ(vault.purge_expired(kNow), 48u);
  EXPECT_EQ(vault.stats().resident_entries, 16u);
  for (std::uint64_t id = 0; id < 64; ++id)
    EXPECT_EQ(vault.current_key(id, kNow).has_value(), id >= 48) << "session " << id;
  EXPECT_EQ(vault.purge_expired(kNow + 1.0), 16u);
  EXPECT_EQ(vault.stats().resident_entries, 0u);
}

TEST(KeyVaultTest, RotateReArmsTheWheelSoPurgeHonorsTheNewDeadline) {
  VaultConfig vc;
  vc.shards = 1;
  vc.capacity = 8;
  vc.ttl_s = 10.0;
  KeyVault vault(vc);
  crypto::Drbg rng(46);
  ASSERT_TRUE(vault.install(7, random_key(rng), 0.0));
  ASSERT_TRUE(vault.rotate(7, 8.0).has_value());  // deadline moves to 18.0

  // The original arm (t=10) fires but the entry is live — must survive.
  EXPECT_EQ(vault.purge_expired(12.0), 0u);
  EXPECT_EQ(vault.stats().resident_entries, 1u);
  // The re-arm fires after the rotated deadline.
  EXPECT_EQ(vault.purge_expired(18.5), 1u);
  EXPECT_EQ(vault.stats().resident_entries, 0u);
}

TEST(KeyVaultTest, ResidentEntriesGaugeTracksLifecycle) {
  VaultConfig vc;
  vc.shards = 1;
  vc.capacity = 4;
  vc.ttl_s = 100.0;
  KeyVault vault(vc);
  crypto::Drbg rng(47);
  for (std::uint64_t id = 0; id < 4; ++id)
    ASSERT_TRUE(vault.install(id, random_key(rng), 0.0));
  EXPECT_EQ(vault.stats().resident_entries, 4u);

  // LRU eviction replaces, net resident unchanged.
  ASSERT_TRUE(vault.install(99, random_key(rng), 1.0));
  EXPECT_EQ(vault.stats().resident_entries, 4u);
  EXPECT_EQ(vault.stats().lru_evictions, 1u);

  // Lazy on-access reap decrements the gauge too.
  const AccessRequest req = client_request(vault, 99, 1, 1.0);
  EXPECT_EQ(authorize(vault, req, 101.5), AccessStatus::kExpired);
  EXPECT_EQ(vault.stats().resident_entries, 3u);

  vault.clear();
  EXPECT_EQ(vault.stats().resident_entries, 0u);
}

// --- optimistic-vs-classic and FlatMap-vs-reference differentials ---

namespace {

/// Reference vault model: the seed implementation's semantics re-stated on
/// std::unordered_map + std::list, single shard. Drives the soak test —
/// the FlatMap-backed vault must match it outcome for outcome and byte for
/// byte in the exported snapshots.
struct RefVault {
  struct Entry {
    SessionKey key{};
    std::uint32_t epoch = 0;
    double expires_at_s = 0.0;
    bool revoked = false;
    ReplayWindow window;
    explicit Entry(std::size_t bits) : window(bits) {}
  };

  std::size_t capacity;
  double ttl_s;
  std::size_t window_bits;
  std::unordered_map<std::uint64_t, Entry> entries;
  std::list<std::uint64_t> lru;  // front = most recent

  RefVault(std::size_t cap, double ttl, std::size_t bits)
      : capacity(cap), ttl_s(ttl), window_bits(bits) {}

  void touch(std::uint64_t id) {
    lru.remove(id);
    lru.push_front(id);
  }

  bool reap_if_expired(std::uint64_t id, double now_s) {
    auto it = entries.find(id);
    if (it == entries.end() || now_s < it->second.expires_at_s) return false;
    lru.remove(id);
    entries.erase(it);
    return true;
  }

  bool install(std::uint64_t id, const SessionKey& key, double now_s) {
    auto it = entries.find(id);
    if (it == entries.end()) {
      if (entries.size() >= capacity && !lru.empty()) {
        entries.erase(lru.back());
        lru.pop_back();
      }
      it = entries.emplace(id, Entry(window_bits)).first;
      lru.push_front(id);
    } else {
      touch(id);
    }
    Entry& e = it->second;
    e.key = key;
    e.epoch = 0;
    e.expires_at_s = now_s + ttl_s;
    e.revoked = false;
    e.window.reset();
    return true;
  }

  std::optional<std::uint32_t> rotate(std::uint64_t id, double now_s) {
    if (reap_if_expired(id, now_s)) return std::nullopt;
    auto it = entries.find(id);
    if (it == entries.end() || it->second.revoked) return std::nullopt;
    Entry& e = it->second;
    e.epoch += 1;
    e.key = derive_rotated_key(e.key, id, e.epoch);
    e.expires_at_s = now_s + ttl_s;
    e.window.reset();
    touch(id);
    return e.epoch;
  }

  bool revoke(std::uint64_t id) {
    auto it = entries.find(id);
    if (it == entries.end()) return false;
    it->second.revoked = true;
    return true;
  }

  AccessStatus authorize(const AccessRequest& req, double now_s) {
    if (reap_if_expired(req.session_id, now_s)) return AccessStatus::kExpired;
    auto it = entries.find(req.session_id);
    if (it == entries.end()) return AccessStatus::kUnknownSession;
    Entry& e = it->second;
    if (e.revoked) return AccessStatus::kRevoked;
    if (req.epoch != e.epoch) return AccessStatus::kStaleEpoch;
    const Bytes mac_input = req.mac_input();
    const crypto::Digest256 expected = crypto::hmac_sha256(e.key, mac_input);
    crypto::Digest256 carried{};
    std::copy(req.mac.begin(), req.mac.end(), carried.begin());
    if (!crypto::digest_equal(expected, carried)) return AccessStatus::kBadMac;
    if (!e.window.check_and_update(req.counter)) return AccessStatus::kReplay;
    touch(req.session_id);
    return AccessStatus::kGranted;
  }

  std::size_t purge(double now_s) {
    std::size_t purged = 0;
    for (auto it = entries.begin(); it != entries.end();) {
      if (now_s >= it->second.expires_at_s) {
        lru.remove(it->first);
        it = entries.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    return purged;
  }

  std::vector<ExportedSession> export_all() const {
    std::vector<ExportedSession> out;
    for (const auto& [id, e] : entries) {
      ExportedSession s;
      s.session_id = id;
      s.key = e.key;
      s.epoch = e.epoch;
      s.expires_at_s = e.expires_at_s;
      s.revoked = e.revoked;
      s.window = e.window.snapshot();
      out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.session_id < b.session_id; });
    return out;
  }
};

void expect_exports_equal(std::vector<ExportedSession> got, std::vector<ExportedSession> want,
                          const char* label) {
  std::sort(got.begin(), got.end(),
            [](const auto& a, const auto& b) { return a.session_id < b.session_id; });
  std::sort(want.begin(), want.end(),
            [](const auto& a, const auto& b) { return a.session_id < b.session_id; });
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ExportedSession& g = got[i];
    const ExportedSession& w = want[i];
    ASSERT_EQ(g.session_id, w.session_id) << label << " [" << i << "]";
    EXPECT_EQ(g.key, w.key) << label << " id " << g.session_id;
    EXPECT_EQ(g.epoch, w.epoch) << label << " id " << g.session_id;
    EXPECT_EQ(g.expires_at_s, w.expires_at_s) << label << " id " << g.session_id;
    EXPECT_EQ(g.revoked, w.revoked) << label << " id " << g.session_id;
    EXPECT_EQ(g.window.any, w.window.any) << label << " id " << g.session_id;
    EXPECT_EQ(g.window.max_seen, w.window.max_seen) << label << " id " << g.session_id;
    EXPECT_EQ(g.window.words, w.window.words) << label << " id " << g.session_id;
  }
}

/// 100k seeded mixed ops against one vault configuration, asserting every
/// outcome matches the RefVault model; returns nothing — failures carry the
/// op index. Used with both the optimistic and classic verify paths.
void run_vault_soak(bool optimistic) {
  VaultConfig vc;
  vc.shards = 1;  // single shard: LRU/capacity behavior is deterministic
  vc.capacity = 64;
  vc.ttl_s = 50.0;
  vc.replay_window_bits = 128;
  vc.optimistic_verify = optimistic;
  KeyVault vault(vc);
  RefVault ref(vc.capacity, vc.ttl_s, vc.replay_window_bits);

  crypto::Drbg key_rng(48);
  Rng rng(0x50AC50ACu + (optimistic ? 1 : 0));
  double now = 0.0;
  constexpr std::uint64_t kIdSpace = 256;

  for (int op = 0; op < 100000; ++op) {
    now += rng.uniform() * 0.2;  // creep forward; TTLs lapse mid-run
    const std::uint64_t id = rng.uniform_u64(kIdSpace);
    switch (rng.uniform_u64(10)) {
      case 0:
      case 1: {  // install
        const SessionKey key = random_key(key_rng);
        ASSERT_EQ(vault.install(id, key, now), ref.install(id, key, now)) << "op " << op;
        break;
      }
      case 2: {  // rotate
        ASSERT_EQ(vault.rotate(id, now), ref.rotate(id, now)) << "op " << op;
        break;
      }
      case 3: {  // revoke
        ASSERT_EQ(vault.revoke(id), ref.revoke(id)) << "op " << op;
        break;
      }
      case 4: {  // TTL purge sweep
        ASSERT_EQ(vault.purge_expired(now), ref.purge(now)) << "op " << op;
        break;
      }
      default: {  // authorize: valid, replayed, stale-epoch or corrupted MAC
        auto it = ref.entries.find(id);
        AccessRequest req;
        if (it != ref.entries.end()) {
          const std::uint64_t roll = rng.uniform_u64(8);
          std::uint64_t counter = 1 + rng.uniform_u64(200);
          std::uint32_t epoch = it->second.epoch;
          if (roll == 6) epoch += 1;  // stale/future epoch
          req = make_access_request(id, epoch, counter, nonce_from(counter), {0xAB},
                                    it->second.key);
          if (roll == 7) req.mac[0] ^= 0x01;  // corrupted MAC
        } else {
          req = make_access_request(id, 0, 1, nonce_from(1), {0xAB}, random_key(key_rng));
        }
        const AccessStatus want = ref.authorize(req, now);
        ASSERT_EQ(vault.authorize(req, req.mac_input(), now, nullptr), want) << "op " << op;
        break;
      }
    }
    ASSERT_EQ(vault.size(), ref.entries.size()) << "op " << op;
  }

  // Byte-for-byte state audit at the end of the run.
  expect_exports_equal(vault.export_sessions([](std::uint64_t) { return true; }),
                       ref.export_all(), optimistic ? "optimistic" : "classic");
  EXPECT_EQ(vault.stats().locked_fallbacks, 0u);  // single-threaded: no races
}

}  // namespace

TEST(KeyVaultSoak, DifferentialAgainstReferenceModelClassic) { run_vault_soak(false); }

TEST(KeyVaultSoak, DifferentialAgainstReferenceModelOptimistic) { run_vault_soak(true); }

TEST(KeyVaultTest, OptimisticRotateRaceNeverDoubleGrantsACounter) {
  // Hammer one session from 4 authorizing threads (fresh counters plus
  // deliberate duplicates) while a rotator thread keeps bumping the epoch.
  // Invariants: (a) no (epoch, counter) pair is granted twice — the replay
  // window commit is atomic with the version re-validation; (b) every
  // grant's MAC was verified against the key of the epoch it was granted
  // in (the request was built under that key, so a cross-epoch commit
  // would have returned kBadMac/kStaleEpoch instead).
  VaultConfig vc;
  vc.shards = 1;
  vc.capacity = 8;
  vc.ttl_s = 1e6;
  vc.optimistic_verify = true;
  KeyVault vault(vc);
  crypto::Drbg rng(51);
  ASSERT_TRUE(vault.install(1, random_key(rng), 0.0));

  std::mutex mu;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> grants;  // (epoch, counter)
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng lrng(100 + static_cast<unsigned>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto key = vault.current_key(1, 0.0);
        const auto epoch = vault.current_epoch(1, 0.0);
        if (!key || !epoch) continue;
        // Mostly fresh counters; every 4th is a deliberate duplicate domain.
        const std::uint64_t counter = 1 + lrng.uniform_u64(64) * 4 + lrng.uniform_u64(2);
        const AccessRequest req = make_access_request(1, *epoch, counter,
                                                      nonce_from(counter), {}, *key);
        const Bytes mac_input = req.mac_input();
        if (vault.authorize(req, mac_input, 0.0, nullptr) == AccessStatus::kGranted) {
          std::lock_guard<std::mutex> lock(mu);
          grants.emplace_back(*epoch, counter);
        }
      }
    });
  }
  std::thread rotator([&] {
    for (int i = 0; i < 200; ++i) {
      vault.rotate(1, 0.0);
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  rotator.join();
  for (auto& w : workers) w.join();

  std::set<std::pair<std::uint32_t, std::uint64_t>> unique(grants.begin(), grants.end());
  EXPECT_EQ(unique.size(), grants.size()) << "a (epoch, counter) pair was granted twice";
  const VaultStats stats = vault.stats();
  EXPECT_EQ(stats.rotations, 200u);
  // The optimistic path actually ran (hash outside the lock at least once).
  EXPECT_GT(stats.optimistic_verifies, 0u);
}

// --- NIST battery on rotated keys (rotation must not degrade key quality) ---

TEST(KeyVaultTest, RotatedKeysPassNistBattery) {
  // Chain: 8 sessions × 16 rotation epochs, each epoch's 256-bit key
  // appended. If HKDF re-derivation biased any bit, the battery would trip.
  crypto::Drbg rng(39);
  BitVec chain;
  for (std::uint64_t session = 0; session < 8; ++session) {
    SessionKey key = random_key(rng);
    for (std::uint32_t epoch = 1; epoch <= 16; ++epoch) {
      key = derive_rotated_key(key, session, epoch);
      chain.append(BitVec::from_bytes(key, 8 * key.size()));
    }
  }
  ASSERT_EQ(chain.size(), 8u * 16u * 256u);
  EXPECT_GE(nist::monobit_test(chain), 0.01);
  EXPECT_GE(nist::block_frequency_test(chain), 0.01);
  EXPECT_GE(nist::runs_test(chain), 0.01);
  EXPECT_GE(nist::longest_run_test(chain), 0.01);
  EXPECT_GE(nist::cusum_test(chain), 0.01);
  EXPECT_GE(nist::approximate_entropy_test(chain), 0.01);
}

// --- access server end-to-end ---

namespace {

struct OutcomeLog {
  std::mutex mutex;
  std::vector<AccessOutcome> outcomes;

  AccessServer::Callback recorder() {
    return [this](const AccessOutcome& outcome) {
      std::lock_guard<std::mutex> lock(mutex);
      outcomes.push_back(outcome);
    };
  }
};

}  // namespace

TEST(AccessServerTest, GrantsValidRequestsAndMacsTheGrant) {
  AccessServerConfig config;
  config.threads = 2;
  crypto::Drbg rng(41);
  AccessServer server(config);
  const SessionKey key = random_key(rng);
  ASSERT_TRUE(server.vault().install(1, key, server.now_s()));

  OutcomeLog log;
  for (std::uint64_t c = 1; c <= 8; ++c) {
    const AccessRequest req = make_access_request(1, 0, c, nonce_from(c), {1}, key);
    ASSERT_TRUE(server.submit(c, /*tenant=*/1, req.serialize(), log.recorder()));
  }
  server.finish();

  ASSERT_EQ(log.outcomes.size(), 8u);
  for (const AccessOutcome& outcome : log.outcomes) {
    EXPECT_EQ(outcome.status, AccessStatus::kGranted);
    const AccessGrant grant = AccessGrant::parse(outcome.grant_wire);
    EXPECT_EQ(grant.status, AccessStatus::kGranted);
    EXPECT_TRUE(verify_access_grant(grant, key));
  }
  EXPECT_EQ(server.stats().granted, 8u);
}

TEST(AccessServerTest, SubmitPathBackgroundPurgeReclaimsExpiredSessions) {
  // Sessions that expire and are never addressed again must still be
  // reclaimed: the submit path CAS-claims vault_purge_interval_s and spawns
  // a one-shot sweep coroutine, regardless of which session the traffic
  // itself targets (here: malformed frames that never reach the vault).
  AccessServerConfig config;
  config.threads = 1;
  config.vault.ttl_s = 0.05;
  config.vault.capacity = 256;
  config.vault_purge_interval_s = 0.01;
  crypto::Drbg rng(44);
  AccessServer server(config);
  for (std::uint64_t id = 10; id < 60; ++id)
    ASSERT_TRUE(server.vault().install(id, random_key(rng), server.now_s()));
  ASSERT_EQ(server.vault().stats().resident_entries, 50u);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // every TTL lapses
  OutcomeLog log;
  for (std::uint64_t tag = 1; tag <= 100; ++tag) {
    ASSERT_TRUE(server.submit(tag, 1, Bytes{0xFF}, log.recorder()));
    if (server.vault().stats().purged_expired >= 50) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.finish();

  const VaultStats stats = server.vault().stats();
  EXPECT_EQ(stats.purged_expired, 50u);
  EXPECT_EQ(stats.ttl_evictions, 50u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(server.vault().size(), 0u);
}

TEST(AccessServerTest, MalformedAndUnknownAreTyped) {
  AccessServerConfig config;
  AccessServer server(config);
  OutcomeLog log;
  ASSERT_TRUE(server.submit(1, 1, Bytes{0xFF, 0x00, 0x01}, log.recorder()));
  crypto::Drbg rng(42);
  const AccessRequest req = make_access_request(99, 0, 1, nonce_from(1), {}, random_key(rng));
  ASSERT_TRUE(server.submit(2, 1, req.serialize(), log.recorder()));
  server.finish();

  ASSERT_EQ(log.outcomes.size(), 2u);
  for (const AccessOutcome& outcome : log.outcomes) {
    if (outcome.tag == 1)
      EXPECT_EQ(outcome.status, AccessStatus::kMalformed);
    else
      EXPECT_EQ(outcome.status, AccessStatus::kUnknownSession);
  }
  EXPECT_EQ(server.stats().malformed, 1u);
  EXPECT_EQ(server.stats().unknown_session, 1u);
}

TEST(AccessServerTest, RateLimitingIsPerTenantAndTyped) {
  AccessServerConfig config;
  config.admission.rate_per_s = 1e-6;  // effectively no refill in-test
  config.admission.burst = 2.0;
  crypto::Drbg rng(43);
  AccessServer server(config);
  const SessionKey key = random_key(rng);
  ASSERT_TRUE(server.vault().install(1, key, server.now_s()));

  OutcomeLog log;
  for (std::uint64_t c = 1; c <= 5; ++c) {
    const AccessRequest req = make_access_request(1, 0, c, nonce_from(c), {}, key);
    ASSERT_TRUE(server.submit(c, /*tenant=*/7, req.serialize(), log.recorder()));
  }
  server.finish();

  const AccessServerStats stats = server.stats();
  EXPECT_EQ(stats.granted, 2u);
  EXPECT_EQ(stats.rate_limited, 3u);
  int limited = 0;
  for (const AccessOutcome& outcome : log.outcomes)
    if (outcome.status == AccessStatus::kRateLimited) ++limited;
  EXPECT_EQ(limited, 3);
}

TEST(AccessServerTest, OverloadShedsInsteadOfBlocking) {
  AccessServerConfig config;
  config.threads = 1;
  config.queue_capacity = 1;
  config.io_wait_s = 0.05;  // worker holds each grant for 50 ms
  config.admission.burst = 1000.0;
  crypto::Drbg rng(44);
  AccessServer server(config);
  const SessionKey key = random_key(rng);
  ASSERT_TRUE(server.vault().install(1, key, server.now_s()));

  OutcomeLog log;
  for (std::uint64_t c = 1; c <= 10; ++c) {
    const AccessRequest req = make_access_request(1, 0, c, nonce_from(c), {}, key);
    ASSERT_TRUE(server.submit(c, 1, req.serialize(), log.recorder()));
  }
  server.finish();

  const AccessServerStats stats = server.stats();
  EXPECT_GE(stats.shed, 1u);  // the flood outran queue capacity
  EXPECT_EQ(stats.granted + stats.shed, 10u);
  EXPECT_EQ(log.outcomes.size(), 10u);  // every submit got exactly one callback
}

TEST(AccessServerTest, ConcurrentSoakCountsAreConsistent) {
  AccessServerConfig config;
  config.threads = 4;
  // No sheds in this test: the queue holds the full flood, so the ledger
  // below is exact. (Counters arrive out of order across producers — the
  // wide replay window keeps legitimate stragglers inside it.)
  config.queue_capacity = 512;
  config.admission.burst = 1e6;
  config.vault.shards = 4;
  config.vault.replay_window_bits = 512;
  crypto::Drbg rng(45);
  AccessServer server(config);

  constexpr std::uint64_t kSessions = 16;
  std::vector<SessionKey> keys;
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    keys.push_back(random_key(rng));
    ASSERT_TRUE(server.vault().install(id, keys.back(), server.now_s()));
  }

  // 4 producer threads × 64 unique requests each; every 4th frame is also
  // submitted a second time, byte for byte. Exactly one copy of each
  // duplicated frame may be granted — which copy wins is a scheduling race,
  // but the *count* is deterministic.
  OutcomeLog log;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t session = (static_cast<std::uint64_t>(p) * 64 + i) % kSessions;
        const std::uint64_t counter = 1 + static_cast<std::uint64_t>(p) * 64 + i;
        const AccessRequest req = make_access_request(session, 0, counter,
                                                      nonce_from(counter), {}, keys[session]);
        const Bytes wire = req.serialize();
        ASSERT_TRUE(server.submit(counter, session, wire, log.recorder()));
        if (i % 4 == 0) {
          ASSERT_TRUE(server.submit(100000 + counter, session, wire, log.recorder()));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.finish();

  // 256 unique frames, 64 duplicated: every unique frame granted exactly
  // once, every duplicate pair contributes exactly one replay rejection —
  // i.e. zero double-grants.
  const AccessServerStats stats = server.stats();
  EXPECT_EQ(stats.granted, 4u * 64u);
  EXPECT_EQ(stats.replay_rejected, 4u * 16u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rate_limited, 0u);
  EXPECT_EQ(stats.submitted,
            stats.granted + stats.replay_rejected + stats.shed + stats.rate_limited);
  EXPECT_EQ(log.outcomes.size(), stats.submitted);
}

namespace {

std::uint64_t outcome_sum(const AccessServerStats& s) {
  return s.granted + s.unknown_session + s.expired + s.revoked + s.stale_epoch + s.bad_mac +
         s.replay_rejected + s.rate_limited + s.shed + s.malformed;
}

}  // namespace

TEST(AccessServerTest, StatsSnapshotIsConsistentMidFlight) {
  // The counters move under one lock, so EVERY snapshot — taken while
  // submitters and workers race — satisfies the exact invariant
  // submitted == sum(outcomes) + in_flight. With torn multi-atomic reads
  // this held only at quiescence; now it holds mid-flight.
  AccessServerConfig config;
  config.threads = 4;
  config.queue_capacity = 512;
  config.io_wait_s = 0.0005;  // keeps a real in-flight population visible
  config.admission.burst = 1e6;
  config.vault.replay_window_bits = 512;
  crypto::Drbg rng(61);
  AccessServer server(config);

  constexpr std::uint64_t kSessions = 8;
  std::vector<SessionKey> keys;
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    keys.push_back(random_key(rng));
    ASSERT_TRUE(server.vault().install(id, keys.back(), server.now_s()));
  }

  std::atomic<bool> done{false};
  std::uint64_t snapshots = 0, inflight_seen = 0, suspended_seen = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      const AccessServerStats snap = server.stats();
      ASSERT_EQ(snap.submitted, outcome_sum(snap) + snap.in_flight)
          << "torn snapshot: submitted=" << snap.submitted << " sum=" << outcome_sum(snap)
          << " in_flight=" << snap.in_flight;
      // The suspended counter rides the same lock: a request parked on
      // actuation is always also in flight, in every snapshot.
      ASSERT_LE(snap.suspended, snap.in_flight)
          << "torn snapshot: suspended=" << snap.suspended
          << " in_flight=" << snap.in_flight;
      ASSERT_LE(snap.suspended, snap.peak_suspended);
      ASSERT_LE(snap.in_flight, snap.peak_in_flight);
      ++snapshots;
      if (snap.in_flight > 0) ++inflight_seen;
      if (snap.suspended > 0) ++suspended_seen;
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < 100; ++i) {
        const std::uint64_t session = (static_cast<std::uint64_t>(p) * 100 + i) % kSessions;
        const std::uint64_t counter = 1 + static_cast<std::uint64_t>(p) * 100 + i;
        const AccessRequest req = make_access_request(session, 0, counter, nonce_from(counter),
                                                      {}, keys[session]);
        ASSERT_TRUE(server.submit(counter, session, req.serialize(), nullptr));
      }
    });
  }
  for (auto& t : producers) t.join();
  server.finish();
  done.store(true);
  sampler.join();

  const AccessServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.submitted, 400u);
  EXPECT_EQ(final_stats.in_flight, 0u);  // finish() drained everything
  EXPECT_EQ(final_stats.suspended, 0u);  // nothing left parked either
  EXPECT_EQ(final_stats.submitted, outcome_sum(final_stats));
  EXPECT_GE(final_stats.peak_in_flight, final_stats.peak_suspended);
  EXPECT_GT(snapshots, 0u);
  // Not asserted (scheduling-dependent), but nearly always nonzero — the
  // sampler genuinely observes requests mid-flight:
  (void)inflight_seen;
  (void)suspended_seen;
}

TEST(AccessServerTest, SuspendedGrantsOverlapBeyondThreadCount) {
  // The coroutine refactor's headline property: grants parked on actuation
  // I/O hold no worker, so the in-flight population is bounded by the
  // admission window, not the thread count. 64 grants with 30 ms actuation
  // on ONE thread must overlap (wall time far under the serial 1.92 s) and
  // the server must report them parked concurrently.
  AccessServerConfig config;
  config.threads = 1;
  config.queue_capacity = 256;
  config.io_wait_s = 0.030;
  config.admission.burst = 1e6;
  config.vault.replay_window_bits = 512;
  crypto::Drbg rng(62);
  AccessServer server(config);
  const SessionKey key = random_key(rng);
  ASSERT_TRUE(server.vault().install(1, key, server.now_s()));

  OutcomeLog log;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t c = 1; c <= 64; ++c) {
    const AccessRequest req = make_access_request(1, 0, c, nonce_from(c), {}, key);
    ASSERT_TRUE(server.submit(c, 1, req.serialize(), log.recorder()));
  }
  server.finish();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const AccessServerStats stats = server.stats();
  EXPECT_EQ(stats.granted, 64u);
  EXPECT_EQ(stats.shed, 0u);
  // Concurrency evidence from both axes: wall clock (64 x 30 ms serial
  // would be ~1.9 s) and the server's own high-water mark.
  EXPECT_LT(elapsed, 1.0);
  EXPECT_GE(stats.peak_suspended, 8u);
  EXPECT_EQ(stats.suspended, 0u);

  // suspended_s is reported separately: the park shows up there, NOT in
  // queue_wait_s (satellite fix — queue_wait_s used to absorb worker-held
  // time under load) and not in verify_s.
  for (const AccessOutcome& outcome : log.outcomes) {
    ASSERT_EQ(outcome.status, AccessStatus::kGranted);
    EXPECT_GE(outcome.suspended_s, 0.029);
    EXPECT_LT(outcome.verify_s, 0.020);
  }
}

// --- pairing engine → vault handoff ---

TEST(AccessServerTest, PairingHandoffFeedsTheVault) {
  const core::WaveKeyConfig wk;
  const core::SeedQuantizer quantizer = core::SeedQuantizer::from_normal(wk);

  AccessServerConfig server_config;
  server_config.threads = 2;
  AccessServer server(server_config);

  core::PairingEngineConfig engine_config;
  engine_config.threads = 2;
  engine_config.session.tau_s = wk.tau_s;
  engine_config.session.gesture_window_s = wk.gesture_window_s;
  engine_config.session.params.key_bits = wk.key_bits;
  engine_config.session.params.eta = wk.eta;
  // Streaming handoff: keys land in the vault the moment pairing succeeds.
  engine_config.on_established = [&](std::uint64_t id, const BitVec& key) {
    server.vault().install(id, key, server.now_s());
  };

  core::PairingEngine engine(quantizer, engine_config);
  for (std::uint64_t id = 0; id < 4; ++id) {
    Rng rng(id * 6151 + 29);
    core::PairingRequest req;
    req.id = id;
    req.rng_seed = id * 7919 + 17;
    req.mobile_latent.resize(quantizer.latent_dim());
    req.server_latent.resize(quantizer.latent_dim());
    for (std::size_t d = 0; d < quantizer.latent_dim(); ++d) {
      req.mobile_latent[d] = rng.normal();
      req.server_latent[d] = req.mobile_latent[d] + rng.normal(0.0, 0.03);
    }
    ASSERT_TRUE(engine.submit(std::move(req)));
  }
  const std::vector<core::PairingReport> reports = engine.finish();

  OutcomeLog log;
  std::uint64_t expected_grants = 0;
  for (const core::PairingReport& report : reports) {
    ASSERT_TRUE(report.success);
    // Client side: the mobile's established key authenticates its requests.
    const std::vector<std::uint8_t> key_bytes = report.key.slice(0, 256).to_bytes();
    SessionKey key{};
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    const AccessRequest req = make_access_request(report.id, 0, 1, nonce_from(1), {}, key);
    ASSERT_TRUE(server.submit(report.id, 1, req.serialize(), log.recorder()));
    ++expected_grants;
  }
  server.finish();
  EXPECT_EQ(server.stats().granted, expected_grants);
  for (const AccessOutcome& outcome : log.outcomes)
    EXPECT_EQ(outcome.status, AccessStatus::kGranted);
}
