// Tests of core::PairingEngine — concurrent key establishment from a bounded
// queue — plus the end-to-end determinism contract of the parallel training
// path: a pool of size 1 must train bit-identical weights to the serial
// path, and a fixed pool size must be reproducible run to run.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/encoders.hpp"
#include "core/pairing_engine.hpp"
#include "core/seed_quantizer.hpp"
#include "crypto/drbg.hpp"
#include "numeric/rng.hpp"
#include "protocol/session.hpp"
#include "runtime/compute_pool.hpp"

using namespace wavekey;
using namespace wavekey::core;

namespace {

PairingRequest make_request(const SeedQuantizer& quantizer, std::uint64_t id) {
  Rng rng(id * 6151 + 29);
  PairingRequest req;
  req.id = id;
  req.rng_seed = id * 7919 + 17;
  req.mobile_latent.resize(quantizer.latent_dim());
  req.server_latent.resize(quantizer.latent_dim());
  for (std::size_t d = 0; d < quantizer.latent_dim(); ++d) {
    req.mobile_latent[d] = rng.normal();
    req.server_latent[d] = req.mobile_latent[d] + rng.normal(0.0, 0.02);
  }
  return req;
}

std::vector<PairingReport> run_batch(const SeedQuantizer& quantizer,
                                     const PairingEngineConfig& config, std::size_t sessions) {
  PairingEngine engine(quantizer, config);
  for (std::size_t i = 0; i < sessions; ++i)
    EXPECT_TRUE(engine.submit(make_request(quantizer, i)));
  return engine.finish();
}

}  // namespace

TEST(PairingEngine, ConcurrentSessionsAllEstablishKeys) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 4;
  config.queue_capacity = 8;
  const std::vector<PairingReport> reports = run_batch(quantizer, config, 12);

  ASSERT_EQ(reports.size(), 12u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].id, i);  // finish() sorts by request id
    EXPECT_TRUE(reports[i].success) << "session " << i << ": " << reports[i].error;
    EXPECT_EQ(reports[i].key.size(), wk.key_bits);
    EXPECT_FALSE(reports[i].tau_violation);
    EXPECT_LE(reports[i].critical_latency_s, wk.tau_s);
    EXPECT_GE(reports[i].queue_wait_s, 0.0);
    EXPECT_GT(reports[i].service_s, 0.0);
  }
}

TEST(PairingEngine, MatchesDirectKeyAgreement) {
  // The engine must be a pure scheduler: each session's key equals what a
  // direct single-threaded run_key_agreement produces from the same seeds.
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 1;
  const std::vector<PairingReport> reports = run_batch(quantizer, config, 4);

  for (const PairingReport& report : reports) {
    const PairingRequest req = make_request(quantizer, report.id);
    protocol::SessionConfig session = config.session;
    session.params.seed_bits = quantizer.seed_bits();
    crypto::Drbg mobile_rng(req.rng_seed ^ 0xAB1Eull);
    crypto::Drbg server_rng(req.rng_seed ^ 0x5E44ull);
    const protocol::SessionResult direct = protocol::run_key_agreement(
        session, quantizer.quantize(req.mobile_latent), quantizer.quantize(req.server_latent),
        mobile_rng, server_rng);
    ASSERT_TRUE(direct.success);
    ASSERT_TRUE(report.success);
    EXPECT_EQ(report.key.to_string(), direct.mobile_key.to_string());
  }
}

TEST(PairingEngine, DeterministicAcrossRunsAndThreadCounts) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig serial;
  serial.threads = 1;
  PairingEngineConfig wide;
  wide.threads = 4;
  const auto a = run_batch(quantizer, serial, 8);
  const auto b = run_batch(quantizer, wide, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].success, b[i].success);
    EXPECT_EQ(a[i].key.to_string(), b[i].key.to_string())
        << "keys must not depend on scheduling (session " << i << ")";
  }
}

TEST(PairingEngine, BadLatentLengthYieldsFailureReport) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 2;
  PairingEngine engine(quantizer, config);
  PairingRequest good = make_request(quantizer, 0);
  PairingRequest bad = make_request(quantizer, 1);
  bad.mobile_latent.resize(quantizer.latent_dim() + 3);  // wrong length
  EXPECT_TRUE(engine.submit(std::move(good)));
  EXPECT_TRUE(engine.submit(std::move(bad)));
  const auto reports = engine.finish();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].success);
  EXPECT_FALSE(reports[1].success);
  EXPECT_FALSE(reports[1].error.empty());
}

TEST(PairingEngine, TinyQueueStillCompletesEverySession) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 2;
  config.queue_capacity = 1;  // submit() must block, never drop
  const auto reports = run_batch(quantizer, config, 10);
  ASSERT_EQ(reports.size(), 10u);
  for (const auto& r : reports) EXPECT_TRUE(r.success) << r.error;
}

TEST(PairingEngine, SubmitAfterFinishIsRejected) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngine engine(quantizer, PairingEngineConfig{});
  engine.finish();
  EXPECT_FALSE(engine.submit(make_request(quantizer, 0)));
}

namespace {

// Trains a fresh encoder pair on a tiny corpus and returns the serialized
// weight bytes — the strictest possible equality witness.
std::string trained_weight_bytes(const WaveKeyDataset& dataset) {
  WaveKeyConfig wk;
  Rng rng(42);
  EncoderPair encoders(wk.latent_dim, rng);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 4;  // the tiny corpus must still fill whole minibatches
  encoders.train(dataset, tc);
  std::ostringstream os;
  encoders.save(os);
  return os.str();
}

}  // namespace

TEST(TrainingDeterminism, PoolSizeOneIsBitIdenticalToSerial) {
  DatasetConfig dc;
  dc.volunteers = 1;
  dc.devices = 1;
  dc.gestures_per_pair = 2;
  dc.windows_per_gesture = 4;
  dc.gesture_active_s = 8.0;
  const WaveKeyDataset dataset = WaveKeyDataset::generate(dc);
  ASSERT_GT(dataset.size(), 0u);

  const std::string serial = trained_weight_bytes(dataset);

  std::string pooled1;
  {
    runtime::ScopedComputePool pool(1);
    pooled1 = trained_weight_bytes(dataset);
  }
  EXPECT_EQ(serial, pooled1) << "pool size 1 must reproduce serial training bit for bit";

  // A fixed pool size must also be reproducible against itself: the chunked
  // reduction depends only on (input, pool size), never on scheduling. Pool
  // sizes 2, 3 and 4 exercise distinct chunk layouts over the GEMM-lowered
  // kernels.
  for (const std::size_t size : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    std::string pooled_a, pooled_b;
    {
      runtime::ScopedComputePool pool(size);
      pooled_a = trained_weight_bytes(dataset);
    }
    {
      runtime::ScopedComputePool pool(size);
      pooled_b = trained_weight_bytes(dataset);
    }
    EXPECT_EQ(pooled_a, pooled_b)
        << "pool size " << size << " must be reproducible run to run";
  }
}
