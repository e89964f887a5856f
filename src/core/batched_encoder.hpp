#pragma once

// Cross-session batched encoder service (DESIGN.md §10): the deadline-aware
// coalescing stage between core::PairingEngine workers and the IMU-En/RF-En
// networks. Each worker thread submits its session's raw sensor windows
// ([3, 200] IMU + [2, 400] RF) and blocks; the runtime::MicroBatcher
// coalesces concurrent submissions and one leader runs BOTH encoders over
// the whole batch through nn::BatchedInference (single GEMM per conv layer,
// weight matrices streamed once per batch).
//
// Accounting contract: the returned EncodedLatents carries (a) hold_s — the
// wall time this session spent parked in the coalescing stage waiting for
// co-batched work — and (b) this session's 1/B share of the measured batched
// forward wall time, separately for the mobile (IMU) and server (RF) side.
// The engine charges all of it into the session's virtual clock
// (pairing_engine.cpp), so batching amortizes compute but never hides
// latency from the tau budget: a max_hold_s that is too generous shows up
// as tau pressure, exactly like any other serving delay.
//
// Determinism: a batch of 1 routes through the serial Sequential::forward
// path bit-identically (nn/batched_infer.hpp); larger batches are
// deterministic given the batch composition. Coalescing itself is
// timing-dependent, which is why the service is OFF by default and never
// engaged by the serial establish_key paths unless explicitly installed.
//
// Thread-safety: encode() from any number of threads; close() idempotent,
// drains held sessions (the closer leads the final partial batch). Flushes
// are serialized internally — the wrapped Sequentials are externally
// synchronized (nn/sequential.hpp) and two batches can be in flight in the
// MicroBatcher (batch k+1 collects while batch k flushes).

#include <cstddef>
#include <mutex>
#include <vector>

#include "core/encoders.hpp"
#include "nn/batched_infer.hpp"
#include "runtime/micro_batcher.hpp"

namespace wavekey::core {

struct BatchedEncoderConfig {
  std::size_t max_batch = 16;  ///< dispatch as soon as this many sessions held
  double max_hold_s = 500e-6;  ///< dispatch when the oldest session waited this long
  std::size_t imu_channels = 3;
  std::size_t imu_length = 200;
  std::size_t rf_channels = 2;
  std::size_t rf_length = 400;
};

/// One session's share of a coalesced encoder dispatch.
struct EncodedLatents {
  std::vector<double> mobile;  ///< IMU-En latent (mobile side)
  std::vector<double> server;  ///< RF-En latent (server side)
  double hold_s = 0.0;         ///< time parked waiting for co-batched sessions
  double imu_forward_s = 0.0;  ///< 1/B share of the batched IMU forward
  double rf_forward_s = 0.0;   ///< 1/B share of the batched RF forward
  std::size_t batch_size = 0;  ///< sessions coalesced into this dispatch
  bool deadline_dispatch = false;  ///< dispatched on max_hold, not batch size
};

class BatchedEncoderService {
 public:
  /// Validates both encoder stacks for batched lowering up front (throws
  /// std::invalid_argument on an unsupported architecture). `encoders` is
  /// shared by reference and must outlive the service; it must not be
  /// retrained or pruned while the service is open.
  explicit BatchedEncoderService(EncoderPair& encoders, const BatchedEncoderConfig& config = {});
  ~BatchedEncoderService();

  BatchedEncoderService(const BatchedEncoderService&) = delete;
  BatchedEncoderService& operator=(const BatchedEncoderService&) = delete;

  /// Blocks until this session's latents return from a coalesced forward.
  /// The tensors are borrowed for the duration of the call only. Throws
  /// std::invalid_argument on a shape mismatch and std::runtime_error once
  /// the service is closed.
  EncodedLatents encode(const nn::Tensor& imu, const nn::Tensor& rf);

  /// Drains the currently held partial batch and fails future encodes.
  void close();

  runtime::MicroBatcherStats stats() const { return batcher_.stats(); }
  const BatchedEncoderConfig& config() const { return config_; }

 private:
  struct Item {
    const nn::Tensor* imu;
    const nn::Tensor* rf;
  };
  struct Out {
    std::vector<double> mobile, server;
    double imu_s = 0.0, rf_s = 0.0;
  };

  std::vector<Out> flush(std::vector<Item>& items);

  BatchedEncoderConfig config_;
  nn::BatchedInference imu_infer_;
  nn::BatchedInference rf_infer_;
  std::mutex flush_mutex_;  ///< serializes flushes over the shared Sequentials
  runtime::MicroBatcher<Item, Out> batcher_;
};

}  // namespace wavekey::core
