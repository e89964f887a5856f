#include "core/pairing_engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <random>

#include "core/batched_encoder.hpp"
#include "crypto/drbg.hpp"
#include "numeric/rng.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/task.hpp"

namespace wavekey::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Job {
  PairingRequest request;
  Clock::time_point enqueued;
};

}  // namespace

struct PairingEngine::Impl {
  const SeedQuantizer& quantizer;
  PairingEngineConfig config;
  std::mutex reports_mutex;
  std::vector<PairingReport> reports;
  bool finished = false;
  // Declared after everything the lane coroutines touch; destroyed first.
  runtime::EventLoop loop;
  runtime::AsyncQueue<Job> queue;

  Impl(const SeedQuantizer& q, const PairingEngineConfig& c)
      : quantizer(q), config(c), loop(c.threads), queue(loop, c.queue_capacity) {
    // The protocol's seed length must match what the quantizer emits.
    config.session.params.seed_bits = quantizer.seed_bits();
    // One lane per loop thread, each servicing one session at a time, so
    // `threads` is the number of sessions in service at once.
    for (std::size_t t = 0; t < loop.threads(); ++t) loop.spawn(lane());
  }

  /// Pops jobs until the queue is closed and drained.
  runtime::Task<void> lane() {
    while (std::optional<Job> job = co_await queue.pop()) co_await service(std::move(*job));
  }

  runtime::Task<void> service(Job job) {
    const Clock::time_point start = Clock::now();
    PairingReport report;
    report.id = job.request.id;
    report.queue_wait_s = std::chrono::duration<double>(start - job.enqueued).count();
    try {
      protocol::SessionConfig session = config.session;

      std::vector<double> mobile_latent = std::move(job.request.mobile_latent);
      std::vector<double> server_latent = std::move(job.request.server_latent);
      if (config.encoder_service != nullptr && job.request.imu_input.size() > 0 &&
          job.request.rf_input.size() > 0) {
        // Cross-session batched encode: this lane blocks its loop thread in
        // the coalescing stage until its batch dispatches. Both the hold
        // time and this session's 1/B share of the batched forwards are
        // charged into the virtual session clock — batching amortizes
        // compute but never hides latency from the tau budget (DESIGN.md
        // §10.2).
        const EncodedLatents enc =
            config.encoder_service->encode(job.request.imu_input, job.request.rf_input);
        mobile_latent = enc.mobile;
        server_latent = enc.server;
        if (config.synthetic_residual_sigma >= 0.0) {
          Rng noise_rng(job.request.rng_seed ^ 0x51D0BA7C4ull);
          std::normal_distribution<double> gauss(0.0, config.synthetic_residual_sigma);
          server_latent = mobile_latent;
          for (double& v : server_latent) v += gauss(noise_rng);
        }
        session.mobile_compute_s += enc.hold_s + enc.imu_forward_s;
        session.server_compute_s += enc.rf_forward_s;
        report.encode_hold_s = enc.hold_s;
        report.encode_s = enc.imu_forward_s + enc.rf_forward_s;
        report.encode_batch = enc.batch_size;
      }

      // Quantization is real per-session compute: charge its measured
      // wall-clock cost into the virtual session clock so contention between
      // concurrent sessions counts against the tau window.
      const Clock::time_point q0 = Clock::now();
      const BitVec mobile_seed = quantizer.quantize(mobile_latent);
      const double mobile_quant_s = seconds_since(q0);
      const Clock::time_point q1 = Clock::now();
      const BitVec server_seed = quantizer.quantize(server_latent);
      const double server_quant_s = seconds_since(q1);

      session.mobile_compute_s += mobile_quant_s;
      session.server_compute_s += server_quant_s;

      // Radio I/O emulation: the exchange spends real time waiting on the
      // air interface (BLE connection intervals). The lane suspends into the
      // timer wheel, freeing its loop thread for other lanes' compute.
      co_await loop.sleep_for(config.radio_wait_s);

      crypto::Drbg mobile_rng(job.request.rng_seed ^ 0xAB1Eull);
      crypto::Drbg server_rng(job.request.rng_seed ^ 0x5E44ull);
      const protocol::SessionResult result = protocol::run_key_agreement(
          session, mobile_seed, server_seed, mobile_rng, server_rng);

      report.success = result.success;
      report.failure = result.failure;
      report.key = result.mobile_key;
      report.elapsed_s = result.elapsed_s;
      report.critical_latency_s = result.critical_arrival_s - session.gesture_window_s;
      report.tau_violation = result.success && report.critical_latency_s > session.tau_s;
      if (report.success && config.on_established)
        config.on_established(report.id, report.key);
    } catch (const std::exception& e) {
      report.success = false;
      report.failure = protocol::FailureReason::kMalformedMessage;
      report.error = e.what();
    }
    report.service_s = seconds_since(start);
    std::lock_guard<std::mutex> lock(reports_mutex);
    reports.push_back(std::move(report));
  }

  std::vector<PairingReport> finish() {
    if (!finished) {
      finished = true;
      queue.close();
      loop.close();
      loop.drain();
    }
    std::lock_guard<std::mutex> lock(reports_mutex);
    std::vector<PairingReport> out = reports;
    std::sort(out.begin(), out.end(),
              [](const PairingReport& a, const PairingReport& b) { return a.id < b.id; });
    return out;
  }
};

PairingEngine::PairingEngine(const SeedQuantizer& quantizer, const PairingEngineConfig& config)
    : impl_(new Impl(quantizer, config)) {}

PairingEngine::~PairingEngine() {
  impl_->finish();  // close + drain before the loop is torn down
  delete impl_;
}

bool PairingEngine::submit(PairingRequest request) {
  return impl_->queue.push({std::move(request), Clock::now()});
}

std::vector<PairingReport> PairingEngine::finish() { return impl_->finish(); }

std::size_t PairingEngine::threads() const { return impl_->loop.threads(); }

}  // namespace wavekey::core
