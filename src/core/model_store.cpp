#include "core/model_store.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "nn/layer.hpp"
#include "runtime/compute_pool.hpp"

namespace wavekey::core {
namespace {

constexpr char kMagic[] = "WKSYS1";

}  // namespace

void save_system(const WaveKeySystem& system, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_system: cannot open " + path);
  os.write(kMagic, sizeof(kMagic));
  // eta as micro-units to avoid float-text issues.
  nn::write_u64(os, static_cast<std::uint64_t>(system.config().eta * 1e6));
  const_cast<WaveKeySystem&>(system).encoders().save(os);
  system.quantizer().save(os);
}

std::optional<WaveKeySystem> load_system(const std::string& path, const WaveKeyConfig& config) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  try {
    char magic[sizeof(kMagic)];
    is.read(magic, sizeof(kMagic));
    if (!is || std::string(magic, sizeof(kMagic)) != std::string(kMagic, sizeof(kMagic)))
      return std::nullopt;
    WaveKeyConfig cfg = config;
    cfg.eta = static_cast<double>(nn::read_u64(is)) * 1e-6;

    Rng rng(0);
    EncoderPair encoders(cfg.latent_dim, rng);
    encoders.load(is);
    SeedQuantizer quantizer = SeedQuantizer::load(is);
    if (quantizer.latent_dim() != cfg.latent_dim || quantizer.num_bins() != cfg.quant_bins)
      return std::nullopt;

    WaveKeySystem system(std::move(encoders), cfg);
    system.set_quantizer(std::move(quantizer));
    return system;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

DatasetConfig default_dataset_config() {
  DatasetConfig dc;
  dc.volunteers = 6;
  dc.devices = 4;
  dc.gestures_per_pair = 48;
  dc.windows_per_gesture = 6;
  return dc;
}

TrainConfig default_train_config() {
  TrainConfig tc;
  tc.epochs = 25;
  return tc;
}

WaveKeySystem load_or_train(const std::string& path, const DatasetConfig& dataset_config,
                            const TrainConfig& train_config, const WaveKeyConfig& config,
                            bool verbose) {
  if (auto cached = load_system(path, config)) {
    if (verbose) std::fprintf(stderr, "[model] loaded cached system from %s\n", path.c_str());
    return std::move(*cached);
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (verbose) std::fprintf(stderr, "[model] generating dataset...\n");
  const WaveKeyDataset dataset = WaveKeyDataset::generate(dataset_config, config);
  if (verbose)
    std::fprintf(stderr, "[model] training on %zu samples (one-time; cached to %s)...\n",
                 dataset.size(), path.c_str());
  Rng rng(42);
  EncoderPair encoders(config.latent_dim, rng);
  {
    // WAVEKEY_TRAIN_THREADS=N parallelizes the batch dimension of training.
    // The chunked-reduction contract in src/nn keeps the result deterministic
    // for a fixed N, and N=1 is bit-identical to serial (DESIGN.md §7).
    std::unique_ptr<runtime::ScopedComputePool> scoped;
    if (const char* env = std::getenv("WAVEKEY_TRAIN_THREADS")) {
      const long threads = std::strtol(env, nullptr, 10);
      if (threads > 1)
        scoped = std::make_unique<runtime::ScopedComputePool>(
            static_cast<std::size_t>(threads));
    }
    encoders.train(dataset, train_config);
  }

  WaveKeySystem system(std::move(encoders), config);
  // Calibrate quantizer bins + eta on *held-out* sessions (same generator,
  // fresh seed): calibrating on the training set would let the overfit tail
  // distort eta (SVI-C2's procedure assumes the calibration data represents
  // deployment sessions).
  DatasetConfig held = dataset_config;
  held.seed = dataset_config.seed ^ 0x8E1D07ull;
  held.gestures_per_pair = std::max<std::size_t>(2, dataset_config.gestures_per_pair / 12);
  const WaveKeyDataset held_dataset = WaveKeyDataset::generate(held, config);
  const EtaCalibration cal = system.calibrate(held_dataset);
  if (verbose) {
    const auto t1 = std::chrono::steady_clock::now();
    std::fprintf(stderr, "[model] done in %.0f s; eta=%.4f (p99 mismatch), mean mismatch=%.4f\n",
                 std::chrono::duration<double>(t1 - t0).count(), cal.eta, cal.mean_mismatch);
  }
  save_system(system, path);
  return system;
}

}  // namespace wavekey::core
