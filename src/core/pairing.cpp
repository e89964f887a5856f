#include "core/pairing.hpp"

#include "core/dataset.hpp"
#include "core/key_seed.hpp"
#include "imu/imu_pipeline.hpp"
#include "rfid/rfid_pipeline.hpp"

namespace wavekey::core {

std::optional<SeedPairResult> simulate_seed_pair(EncoderPair& encoders,
                                                 const SeedQuantizer& quantizer,
                                                 const WaveKeyConfig& config,
                                                 const sim::ScenarioConfig& scenario,
                                                 std::uint64_t seed) {
  sim::ScenarioSimulator simulator(scenario, seed);
  const sim::SessionRecording rec = simulator.run();

  imu::ImuPipelineConfig ic;
  ic.window_s = config.gesture_window_s;
  rfid::RfidPipelineConfig rc;
  rc.window_s = config.gesture_window_s;

  const auto imu_out = imu::process_imu(rec.imu, ic);
  const auto rfid_out = rfid::process_rfid(rec.rfid, rc);
  if (!imu_out || !rfid_out) return std::nullopt;

  const Sample sample =
      WaveKeyDataset::make_sample(imu_out->linear_accel, rfid_out->processed, config);

  SeedPairResult result;
  result.mobile_seed = make_key_seed(encoders.imu_features(sample.imu), quantizer);
  result.server_seed = make_key_seed(encoders.rfid_features(sample.rfid), quantizer);
  result.mismatch = result.mobile_seed.mismatch_ratio(result.server_seed);
  result.imu_start = imu_out->gesture_start_time;
  result.rfid_start = rfid_out->gesture_start_time;
  return result;
}

}  // namespace wavekey::core
