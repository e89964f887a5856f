// Pair workload: a closed loop with one client and one pairing session at a
// time. Each session starts from a recording synthesized during set-up and
// runs the whole chain to a key installed in the vault cluster:
//
//   process_imu | process_rfid -> make_sample -> IMU-En | RF-En forward
//   -> make_key_seed (x2) -> run_key_agreement -> VaultCluster::install
//
// Substitution: no trained model is committed, so the encoders keep a
// fixed-seed initialisation (forward cost does not depend on the weights).
// RF-En still runs and is timed; the server seed follows the
// synthetic-residual convention of PairingEngine / bench_throughput: the
// mobile latent plus seeded N(0, sigma) noise, sigma well below eta.
//
// Measured pipeline + encoder + quantize time is charged to each party's
// session clock, so the tau deadline sees the real compute.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/encoders.hpp"
#include "core/key_seed.hpp"
#include "core/seed_quantizer.hpp"
#include "crypto/drbg.hpp"
#include "imu/imu_pipeline.hpp"
#include "latency.hpp"
#include "metrics.hpp"
#include "numeric/rng.hpp"
#include "protocol/key_agreement.hpp"
#include "protocol/session.hpp"
#include "rfid/rfid_pipeline.hpp"
#include "server/cluster.hpp"
#include "sim/scenario.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using wavekey::BitVec;
using wavekey::Rng;
namespace core = wavekey::core;
namespace imu = wavekey::imu;
namespace rfid = wavekey::rfid;
namespace proto = wavekey::protocol;
namespace sim = wavekey::sim;
namespace srv = wavekey::server;

constexpr std::uint64_t kEncoderSeed = 0xE4C0DE5;  ///< fixed: the untrained-model substitution
constexpr double kResidualSigma = 0.005;
/// 12 volunteers x 4 devices x 2 environments = 96 recordings, so the cost
/// mix a seed draws varies little from seed to seed.
constexpr std::size_t kVolunteers = 12;
constexpr int kSetupRepeats = 3;
constexpr int kMaxDraws = 8;  ///< per cohort slot
/// Session ids the keys are installed under, reused round-robin (a re-pair
/// replaces the key), so vault residency and peak RSS do not depend on how
/// many sessions the host managed to run.
constexpr std::uint64_t kVaultSessions = 1024;

struct World {
  std::vector<sim::SessionRecording> recordings;
  std::uint64_t imu_rejects = 0, rfid_rejects = 0;  ///< draws screened out in set-up
  std::unique_ptr<core::EncoderPair> encoders;
  std::unique_ptr<core::SeedQuantizer> quantizer;
  std::unique_ptr<srv::VaultCluster> cluster;
};

/// Cohort recordings: every volunteer x the 4 device profiles x static and
/// dynamic environments, with random tag and environment id. Like the
/// training campaign (WaveKeyDataset::generate), a draw either pipeline
/// rejects is discarded and redrawn; the rejections are counted and reported.
World build_world(const core::WaveKeyConfig& wk, const imu::ImuPipelineConfig& ic,
                  const rfid::RfidPipelineConfig& rc, std::uint64_t seed) {
  World w;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x9A1);
  std::vector<sim::VolunteerStyle> styles;
  for (std::size_t v = 0; v < kVolunteers; ++v) styles.push_back(sim::VolunteerStyle::sample(rng));
  const auto devices = sim::MobileDeviceProfile::standard_devices();
  const auto tags = sim::TagProfile::standard_tags();
  for (const sim::VolunteerStyle& style : styles)
    for (const auto& device : devices)
      for (const bool dynamic : {false, true}) {
        sim::ScenarioConfig sc;
        sc.volunteer = style;
        sc.device = device;
        sc.tag = tags[rng.uniform_u64(tags.size())];
        sc.environment_id = 1 + static_cast<int>(rng.uniform_u64(4));
        sc.dynamic_environment = dynamic;
        sc.gesture.active_s = 3.5;  // a wave slightly over the 2 s window
        for (int attempt = 0;; ++attempt) {
          if (attempt == kMaxDraws)
            throw std::runtime_error("no usable recording in " + std::to_string(kMaxDraws) +
                                     " draws");
          sim::SessionRecording rec = sim::ScenarioSimulator(sc, rng.next()).run();
          const bool imu_ok = imu::process_imu(rec.imu, ic).has_value();
          const bool rfid_ok = rfid::process_rfid(rec.rfid, rc).has_value();
          w.imu_rejects += imu_ok ? 0 : 1;
          w.rfid_rejects += rfid_ok ? 0 : 1;
          if (imu_ok && rfid_ok) {
            w.recordings.push_back(std::move(rec));
            break;
          }
        }
      }
  Rng enc_rng(kEncoderSeed);
  w.encoders = std::make_unique<core::EncoderPair>(wk.latent_dim, enc_rng);
  w.quantizer = std::make_unique<core::SeedQuantizer>(core::SeedQuantizer::from_normal(wk));
  srv::ClusterConfig cc;
  cc.nodes = 2;
  cc.vault.capacity = 1 << 16;
  w.cluster = std::make_unique<srv::VaultCluster>(cc);
  return w;
}

struct Names {
  NameId session, imu, rfid, sample, imu_fwd, rf_fwd, quantize, agreement, install, split, ot,
      reconcile, confirm;
  explicit Names(Tracer& t)
      : session(t.intern("pair.session")),
        imu(t.intern("imu.process")),
        rfid(t.intern("rfid.process")),
        sample(t.intern("core.make_sample")),
        imu_fwd(t.intern("nn.imu_forward")),
        rf_fwd(t.intern("nn.rf_forward")),
        quantize(t.intern("core.quantize")),
        agreement(t.intern("protocol.agreement")),
        install(t.intern("server.cluster.install")),
        split(t.intern("protocol.split")),
        ot(t.intern("crypto.ot")),
        reconcile(t.intern("ecc.reconcile")),
        confirm(t.intern("crypto.confirm")) {}
};

struct Counts {
  std::uint64_t imu_rejects = 0, rfid_rejects = 0, reconcile_failures = 0, tau_violations = 0;
  double mismatch_sum = 0.0;
  std::uint64_t mismatch_n = 0;
  LatencyRecord critical_ms;
};

/// Seconds spent in f(), recorded as a child span of the session if traced.
template <typename F>
double timed(Tracer* tr, NameId name, NameId parent, std::uint64_t op, F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  const std::int64_t t1 = now_ns();
  if (tr != nullptr) tr->record(name, parent, op, t0, t1);
  return static_cast<double>(t1 - t0) / 1e9;
}

/// The same seeds through key_agreement.hpp's step functions, with the
/// Drbgs consumed in run_key_agreement's order; returns the agreed key.
std::optional<BitVec> split_agreement(const proto::AgreementParams& params, const BitVec& ms,
                                      const BitVec& ss, std::uint64_t rng_seed, Tracer& tr,
                                      const Names& n, std::uint64_t op) {
  wavekey::crypto::Drbg mrng(rng_seed ^ 0xAB1Eull);
  wavekey::crypto::Drbg srng(rng_seed ^ 0x5E44ull);
  const std::int64_t t0 = now_ns();
  const proto::PadSender m_send(params, mrng);
  const proto::Bytes a_m = m_send.message_a();
  const proto::PadSender s_send(params, srng);
  const proto::Bytes a_r = s_send.message_a();
  const proto::PadReceiver m_recv(params, ms, a_r, mrng);
  const proto::Bytes b_m = m_recv.message_b();
  const proto::PadReceiver s_recv(params, ss, a_m, srng);
  const proto::Bytes b_r = s_recv.message_b();
  const proto::Bytes e_m = m_send.make_cipher_message(b_r, mrng);
  const proto::Bytes e_r = s_send.make_cipher_message(b_m, srng);
  const BitVec key_m =
      proto::assemble_preliminary_key(params, ms, m_send, m_recv.receive_pads(e_r), true);
  const BitVec key_r =
      proto::assemble_preliminary_key(params, ss, s_send, s_recv.receive_pads(e_m), false);
  const std::int64_t t1 = now_ns();
  const proto::Challenge challenge = proto::make_challenge(params, key_m, mrng);
  const proto::Challenge parsed = proto::Challenge::parse(params, challenge.serialize());
  const std::optional<BitVec> recovered = proto::recover_key(params, parsed, key_r);
  const std::int64_t t2 = now_ns();
  bool confirmed = false;
  if (recovered) {
    const proto::Bytes response = proto::make_response(parsed, *recovered);
    confirmed = proto::verify_response(challenge, key_m, response);
  }
  const std::int64_t t3 = now_ns();
  tr.record(n.ot, n.split, op, t0, t1);
  tr.record(n.reconcile, n.split, op, t1, t2);
  tr.record(n.confirm, n.split, op, t2, t3);
  tr.record(n.split, kNoParent, op, t0, t3);
  if (!confirmed) return std::nullopt;
  const BitVec final_m = proto::finalize_key(params, key_m);
  if (final_m != proto::finalize_key(params, *recovered)) return std::nullopt;
  return final_m;
}

}  // namespace

int run_pair(const Options& o, RunResult& result) {
  const core::WaveKeyConfig wk;
  imu::ImuPipelineConfig ic;
  ic.window_s = wk.gesture_window_s;
  rfid::RfidPipelineConfig rc;
  rc.window_s = wk.gesture_window_s;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupRepeats); ++rep) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = std::make_unique<World>(build_world(wk, ic, rc, o.seed));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  World& w = *world;

  Tracer tracer;
  const Names names(tracer);
  proto::SessionConfig base;
  base.params.seed_bits = w.quantizer->seed_bits();
  base.params.key_bits = wk.key_bits;
  base.params.eta = wk.eta;
  base.gesture_window_s = wk.gesture_window_s;
  base.tau_s = wk.tau_s;

  // Untraced run: every session. Traced run: the traced half in `sessions_us`
  // and the untraced half in `untraced_us`.
  LatencyRecord sessions_us, untraced_us;
  // Untraced run: each session's CPU time too. The session runs on this
  // thread without blocking, so its CPU time is its wall time less the
  // steal and preemption of a shared host.
  LatencyRecord sessions_cpu_us;
  Counts counts;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::uint64_t i = 0;
  QuietCpu quiet;
  for (; now_ns() < stop; ++i) {
    quiet.check();  // untimed: keeps the loop on a quiet vCPU (common.hpp)
    // Traced run: sessions alternate traced/untraced, both halves of a pair
    // on the same recording, for the overhead comparison.
    const bool traced = o.trace && i % 2 == 0;
    Tracer* tr = traced ? &tracer : nullptr;
    const std::uint64_t op = i;
    const std::size_t rec_idx = (o.trace ? i / 2 : i) % w.recordings.size();
    const sim::SessionRecording& rec = w.recordings[rec_idx];
    const std::uint64_t rng_seed = o.seed * 1000003ull + i;
    ++result.attempted;

    const std::int64_t cpu0 = thread_cpu_ns();
    const std::int64_t t0 = now_ns();
    std::optional<imu::ImuPipelineResult> imu_out;
    std::optional<rfid::RfidPipelineResult> rfid_out;
    core::Sample sample;
    std::vector<double> fm, fr;
    BitVec ms, ss;
    proto::SessionConfig session = base;
    session.mobile_compute_s += timed(tr, names.imu, names.session, op,
                                      [&] { imu_out = imu::process_imu(rec.imu, ic); });
    session.server_compute_s += timed(tr, names.rfid, names.session, op,
                                      [&] { rfid_out = rfid::process_rfid(rec.rfid, rc); });
    bool ok = imu_out && rfid_out;
    if (!imu_out) ++counts.imu_rejects;
    if (!rfid_out) ++counts.rfid_rejects;
    proto::SessionResult agreed;
    if (ok) {
      session.mobile_compute_s += timed(tr, names.sample, names.session, op, [&] {
        sample = core::WaveKeyDataset::make_sample(imu_out->linear_accel, rfid_out->processed, wk);
      });
      session.mobile_compute_s += timed(tr, names.imu_fwd, names.session, op,
                                        [&] { fm = w.encoders->imu_features(sample.imu); });
      session.server_compute_s += timed(tr, names.rf_fwd, names.session, op,
                                        [&] { fr = w.encoders->rfid_features(sample.rfid); });
      std::vector<double> server_latent = fm;
      Rng noise_rng(rng_seed ^ 0x51D0BA7C4ull);
      std::normal_distribution<double> gauss(0.0, kResidualSigma);
      for (double& v : server_latent) v += gauss(noise_rng);
      session.mobile_compute_s += timed(tr, names.quantize, names.session, op,
                                        [&] { ms = core::make_key_seed(fm, *w.quantizer); });
      session.server_compute_s += timed(tr, names.quantize, names.session, op, [&] {
        ss = core::make_key_seed(server_latent, *w.quantizer);
      });
      wavekey::crypto::Drbg mrng(rng_seed ^ 0xAB1Eull);
      wavekey::crypto::Drbg srng(rng_seed ^ 0x5E44ull);
      timed(tr, names.agreement, names.session, op,
            [&] { agreed = proto::run_key_agreement(session, ms, ss, mrng, srng); });
      ok = agreed.success && agreed.mobile_key == agreed.server_key;
      if (agreed.success && agreed.mobile_key != agreed.server_key)
        result.error("session " + std::to_string(i) + ": mobile key != server key");
      if (agreed.failure == proto::FailureReason::kReconciliationFailed)
        ++counts.reconcile_failures;
      if (agreed.success) {
        const double critical_ms = (agreed.critical_arrival_s - session.gesture_window_s) * 1e3;
        counts.critical_ms.add(critical_ms);
        if (critical_ms > session.tau_s * 1e3) ++counts.tau_violations;
      }
      if (ok) {
        const std::vector<std::uint8_t> key = agreed.mobile_key.to_bytes();
        bool installed = false;
        timed(tr, names.install, names.session, op, [&] {
          installed = w.cluster->install((o.seed << 40) | (i % kVaultSessions + 1), key);
        });
        ok = installed;
        if (!installed) result.error("session " + std::to_string(i) + ": vault install failed");
      }
    }
    const std::int64_t t1 = now_ns();
    if (tr != nullptr) tr->record(names.session, kNoParent, op, t0, t1);
    (traced || !o.trace ? sessions_us : untraced_us).add(static_cast<double>(t1 - t0) / 1e3);
    if (!o.trace) sessions_cpu_us.add(static_cast<double>(thread_cpu_ns() - cpu0) / 1e3);
    if (!ok) {
      ++result.failed;
      result.note("session " + std::to_string(i) + " failed: " +
                  (!imu_out || !rfid_out ? std::string("recording rejected")
                   : agreed.success      ? std::string("keys differ or vault install failed")
                                         : proto::failure_reason_name(agreed.failure)));
    }
    if (ok) {
      counts.mismatch_sum += ms.mismatch_ratio(ss);
      ++counts.mismatch_n;
    }

    if (traced && ok) {
      const auto split = split_agreement(session.params, ms, ss, rng_seed, tracer, names, op);
      if (!split || *split != agreed.mobile_key)
        result.error("session " + std::to_string(i) + ": decomposed protocol disagrees");
    }
  }
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;

  char line[200];
  std::snprintf(line, sizeof line, "pair sessions %s; %zu recordings",
                sessions_us.summary().describe("us").c_str(), w.recordings.size());
  result.note(line);
  result.note("fail_ratio " + json_number(static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted)));

  if (!o.trace) {
    if (!sessions_us.has_tail(99.0)) {
      result.error("fewer than 10 sessions beyond p99; raise --seconds");
      return 3;
    }
    result.set("setup_s", median_of(setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("op_cpu_us", sessions_cpu_us.percentile(kFastPathPct), "us");
    result.note("pair_p50_ms " + json_number(sessions_us.percentile(50.0) / 1e3) +
                "  pair_p90_ms " + json_number(sessions_us.percentile(90.0) / 1e3) +
                "  pair_p99_ms " + json_number(sessions_us.percentile(99.0) / 1e3) +
                " (wall); session CPU " + sessions_cpu_us.summary().describe("us") +
                "; mean rate " + json_number(static_cast<double>(i) / elapsed_s) + "/s; " +
                std::to_string(quiet.moves()) + " moves to a quieter CPU");
    return 0;
  }

  const std::vector<LayerTotals> t = tracer.aggregate();
  const double n = static_cast<double>(std::max<std::uint64_t>(t[names.session].spans, 1));
  const auto per_session = [&](NameId id) { return t[id].total_ns / n; };  // ns
  result.set("imu.process_us", per_session(names.imu) / 1e3, "us");
  result.set("rfid.process_us", per_session(names.rfid) / 1e3, "us");
  result.set("core.make_sample_us", per_session(names.sample) / 1e3, "us");
  result.set("nn.imu_forward_us", per_session(names.imu_fwd) / 1e3, "us");
  result.set("nn.rf_forward_us", per_session(names.rf_fwd) / 1e3, "us");
  result.set("core.quantize_us", per_session(names.quantize) / 1e3, "us");
  result.set("protocol.agreement_ms", per_session(names.agreement) / 1e6, "ms");
  result.set("server.cluster.install_us", per_session(names.install) / 1e3, "us");
  result.set("crypto.ot_ms", per_session(names.ot) / 1e6, "ms");
  result.set("ecc.reconcile_us", per_session(names.reconcile) / 1e3, "us");
  result.set("crypto.confirm_us", per_session(names.confirm) / 1e3, "us");
  result.set("protocol.split_sum_ms",
             (per_session(names.ot) + per_session(names.reconcile) + per_session(names.confirm)) /
                 1e6,
             "ms");
  result.set("imu.rejects", static_cast<double>(w.imu_rejects + counts.imu_rejects), "count");
  result.set("rfid.rejects", static_cast<double>(w.rfid_rejects + counts.rfid_rejects), "count");
  result.set("protocol.reconcile_failures", static_cast<double>(counts.reconcile_failures),
             "count");
  result.set("protocol.tau_violations", static_cast<double>(counts.tau_violations), "count");
  result.set("protocol.critical_ms_p99",
             counts.critical_ms.empty() ? 0.0 : counts.critical_ms.percentile(99.0), "ms");
  result.set("core.seed_mismatch_mean",
             counts.mismatch_n == 0
                 ? 0.0
                 : counts.mismatch_sum / static_cast<double>(counts.mismatch_n),
             "ratio");
  const double unattributed = t[names.session].self_ns / n;
  result.set("unattributed_us", unattributed / 1e3, "us");
  result.set("unattributed_pct", 100.0 * unattributed / per_session(names.session), "%");
  if (!untraced_us.empty()) result.set("op_p50_us", untraced_us.percentile(50.0), "us");
  if (untraced_us.has_tail(99.0)) result.set("op_p99_us", untraced_us.percentile(99.0), "us");
  if (!untraced_us.empty() && !sessions_us.empty()) {
    const double base = untraced_us.percentile(50.0);
    result.set("trace.overhead_pct", 100.0 * (sessions_us.percentile(50.0) - base) / base, "%");
  }
  result.note("untraced half " + untraced_us.summary().describe("us"));
  const std::string path =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".trace.json";
  result.note(tracer.write_chrome(path, 200000) ? "spans written to " + path
                                                : "could not write " + path);
  return 0;
}

}  // namespace perfbench
