#pragma once

// The benchmark's metric catalogue. BENCHMARK.json lists the same names:
// every run reports every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1). A layer a workload does not exercise reports 0.

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Offered rates of the grant capacity ladder (requests/s), shared by both
/// grant workloads so the per-rate metric names agree.
inline constexpr double kLadder[] = {50000,  100000, 120000, 135000, 150000,
                                     165000, 180000, 200000, 220000};

/// op_cpu_us of pair is this percentile of the sessions' CPU time: the
/// session's cost when the shared host does not slow it (perfbench/README.md,
/// Steadiness).
inline constexpr double kFastPathPct = 10.0;

using MetricSpec = std::pair<std::string, std::string>;  // name, unit

inline std::vector<MetricSpec> end_to_end_metrics() {
  return {{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"op_cpu_us", "us"}};
}

inline std::vector<MetricSpec> per_layer_metrics() {
  std::vector<MetricSpec> m = {
      // pair
      {"imu.process_us", "us"},
      {"rfid.process_us", "us"},
      {"core.make_sample_us", "us"},
      {"nn.imu_forward_us", "us"},
      {"nn.rf_forward_us", "us"},
      {"core.quantize_us", "us"},
      {"protocol.agreement_ms", "ms"},
      {"crypto.ot_ms", "ms"},
      {"ecc.reconcile_us", "us"},
      {"crypto.confirm_us", "us"},
      {"protocol.split_sum_ms", "ms"},
      {"imu.rejects", "count"},
      {"rfid.rejects", "count"},
      {"protocol.reconcile_failures", "count"},
      {"protocol.tau_violations", "count"},
      {"protocol.critical_ms_p99", "ms"},
      {"core.seed_mismatch_mean", "ratio"},
      // grants
      {"gen.late_p99_us", "us"},
      {"runtime.submit_block_us", "us"},
      {"runtime.pool_allocs", "count"},
      {"server.gateway.attempts_per_req", "ratio"},
      {"protocol.wire_req_us", "us"},
      {"protocol.wire_resp_us", "us"},
      {"server.cluster.execute_us", "us"},
      {"server.vault.authorize_us", "us"},
      {"crypto.hmac_us", "us"},
      {"server.audit.append_us", "us"},
      {"server.gateway.self_us", "us"},
      {"server.cluster.install_us", "us"},
      {"server.cluster.revoke_us", "us"},
      {"server.vault.bytes_per_session", "B"},
      {"server.vault.version_retries", "count"},
      {"server.vault.locked_fallbacks", "count"},
      {"server.cluster.executed", "count"},
      {"server.cluster.dedup_hits", "count"},
      {"server.audit.records", "count"},
  };
  for (const double r : kLadder)
    m.push_back({"grant_p99_us." + std::to_string(static_cast<long>(r)), "us"});
  // all workloads. The wall-time p50 and p99 are reported here, unbounded,
  // and not as end-to-end metrics: on a shared host they follow the other
  // tenants' load and the hypervisor's steal (perfbench/README.md,
  // Steadiness).
  m.push_back({"op_p50_us", "us"});
  m.push_back({"op_p99_us", "us"});
  m.push_back({"unattributed_us", "us"});
  m.push_back({"unattributed_pct", "%"});
  m.push_back({"trace.overhead_pct", "%"});
  return m;
}

}  // namespace perfbench
