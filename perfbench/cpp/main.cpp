// Repo benchmark entry point: one workload per process.
//
//   perfbench --workload pair|grant_hot|grant_churn --seed N --seconds S
//             --trace 0|1 --out-dir DIR
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md). The last stdout line is one JSON object with
// exactly the keys correct/attempted/failed/metrics; the line before it
// carries the run's provenance. Exit code 0 only when every output check
// passed; an invalid run (generator fell behind) prints no result.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "common.hpp"
#include "metrics.hpp"
#include "runtime/cpu.hpp"

namespace {

using namespace perfbench;

/// Seed kept out of every tuning run; later performance claims are re-checked on it.
constexpr std::uint64_t kHeldOutSeed = 7340033;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros if unreadable.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {}, total = 0.0;
  in >> cpu;
  for (double& x : v) {
    if (!(in >> x)) return {0.0, 0.0};
    total += x;
  }
  return {v[7], total};
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string provenance_json(const Options& o, double steal_pct) {
  namespace cpu = wavekey::runtime::cpu;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string s = "{\"workload\":" + json_string(o.workload) +
                  ",\"seed\":" + std::to_string(o.seed) +
                  ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
                  ",\"seconds\":" + json_number(o.seconds) +
                  ",\"trace\":" + (o.trace ? "1" : "0") + ",\"nproc\":" + std::to_string(nproc) +
                  ",\"cpu_model\":" + json_string(cpu_model()) +
                  ",\"simd_tier\":" + json_string(cpu::tier_name(cpu::active_tier())) +
                  ",\"simd_tier_detected\":" + json_string(cpu::tier_name(cpu::detected_tier())) +
                  ",\"sha_ni_detected\":" + (cpu::detected_sha_ni() ? "true" : "false") +
                  ",\"sha_ni_active\":" + (cpu::sha_ni_active() ? "true" : "false") +
                  ",\"host_steal_pct\":" + json_number(steal_pct) + "}";
  return s;
}

std::string result_json(const RunResult& r) {
  std::string s = std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pair|grant_hot|grant_churn --seed N --seconds S "
               "--trace 0|1 --out-dir DIR   (S >= 1)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::atof(val.c_str());
    else if (key == "--trace") o.trace = val == "1";
    else if (key == "--out-dir") o.out_dir = val;
    else return usage();
  }
  if (argc % 2 != 1 || o.seconds < 1.0 || o.out_dir.empty()) return usage();

  const auto jiffies_before = cpu_jiffies();
  RunResult result;
  int rc = 0;
  if (o.workload == "pair") rc = run_pair(o, result);
  else if (o.workload == "grant_hot") rc = run_grants(o, /*churn=*/false, result);
  else if (o.workload == "grant_churn") rc = run_grants(o, /*churn=*/true, result);
  else return usage();

  // Report exactly the catalogue's metrics, in its order; a layer the
  // workload does not exercise reports 0.
  if (rc == 0) {
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : o.trace ? per_layer_metrics() : end_to_end_metrics()) {
      Metric m{name, 0.0, unit};
      for (const Metric& got : result.metrics)
        if (got.name == name) m.value = got.value;
      ordered.push_back(m);
    }
    for (const Metric& got : result.metrics) {
      bool known = false;
      for (const Metric& m : ordered) known = known || (m.name == got.name && m.unit == got.unit);
      if (!known)
        result.error("metric " + got.name + " [" + got.unit + "] is not in the catalogue");
    }
    result.metrics = std::move(ordered);
  }

  for (const std::string& line : result.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& e : result.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
  if (rc != 0) {
    std::fprintf(stderr, "perfbench: run invalid (code %d); no result reported\n", rc);
    return rc;
  }

  // Share of CPU time the hypervisor took from this machine during the run:
  // figures from runs with high steal are not comparable.
  const auto jiffies_after = cpu_jiffies();
  const double total = jiffies_after.second - jiffies_before.second;
  const std::string provenance = provenance_json(
      o, total > 0.0 ? 100.0 * (jiffies_after.first - jiffies_before.first) / total : 0.0);
  const std::string json = result_json(result);
  const std::string path = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"provenance\": %s,\n \"result\": %s,\n \"notes\": [", provenance.c_str(),
                 json.c_str());
    for (std::size_t i = 0; i < result.notes.size(); ++i)
      std::fprintf(f, "%s%s", i ? ",\n  " : "\n  ", json_string(result.notes[i]).c_str());
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }
  std::printf("{\"provenance\": %s}\n", provenance.c_str());
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
