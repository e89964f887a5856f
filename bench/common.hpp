#pragma once

// Shared infrastructure for the benches: one trained WaveKey system cached
// on disk (first bench run trains it, the rest reuse it), the evaluation
// cohort, scaling of instance counts via WAVEKEY_BENCH_SCALE (e.g. 0.25 for
// a quick smoke run, 4 for publication-grade statistics), and the JSON
// report writer of the gated benches.

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/model_store.hpp"
#include "core/system.hpp"
#include "sim/scenario.hpp"

namespace wavekey::bench {

inline double scale() {
  if (const char* env = std::getenv("WAVEKEY_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

/// Scales an instance count, keeping at least a handful of instances.
inline int scaled(int n) {
  const int s = static_cast<int>(static_cast<double>(n) * scale());
  return s < 4 ? 4 : s;
}

inline const char* model_path() { return "wavekey_models.bin"; }

/// The shared trained system (trains + caches on first use).
inline core::WaveKeySystem& system() {
  static core::WaveKeySystem sys = core::load_or_train(
      model_path(), core::default_dataset_config(), core::default_train_config(),
      core::WaveKeyConfig{});
  return sys;
}

/// The six simulated volunteers of the training campaign (the paper's
/// evaluation reuses its volunteers).
inline const std::vector<sim::VolunteerStyle>& cohort() {
  static const std::vector<sim::VolunteerStyle> styles = [] {
    const core::DatasetConfig dc = core::default_dataset_config();
    Rng rng(dc.seed);
    std::vector<sim::VolunteerStyle> out;
    for (std::size_t v = 0; v < dc.volunteers; ++v)
      out.push_back(sim::VolunteerStyle::sample(rng));
    return out;
  }();
  return styles;
}

/// Default evaluation scenario (paper SVI-B): Galaxy Watch, Alien 9640,
/// static lab, 5 m, 0 deg; gesture slightly longer than the 2 s window.
inline sim::ScenarioConfig default_scenario(int volunteer_index) {
  sim::ScenarioConfig sc;
  sc.volunteer = cohort()[static_cast<std::size_t>(volunteer_index) % cohort().size()];
  sc.gesture.active_s = 3.5;
  return sc;
}

/// Success-rate helper: runs `n` full key establishments of one scenario
/// configuration (seeding deterministically from `salt`), returns the
/// fraction that established a key. Pipeline rejections count as failures.
inline double key_establishment_rate(sim::ScenarioConfig base, int n, std::uint64_t salt) {
  int ok = 0;
  for (int i = 0; i < n; ++i) {
    sim::ScenarioConfig sc = base;
    sc.volunteer = cohort()[static_cast<std::size_t>(i) % cohort().size()];
    const core::WaveKeyOutcome out =
        system().establish_key(sc, salt * 1000003ull + static_cast<std::uint64_t>(i) * 7919ull);
    if (out.success) ++ok;
  }
  return 100.0 * static_cast<double>(ok) / static_cast<double>(n);
}

/// One value of a bench's JSON report, built as a tree and printed once.
/// Scalars keep the text they print as, so every number states its own
/// precision (Json::num) — there is deliberately no double constructor.
/// Layout: a container holding only scalars prints on one line; any other
/// prints one member per line, indented two spaces per level.
class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }
  /// `value` with `decimals` digits after the point (printf "%.*f").
  static Json num(double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return Json(Kind::kScalar, buf);
  }

  Json(bool value) : Json(Kind::kScalar, value ? "true" : "false") {}
  Json(const char* text) : Json(Kind::kScalar, quote(text)) {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T value) : Json(Kind::kScalar, std::to_string(value)) {}
  Json(double) = delete;

  /// Appends an object member (members print in insertion order).
  Json& add(const char* key, Json value) {
    members_.emplace_back(quote(key), std::move(value));
    return *this;
  }
  /// Appends an array element.
  Json& push(Json value) {
    members_.emplace_back(std::string(), std::move(value));
    return *this;
  }

  /// Prints the report and a trailing newline to stdout.
  void print() const {
    std::string text;
    render(text, 0);
    text += '\n';
    std::fputs(text.c_str(), stdout);
  }

 private:
  enum class Kind { kScalar, kObject, kArray };

  explicit Json(Kind kind, std::string text = {}) : kind_(kind), text_(std::move(text)) {}

  static std::string quote(const char* text) {
    std::string out = "\"";
    for (const char* c = text; *c != '\0'; ++c) {
      if (*c == '"' || *c == '\\') out += '\\';
      out += *c;
    }
    return out + '"';
  }

  void render(std::string& out, std::size_t indent) const {
    if (kind_ == Kind::kScalar) {
      out += text_;
      return;
    }
    bool flat = true;
    for (const auto& member : members_) flat = flat && member.second.kind_ == Kind::kScalar;
    out += kind_ == Kind::kObject ? '{' : '[';
    for (std::size_t i = 0; i < members_.size(); ++i) {
      out += i == 0 ? "" : ",";
      if (flat) {
        out += i == 0 ? "" : " ";
      } else {
        out += '\n';
        out.append(indent + 2, ' ');
      }
      if (kind_ == Kind::kObject) out += members_[i].first + ": ";
      members_[i].second.render(out, indent + 2);
    }
    if (!flat) {
      out += '\n';
      out.append(indent, ' ');
    }
    out += kind_ == Kind::kObject ? '}' : ']';
  }

  Kind kind_;
  std::string text_;
  std::vector<std::pair<std::string, Json>> members_;
};

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("model: %s (eta=%.4f, l_s=%zu bits)\n", model_path(), system().config().eta,
              system().config().seed_bits());
  std::printf("================================================================\n");
}

}  // namespace wavekey::bench
