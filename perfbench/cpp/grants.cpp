// Grant workloads: open-loop access requests through ReaderGateway ->
// VaultCluster on a fault-free channel.
//
//  grant_hot   — a few thousand resident sessions (cache-resident), reads
//                only. Per-request fixed costs dominate: coroutine/queue
//                hand-off, framing, dedup cache, audit append, HMAC.
//  grant_churn — ~8e5 resident sessions (x2 with the replica copy, several
//                times the LLC), uniform session choice, and installs +
//                revokes issued by the same generator beside the reads.
//                FlatMap probes miss cache and optimistic-verify retries fire.
//
// Every request is MACed before its window starts, together with its
// expected status (the ledger): the warm-up in set-up, every later window
// just before it runs, so a window's storage is reused by the next one. The
// plan is executed strictly in order by one generator thread, so each
// expected status is fixed in advance: a replay re-sends a warm-up request
// that resolved before the measured phases began; revocations only target a
// reserved pool that never sees valid requests; a new session only receives
// requests after its install.
//
// Threads: generator (this thread) + 2 gateway lanes + the event loop's
// timer thread = 4.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "crypto/hmac.hpp"
#include "latency.hpp"
#include "metrics.hpp"
#include "numeric/rng.hpp"
#include "open_loop.hpp"
#include "protocol/wire.hpp"
#include "server/access_protocol.hpp"
#include "server/audit.hpp"
#include "server/cluster.hpp"
#include "server/gateway.hpp"
#include "server/key_vault.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using wavekey::Rng;
using wavekey::server::AccessGrant;
using wavekey::server::AccessRequest;
using wavekey::server::AccessStatus;
using wavekey::server::SessionKey;
namespace srv = wavekey::server;
namespace proto = wavekey::protocol;

// --- workload constants -----------------------------------------------------
// The rates, shares and sizes below are chosen, not measured from field
// traffic; perfbench/README.md gives the reason for each.

/// Rate at which grant p50/p99 are measured.
constexpr double kReferenceRate = 10000;
/// p99 limit (from due time) a ladder step must meet. Well above the
/// multi-millisecond stalls the serving path and a busy host show at any
/// rate, so a step fails on queueing (saturation), not on one stall.
constexpr double kLatencyLimitUs = 20000.0;
/// Median generator lateness above which a reference window is invalid.
constexpr double kLateLimitUs = 500.0;
/// Share of --seconds spent at the reference rate, split into windows. A
/// window where the generator fell behind is invalid and left out; the
/// printed p50/p90/p99 are the medians over the valid windows' p50/p90/p99,
/// so a burst of host CPU contention in a minority of windows does not move
/// them, and op_cpu_us is the program's CPU time over the valid windows per
/// request. A run with no valid window is invalid. The traced run alternates
/// untraced and traced windows.
constexpr double kReferenceShare = 0.6;
constexpr double kWarmupShare = 0.05;
constexpr double kWindowSeconds = 0.25;
/// Duration of one ladder window.
constexpr double kLadderStepSeconds = 0.5;
/// Set-up runs at least kSetupRepeats times and until kSetupSeconds have
/// passed (at most kMaxSetupRepeats); setup_s is the median.
constexpr int kSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 20;
constexpr double kSetupSeconds = 1.0;
constexpr std::uint32_t kGatewayLanes = 2;
constexpr std::size_t kDirectOps = 20000;  ///< traced run: standalone calls per layer
constexpr std::size_t kBatch = 32;         ///< standalone calls per span
constexpr std::size_t kGrantSlot = 64;     ///< bytes kept per returned grant

struct Params {
  std::size_t sessions;     ///< installed during set-up
  std::size_t revoke_pool;  ///< of those, reserved as revoke targets
  double share_install;
  double share_revoke;
  double share_revoked_probe;
  std::size_t vault_capacity;  ///< per node
};

// Each node holds every session (2 nodes, primary + replica), so per-node
// capacity covers all of them. 917504 = 8 shards x 114688, which fills each
// shard's 2^17-slot table to 7/8 at most: 8e5 sessions + run-time installs
// stay ~12% below it and no LRU eviction can fire.
constexpr Params kHot{4096, 0, 0.0, 0.0, 0.0, 8192};
constexpr Params kChurn{800000, 40000, 0.02, 0.02, 0.02, 917504};
constexpr double kShareReplay = 0.02;
constexpr double kShareBadMac = 0.02;
constexpr double kShareUnknown = 0.02;

enum class Kind : std::uint8_t {
  kValid,
  kReplay,
  kBadMac,
  kUnknown,
  kRevokedProbe,
  kInstall,
  kRevoke,
};

bool is_request(Kind k) { return k != Kind::kInstall && k != Kind::kRevoke; }

struct Op {
  Kind kind = Kind::kValid;
  AccessStatus expected = AccessStatus::kGranted;
  std::uint32_t session = 0;  ///< index into Sessions (unknown: unused)
  std::uint64_t counter = 0;
  std::uint64_t tenant = 0;
  std::uint32_t wire_off = 0;
  std::uint32_t wire_len = 0;
};

enum class PhaseKind { kWarmup, kReference, kTracedReference, kLadder, kDirect };

/// One planned window; its ops are World::ops.
struct PhaseSpec {
  PhaseKind kind = PhaseKind::kWarmup;
  double rate = 0.0;
  std::uint64_t base = 0;  ///< run-wide id of the first op (span and request ids)
};

struct Sessions {
  std::vector<std::uint64_t> ids;
  std::vector<SessionKey> keys;
};

/// Everything set-up produces: the cluster with installed sessions, and the
/// plan of the current window.
struct World {
  std::unique_ptr<srv::VaultCluster> cluster;
  srv::ClusterConfig config;
  Sessions sessions;
  std::vector<Op> ops;               ///< the current window, in run order
  std::vector<std::uint8_t> arena;   ///< its request wires, back to back
  std::vector<Op> replay_sources;    ///< the warm-up's requests
  std::vector<std::uint8_t> replay_arena;
};

std::span<const std::uint8_t> wire_of(const World& w, const Op& op) {
  return {w.arena.data() + op.wire_off, op.wire_len};
}

SessionKey random_key(Rng& rng) {
  SessionKey k{};
  for (std::size_t i = 0; i < k.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(k.data() + i, &v, 8);
  }
  return k;
}

srv::ClusterConfig cluster_config(const Params& p, Rng& rng) {
  srv::ClusterConfig c;
  c.nodes = 2;
  c.partitions = 64;
  c.vault.shards = 8;
  c.vault.capacity = p.vault_capacity;
  c.vault.ttl_s = 600.0;
  const SessionKey seal = random_key(rng);
  std::copy(seal.begin(), seal.end(), c.audit_seal.begin());
  return c;
}

/// Writes the plan and its ledger one window at a time, in the order the
/// windows run. Writes made during ladder windows never become request
/// targets, so a ladder window may be retried without changing any later
/// expected status.
class Planner {
 public:
  Planner(const Params& p, World& w, std::uint64_t seed)
      : p_(p), w_(w), rng_(seed * 0x9E3779B97F4A7C15ull + 0x6A11) {
    w.config = cluster_config(p, rng_);
    w.cluster = std::make_unique<srv::VaultCluster>(w.config);
    // Installed ids are even, unknown ids odd: an unknown id never collides.
    for (std::size_t i = 0; i < p.sessions; ++i) {
      w.sessions.ids.push_back(rng_.next() & ~1ull);
      w.sessions.keys.push_back(random_key(rng_));
      if (!w.cluster->install(w.sessions.ids.back(), w.sessions.keys.back()))
        throw std::runtime_error("set-up install failed");
    }
    live_.resize(p.sessions - p.revoke_pool);
    for (std::size_t i = 0; i < live_.size(); ++i) live_[i] = static_cast<std::uint32_t>(i);
    next_revoke_ = p.sessions - p.revoke_pool;
  }

  /// Replaces World::ops with the next window: rate * seconds ops. The
  /// warm-up's requests are kept as the sources of later replays.
  PhaseSpec plan(PhaseKind kind, double rate, double seconds) {
    const PhaseSpec ph{kind, rate, next_id_};
    const auto n = static_cast<std::size_t>(rate * seconds);
    w_.ops.clear();
    w_.arena.clear();
    for (std::size_t i = 0; i < n; ++i) w_.ops.push_back(next_op(kind));
    next_id_ += n;
    if (kind == PhaseKind::kWarmup) {
      w_.replay_sources = w_.ops;
      w_.replay_arena = w_.arena;
    }
    return ph;
  }

 private:
  Op next_op(PhaseKind kind) {
    Op op;
    // Warm-up (the replay sources) and the traced run's direct calls are
    // valid requests on fresh counters only.
    if (kind == PhaseKind::kWarmup || kind == PhaseKind::kDirect) {
      valid(op);
      return op;
    }
    const bool ladder = kind == PhaseKind::kLadder;
    double u = rng_.uniform();
    if ((u -= p_.share_install) < 0) {
      op.kind = Kind::kInstall;
      op.session = static_cast<std::uint32_t>(w_.sessions.ids.size());
      w_.sessions.ids.push_back(rng_.next() & ~1ull);
      w_.sessions.keys.push_back(random_key(rng_));
      if (!ladder) live_.push_back(op.session);
      return op;
    }
    if ((u -= p_.share_revoke) < 0 && next_revoke_ < p_.sessions) {
      op.kind = Kind::kRevoke;
      op.session = static_cast<std::uint32_t>(next_revoke_++);
      if (!ladder) revoked_.push_back(op.session);
      return op;
    }
    if ((u -= p_.share_revoked_probe) < 0 && !revoked_.empty()) {
      op.kind = Kind::kRevokedProbe;
      op.expected = AccessStatus::kRevoked;
      op.session = revoked_[rng_.uniform_u64(revoked_.size())];
      op.counter = counter(op.session)++;
      emit(op, w_.sessions.ids[op.session], w_.sessions.keys[op.session]);
    } else if ((u -= kShareReplay) < 0) {
      const Op& src = w_.replay_sources[rng_.uniform_u64(w_.replay_sources.size())];
      op = src;
      op.kind = Kind::kReplay;  // re-sends the original wire bytes
      op.expected = AccessStatus::kReplay;
      op.wire_off = static_cast<std::uint32_t>(w_.arena.size());
      const auto wire = w_.replay_arena.begin() + src.wire_off;
      w_.arena.insert(w_.arena.end(), wire, wire + src.wire_len);
    } else if ((u -= kShareBadMac) < 0) {
      op.kind = Kind::kBadMac;
      op.expected = AccessStatus::kBadMac;
      op.session = live_[rng_.uniform_u64(live_.size())];
      op.counter = counter(op.session);  // a rejected MAC burns no counter
      emit(op, w_.sessions.ids[op.session], w_.sessions.keys[op.session]);
    } else if ((u -= kShareUnknown) < 0) {
      op.kind = Kind::kUnknown;
      op.expected = AccessStatus::kUnknownSession;
      op.counter = 1;
      const SessionKey key = random_key(rng_);
      emit(op, rng_.next() | 1ull, key);
    } else {
      valid(op);
    }
    return op;
  }

  void valid(Op& op) {
    op.kind = Kind::kValid;
    op.expected = AccessStatus::kGranted;
    op.session = live_[rng_.uniform_u64(live_.size())];
    op.counter = counter(op.session)++;
    emit(op, w_.sessions.ids[op.session], w_.sessions.keys[op.session]);
  }

  std::uint64_t& counter(std::uint32_t session) {
    if (session >= next_counter_.size()) next_counter_.resize(w_.sessions.ids.size(), 1);
    return next_counter_[session];
  }

  /// Builds the MACed request wire of `op` into the arena.
  void emit(Op& op, std::uint64_t session_id, const SessionKey& key) {
    op.tenant = 1 + op.session % 8;
    std::array<std::uint8_t, srv::kNonceBytes> nonce{};
    const std::uint64_t n = rng_.next();
    std::memcpy(nonce.data(), &n, nonce.size());
    proto::Bytes payload(8);
    const std::uint64_t door = rng_.next();
    std::memcpy(payload.data(), &door, 8);
    proto::Bytes wire =
        srv::make_access_request(session_id, 0, op.counter, nonce, std::move(payload), key)
            .serialize();
    if (op.kind == Kind::kBadMac) wire.back() ^= 0x5A;  // the MAC is the last field
    op.wire_off = static_cast<std::uint32_t>(w_.arena.size());
    op.wire_len = static_cast<std::uint32_t>(wire.size());
    w_.arena.insert(w_.arena.end(), wire.begin(), wire.end());
  }

  const Params& p_;
  World& w_;
  Rng rng_;
  std::vector<std::uint32_t> live_;     ///< targets of valid / bad-MAC requests
  std::vector<std::uint32_t> revoked_;  ///< targets of revoked probes
  std::vector<std::uint64_t> next_counter_;
  std::size_t next_revoke_ = 0;
  std::uint64_t next_id_ = 0;
};

/// Set-up: the cluster with its installed sessions, and the pre-MACed
/// warm-up window.
struct Setup {
  std::unique_ptr<World> world;
  std::unique_ptr<Planner> planner;
  PhaseSpec warmup;
};

Setup build_world(const Params& p, const Options& o) {
  Setup s;
  s.world = std::make_unique<World>();
  s.planner = std::make_unique<Planner>(p, *s.world, o.seed);
  s.warmup = s.planner->plan(PhaseKind::kWarmup, kReferenceRate, kWarmupShare * o.seconds);
  return s;
}

// --- execution --------------------------------------------------------------

struct Names {
  NameId request, late, gateway, submit, install, revoke, wire_req, wire_resp, execute,
      authorize, hmac, append;
  explicit Names(Tracer& t)
      : request(t.intern("grant.request")),
        late(t.intern("gen.late")),
        gateway(t.intern("server.gateway")),
        submit(t.intern("runtime.submit")),
        install(t.intern("server.cluster.install")),
        revoke(t.intern("server.cluster.revoke")),
        wire_req(t.intern("protocol.wire_req")),
        wire_resp(t.intern("protocol.wire_resp")),
        execute(t.intern("server.cluster.execute")),
        authorize(t.intern("server.vault.authorize")),
        hmac(t.intern("crypto.hmac")),
        append(t.intern("server.audit.append")) {}
};

/// Per-op completion slots of the current window, written by the gateway
/// callbacks. Reset only between windows, when no callback is in flight.
struct Slots {
  void reset(std::size_t n, std::uint64_t first_id) {
    base = first_id;
    start_ns.resize(n);
    late_ns.resize(n);
    done_ns.assign(n, -1);
    status.assign(n, 0xFF);
    grant.resize(n * kGrantSlot);
    grant_len.assign(n, 0);
  }
  std::vector<std::int64_t> start_ns, late_ns, done_ns;
  std::vector<std::uint8_t> status;
  std::vector<std::uint8_t> grant;
  std::vector<std::uint8_t> grant_len;
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> oversized{0};
  std::uint64_t base = 0;    ///< run-wide id of slot 0
  Tracer* tracer = nullptr;  ///< non-null while the current window is traced
  const Names* names = nullptr;
  const Schedule* schedule = nullptr;
};

struct PhaseResult {
  LatencyRecord latency_us;  ///< request ops, from due time
  LatencyRecord late_us;
  std::size_t outstanding_at_end = 0;
  std::size_t mismatches = 0;
  bool pass = false;
};

/// Runs the planned window open-loop and waits until every request resolved.
PhaseResult run_phase(World& w, srv::ReaderGateway& gw, Slots& slots, const PhaseSpec& ph,
                      Tracer* tracer, const Names& names, RunResult& result) {
  const std::size_t n = w.ops.size();
  slots.reset(n, ph.base);
  const Schedule local{now_ns() + 1000000, ph.rate};  // op i due i / rate after 1 ms
  const bool traced = ph.kind == PhaseKind::kTracedReference;
  slots.tracer = traced ? tracer : nullptr;
  slots.names = &names;
  slots.schedule = &local;
  std::uint64_t submitted = 0;
  const std::uint64_t resolved_before = slots.resolved.load();

  run_open_loop(local, 0, n, slots.late_ns,
                [&](std::size_t i, std::int64_t due, std::int64_t start) {
    const Op& op = w.ops[i];
    slots.start_ns[i] = start;
    if (op.kind == Kind::kInstall || op.kind == Kind::kRevoke) {
      const bool ok = op.kind == Kind::kInstall
                          ? w.cluster->install(w.sessions.ids[op.session],
                                               w.sessions.keys[op.session])
                          : w.cluster->revoke(w.sessions.ids[op.session]);
      const std::int64_t end = now_ns();
      slots.done_ns[i] = end;
      slots.status[i] = ok ? 1 : 0;
      if (tracer != nullptr)
        tracer->record(op.kind == Kind::kInstall ? names.install : names.revoke, kNoParent,
                       (1ull << 61) | (ph.base + i), start, end);
      return;
    }
    Slots* s = &slots;
    const std::uint32_t idx = static_cast<std::uint32_t>(i);
    const auto id = gw.submit(op.tenant, wire_of(w, op), [s, idx](const srv::GatewayResult& r) {
      const std::int64_t done = now_ns();
      s->done_ns[idx] = done;
      s->status[idx] = static_cast<std::uint8_t>(r.status);
      if (r.grant_wire.size() <= kGrantSlot) {
        std::memcpy(&s->grant[static_cast<std::size_t>(idx) * kGrantSlot], r.grant_wire.data(),
                    r.grant_wire.size());
        s->grant_len[idx] = static_cast<std::uint8_t>(r.grant_wire.size());
      } else {
        s->oversized.fetch_add(1, std::memory_order_relaxed);
      }
      if (s->tracer != nullptr) {
        const std::int64_t due = s->schedule->due(idx);
        const std::int64_t start = s->start_ns[idx];
        s->tracer->record(s->names->gateway, s->names->request, s->base + idx, start, done);
        s->tracer->record(s->names->request, kNoParent, s->base + idx, due, now_ns());
      }
      s->resolved.fetch_add(1, std::memory_order_release);
    });
    if (traced) {
      const std::int64_t end = now_ns();
      tracer->record(names.late, names.request, ph.base + i, due, start);
      tracer->record(names.submit, names.gateway, ph.base + i, start, end);
    }
    if (!id) result.error("gateway refused a submit");
    else ++submitted;
  });

  // Drain: every submitted request of this window resolves.
  while (slots.resolved.load(std::memory_order_acquire) - resolved_before < submitted)
    std::this_thread::sleep_for(std::chrono::microseconds(200));

  PhaseResult pr;
  const std::int64_t last_due = local.due(n - 1);
  pr.latency_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = w.ops[i];
    pr.late_us.add(static_cast<double>(slots.late_ns[i]) / 1e3);
    if (!is_request(op.kind)) continue;
    pr.latency_us.add(static_cast<double>(slots.done_ns[i] - local.due(i)) / 1e3);
    if (local.due(i) <= last_due && slots.done_ns[i] > last_due) ++pr.outstanding_at_end;
    if (slots.status[i] != static_cast<std::uint8_t>(op.expected)) ++pr.mismatches;
  }
  pr.pass = pr.mismatches == 0 && pr.latency_us.has_tail(99.0) &&
            pr.latency_us.percentile(99.0) <= kLatencyLimitUs &&
            static_cast<double>(pr.outstanding_at_end) <= ph.rate * kLatencyLimitUs / 1e6;
  return pr;
}

/// Output checks over the window just run: ledger, grant MACs, install/revoke.
void check_ops(const World& w, const Slots& slots, RunResult& result) {
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    const std::string id = std::to_string(slots.base + i);
    ++result.attempted;
    if (!is_request(op.kind)) {
      if (slots.status[i] != 1) {
        ++result.failed;
        result.error("op " + id + ": cluster " +
                     (op.kind == Kind::kInstall ? "install" : "revoke") + " returned false");
      }
      continue;
    }
    const auto got = static_cast<AccessStatus>(slots.status[i]);
    if (got != op.expected) {
      ++result.failed;
      result.error("request " + id + ": status " +
                   (slots.status[i] == 0xFF ? "unresolved" : srv::access_status_name(got)) +
                   ", ledger expects " + srv::access_status_name(op.expected));
      continue;
    }
    if (got != AccessStatus::kGranted) continue;
    try {
      const AccessGrant g = AccessGrant::parse(
          {&slots.grant[i * kGrantSlot], static_cast<std::size_t>(slots.grant_len[i])});
      if (g.session_id != w.sessions.ids[op.session] || g.counter != op.counter ||
          !srv::verify_access_grant(g, w.sessions.keys[op.session])) {
        ++result.failed;
        result.error("request " + id + ": grant fails verify_access_grant");
      }
    } catch (const std::exception& e) {
      ++result.failed;
      result.error("request " + id + ": grant does not parse: " + e.what());
    }
  }
}

void check_cluster(const World& w, const srv::GatewayStats& gs, RunResult& result) {
  if (gs.submitted != gs.resolved)
    result.error("gateway submitted " + std::to_string(gs.submitted) + " != resolved " +
                 std::to_string(gs.resolved));
  std::uint64_t records = 0;
  for (srv::NodeId n = 0; n < w.cluster->nodes(); ++n) {
    const srv::AuditLog* log = w.cluster->audit_log(n);
    for (std::size_t s = 0; s < log->shards(); ++s)
      if (!log->verify_head(s))
        result.error("audit head of node " + std::to_string(n) + " shard " + std::to_string(s) +
                     " does not verify");
    records += log->total_size();
  }
  const srv::ClusterStats cs = w.cluster->stats();
  if (records != cs.executed)
    result.error("audit records " + std::to_string(records) + " != executed " +
                 std::to_string(cs.executed));
}

// --- traced run: standalone layer timings ----------------------------------

/// Times `fn(k)` for k in [0, n) in spans of kBatch calls; returns mean us per call.
template <typename F>
double time_batched(Tracer& tracer, NameId name, std::size_t n, F&& fn) {
  std::int64_t total = 0;
  for (std::size_t b = 0; b < n; b += kBatch) {
    const std::size_t e = std::min(n, b + kBatch);
    const std::int64_t t0 = now_ns();
    for (std::size_t k = b; k < e; ++k) fn(k);
    const std::int64_t t1 = now_ns();
    tracer.record(name, kNoParent, (1ull << 62) | (static_cast<std::uint64_t>(name) << 40) | b,
                  t0, t1, static_cast<std::uint32_t>(e - b));
    total += t1 - t0;
  }
  return n == 0 ? 0.0 : static_cast<double>(total) / 1e3 / static_cast<double>(n);
}

struct Standalone {
  double wire_req_us = 0, wire_resp_us = 0, execute_us = 0, authorize_us = 0, hmac_us = 0,
         append_us = 0, bytes_per_session = 0;
  std::uint64_t version_retries = 0, locked_fallbacks = 0;
};

Standalone measure_standalone(World& w, Planner& plan, const Params& p, Tracer& tracer,
                              const Names& names, RunResult& result) {
  Standalone out;
  const std::size_t n = kDirectOps;

  // The reference window's mix of valid / bad-MAC / unknown requests, for
  // the standalone vault, HMAC and audit timings. Planned as a ladder window,
  // so its writes (never executed) leave no request target behind.
  plan.plan(PhaseKind::kLadder, kReferenceRate, static_cast<double>(n) / kReferenceRate);
  std::vector<AccessRequest> reqs;
  std::vector<proto::Bytes> mac_inputs;
  std::vector<AccessStatus> expect;
  std::vector<const SessionKey*> keys;
  for (const Op& op : w.ops) {
    if (op.kind != Kind::kValid && op.kind != Kind::kBadMac && op.kind != Kind::kUnknown) continue;
    reqs.push_back(AccessRequest::parse(wire_of(w, op)));
    mac_inputs.push_back(reqs.back().mac_input());
    expect.push_back(op.expected);
    keys.push_back(op.kind == Kind::kUnknown ? &w.sessions.keys[0] : &w.sessions.keys[op.session]);
  }

  // Valid requests on counters above every planned one.
  plan.plan(PhaseKind::kDirect, kReferenceRate, static_cast<double>(n) / kReferenceRate);

  // Direct cluster.execute on fresh counters (after the gateway drained).
  std::vector<srv::ClusterResponse> responses(n);
  out.execute_us = time_batched(tracer, names.execute, n, [&](std::size_t k) {
    const Op& op = w.ops[k];
    srv::ClusterRequestView view;
    view.request_id = (2ull << 48) | k;
    view.tenant_id = op.tenant;
    view.inner = wire_of(w, op);
    responses[k] = w.cluster->execute(view);
  });
  for (std::size_t k = 0; k < n; ++k) {
    const Op& op = w.ops[k];
    ++result.attempted;
    bool ok = responses[k].status == AccessStatus::kGranted;
    if (ok) {
      const AccessGrant g = AccessGrant::parse(responses[k].grant_wire);
      ok = g.counter == op.counter && srv::verify_access_grant(g, w.sessions.keys[op.session]);
    }
    if (!ok) {
      ++result.failed;
      result.error("direct execute " + std::to_string(k) + " was not a verified grant");
    }
  }

  // Wire path: serialize_into + frame_seal + unframe_view + view parse.
  proto::Bytes buf;
  buf.reserve(512);
  std::uint64_t sink = 0;
  std::vector<proto::Bytes> inners(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto wire = wire_of(w, w.ops[k]);
    inners[k].assign(wire.begin(), wire.end());
  }
  srv::ClusterRequest envelope;
  out.wire_req_us = time_batched(tracer, names.wire_req, n, [&](std::size_t k) {
    envelope.request_id = (2ull << 48) | k;
    envelope.tenant_id = w.ops[k].tenant;
    envelope.inner = std::move(inners[k]);
    buf.clear();
    {
      proto::WireWriter writer(&buf);
      envelope.serialize_into(writer);
    }
    inners[k] = std::move(envelope.inner);
    srv::frame_seal(buf);
    const auto payload = srv::unframe_view(buf);
    sink += srv::ClusterRequestView::parse(*payload).request_id;
  });
  out.wire_resp_us = time_batched(tracer, names.wire_resp, n, [&](std::size_t k) {
    buf.clear();
    {
      proto::WireWriter writer(&buf);
      responses[k].serialize_into(writer);
    }
    srv::frame_seal(buf);
    const auto payload = srv::unframe_view(buf);
    sink += srv::ClusterResponseView::parse(*payload).request_id;
  });
  if (sink == 0) result.error("wire round trips lost their request ids");

  // Standalone vault with the per-node config, holding the same sessions.
  srv::KeyVault vault(w.config.vault);
  for (std::size_t s = 0; s < w.sessions.ids.size(); ++s)
    if (!vault.install(w.sessions.ids[s], w.sessions.keys[s], 0.0))
      result.error("standalone vault install failed");
  const srv::VaultStats filled = vault.stats();
  out.bytes_per_session = static_cast<double>(vault.memory_bytes()) /
                          static_cast<double>(std::max<std::uint64_t>(filled.resident_entries, 1));

  std::size_t vault_mismatch = 0;
  out.authorize_us = time_batched(tracer, names.authorize, reqs.size(), [&](std::size_t k) {
    SessionKey key{};
    if (vault.authorize(reqs[k], mac_inputs[k], 1.0, &key) != expect[k]) ++vault_mismatch;
  });
  if (vault_mismatch != 0)
    result.error(std::to_string(vault_mismatch) + " standalone authorizations off the ledger");
  out.hmac_us = time_batched(tracer, names.hmac, reqs.size(), [&](std::size_t k) {
    sink += wavekey::crypto::hmac_sha256(*keys[k], mac_inputs[k])[0];
  });
  srv::AuditLog audit(srv::AuditLog::Config{w.config.audit_shards, w.config.audit_seal});
  out.append_us = time_batched(tracer, names.append, reqs.size(), [&](std::size_t k) {
    srv::AuditRecord rec;
    rec.kind = srv::AuditKind::kAccess;
    rec.tenant_id = 1 + k % 8;
    rec.tag_uid = reqs[k].session_id;
    rec.counter = reqs[k].counter;
    rec.status = expect[k];
    rec.time_us = k;
    audit.append(rec);
  });

  // Optimistic-verify contention: two lanes authorize the fresh-counter
  // stream while this thread writes at the workload's install + revoke rate
  // (as installs of new sessions).
  const srv::VaultStats before = vault.stats();
  std::atomic<int> running{static_cast<int>(kGatewayLanes)};
  std::atomic<std::size_t> lane_mismatch{0};
  std::vector<std::thread> lanes;
  for (std::uint32_t l = 0; l < kGatewayLanes; ++l) {
    lanes.emplace_back([&, l] {
      for (std::size_t k = l; k < n; k += kGatewayLanes) {
        const AccessRequest r = AccessRequest::parse(wire_of(w, w.ops[k]));
        if (vault.authorize(r, r.mac_input(), 1.0, nullptr) != AccessStatus::kGranted)
          lane_mismatch.fetch_add(1);
      }
      running.fetch_sub(1);
    });
  }
  const double writes = p.share_install + p.share_revoke;
  if (writes > 0.0) {
    Rng rng(0xC4u);
    const std::int64_t gap_ns = static_cast<std::int64_t>(1e9 / (kReferenceRate * writes));
    std::int64_t next = now_ns();
    while (running.load() > 0) {
      spin_until(next);
      next += gap_ns;
      vault.install(rng.next() | 2ull, random_key(rng), 1.0);
    }
  }
  for (std::thread& t : lanes) t.join();
  if (lane_mismatch.load() != 0)
    result.error("concurrent standalone authorizations off the ledger");
  const srv::VaultStats after = vault.stats();
  out.version_retries = after.version_retries - before.version_retries;
  out.locked_fallbacks = after.locked_fallbacks - before.locked_fallbacks;
  return out;
}

}  // namespace

int run_grants(const Options& o, bool churn, RunResult& result) {
  const Params& p = churn ? kChurn : kHot;

  // Set-up, repeated (see kSetupRepeats); the last world is measured.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  Setup setup;
  const int max_reps = o.trace ? 1 : kMaxSetupRepeats;
  for (int rep = 0; rep < max_reps && (rep < kSetupRepeats || setup_total < kSetupSeconds);
       ++rep) {
    setup = Setup{};
    const std::int64_t t0 = now_ns();
    setup = build_world(p, o);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_total += setup_s.back();
  }
  World& w = *setup.world;
  Planner& plan = *setup.planner;

  Tracer tracer;
  const Names names(tracer);
  Tracer* tr = o.trace ? &tracer : nullptr;

  srv::GatewayConfig gc;
  gc.gateway_id = 1;
  gc.workers = kGatewayLanes;
  Slots slots;
  // Reference windows. A window where the generator fell behind (median
  // lateness over the limit) is invalid; so is one too short for a p99.
  // The printed p50/p90/p99 are the medians of the valid untraced windows'
  // p50/p90/p99. op_cpu_us is the CPU time of every thread but this one (the
  // generator, which spins between due times) over the valid untraced
  // windows, per access request. The traced run pairs each traced window with the
  // untraced one just before it; trace.overhead_pct is the median over the
  // pairs where both are valid.
  struct Window {
    bool traced, valid;
    double p50, p90, p99;
  };
  std::vector<Window> windows;
  LatencyRecord late_all, traced_all;
  double server_cpu_ns = 0.0, server_requests = 0.0;
  double rss_after_reference = 0.0;  // peak RSS once the reference windows ran
  // Ladder outcome per step: the p99 of its last attempt, and whether it passed.
  std::vector<double> step_p99(std::size(kLadder), 0.0);
  std::vector<bool> step_pass(std::size(kLadder), false);
  srv::GatewayStats gs;
  {
    srv::ReaderGateway gw(*w.cluster, gc);
    const auto run = [&](const PhaseSpec& ph) {
      PhaseResult r = run_phase(w, gw, slots, ph, tr, names, result);
      check_ops(w, slots, result);
      return r;
    };
    run(setup.warmup);
    const auto n_windows = std::max<std::size_t>(
        2, static_cast<std::size_t>(kReferenceShare * o.seconds / kWindowSeconds));
    for (std::size_t k = 0; k < n_windows; ++k) {
      const bool traced = o.trace && k % 2 == 1;
      const PhaseSpec ph = plan.plan(
          traced ? PhaseKind::kTracedReference : PhaseKind::kReference, kReferenceRate,
          kWindowSeconds);
      const auto requests = std::count_if(w.ops.begin(), w.ops.end(),
                                          [](const Op& op) { return is_request(op.kind); });
      const std::int64_t cpu0 = process_cpu_ns() - thread_cpu_ns();
      const PhaseResult r = run(ph);
      const std::int64_t cpu1 = process_cpu_ns() - thread_cpu_ns();
      const bool valid =
          generator_kept_up(r.late_us, kLateLimitUs) && r.latency_us.has_tail(99.0);
      if (!traced && valid) {
        server_cpu_ns += static_cast<double>(cpu1 - cpu0);
        server_requests += static_cast<double>(requests);
      }
      windows.push_back({traced, valid, r.latency_us.percentile(50.0),
                         r.latency_us.percentile(90.0),
                         valid ? r.latency_us.percentile(99.0) : 0.0});
      if (traced) traced_all.merge(r.latency_us);
      else late_all.merge(r.late_us);
    }
    rss_after_reference = peak_rss_mb();
    const auto p99_of = [&](const PhaseResult& r) {
      return r.latency_us.has_tail(99.0) ? r.latency_us.percentile(99.0)
                                         : r.latency_us.percentile(100.0);
    };
    // Each step is planned just before it runs, with counters above every
    // earlier one. A failed step gets one retry window, so one burst of host
    // CPU steal cannot end the ladder; the retry's outcome is the step's.
    for (std::size_t k = 0; k < std::size(kLadder); ++k) {
      PhaseResult r = run(plan.plan(PhaseKind::kLadder, kLadder[k], kLadderStepSeconds));
      if (!o.trace && !r.pass)
        r = run(plan.plan(PhaseKind::kLadder, kLadder[k], kLadderStepSeconds));
      step_p99[k] = p99_of(r);
      step_pass[k] = r.pass;
      if (!o.trace && !r.pass) break;
    }
    gw.finish();
    gs = gw.stats();
  }
  if (slots.oversized.load() != 0) result.error("a grant wire exceeded the slot size");

  LatencyRecord p50s, p90s, p99s, overhead_pct;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const Window& win = windows[k];
    if (!win.traced && win.valid) {
      p50s.add(win.p50);
      p90s.add(win.p90);
      p99s.add(win.p99);
    }
    if (win.traced && k > 0 && win.valid && windows[k - 1].valid)
      overhead_pct.add(100.0 * (win.p50 - windows[k - 1].p50) / windows[k - 1].p50);
  }
  if (p50s.empty()) {
    result.error("generator fell behind in every reference window (late p50 > " +
                 json_number(kLateLimitUs) + " us)");
    return 3;
  }
  result.note("reference windows: " +
              std::to_string(o.trace ? (windows.size() + 1) / 2 : windows.size()) +
              " untraced, " + std::to_string(p50s.size()) + " valid; median window p50 " +
              json_number(p50s.percentile(50.0)) + " us, p90 " +
              json_number(p90s.percentile(50.0)) + " us, p99 " +
              json_number(p99s.percentile(50.0)) + " us; gen.late " +
              late_all.summary().describe("us"));

  // Capacity: the highest rung meeting the limit (every lower rung passing
  // too), refined by log-interpolating p99 against the limit up to the first
  // failing rung, so the figure moves continuously with capacity instead of
  // jumping a whole step. The reference rate is the ladder's bottom rung.
  for (std::size_t k = 0; k < step_p99.size() && step_p99[k] > 0.0; ++k) {
    char line[120];
    std::snprintf(line, sizeof line, "ladder %.0f/s: p99 %.4gus %s", kLadder[k], step_p99[k],
                  step_pass[k] ? "pass" : "FAIL");
    result.note(line);
    if (o.trace) result.set("grant_p99_us." + std::to_string(static_cast<long>(kLadder[k])),
                            step_p99[k], "us");
  }
  std::vector<double> rung_rate{kReferenceRate}, rung_p99{p99s.percentile(50.0)};
  std::vector<bool> rung_pass{rung_p99[0] <= kLatencyLimitUs};
  for (std::size_t k = 0; k < step_p99.size(); ++k) {
    rung_rate.push_back(kLadder[k]);
    rung_p99.push_back(step_p99[k]);
    rung_pass.push_back(step_pass[k]);
  }
  std::size_t passed = 0;
  while (passed < rung_pass.size() && rung_pass[passed]) ++passed;
  if (passed == 0) {
    result.error("the reference rate misses the latency limit; the host is too slow to measure");
    return 3;
  }
  double max_rate = rung_rate[passed - 1];  // top reached, or failed on backlog / ledger
  if (passed < rung_pass.size() && rung_p99[passed] > kLatencyLimitUs) {
    const double lo = rung_p99[passed - 1], hi = rung_p99[passed];
    const double frac = std::log(kLatencyLimitUs / lo) / std::log(hi / lo);
    max_rate += std::clamp(frac, 0.0, 1.0) * (rung_rate[passed] - rung_rate[passed - 1]);
  }

  if (!o.trace) {
    check_cluster(w, gs, result);
    result.set("setup_s", median_of(setup_s), "s");
    result.set("peak_rss_mb", rss_after_reference, "MB");
    result.set("op_cpu_us", server_cpu_ns / 1e3 / server_requests, "us");
    result.note("grant_p50_us " + json_number(p50s.percentile(50.0)) + "  grant_p90_us " +
                json_number(p90s.percentile(50.0)) + "  grant_p99_us " +
                json_number(p99s.percentile(50.0)) + "  grant_max_rate " + json_number(max_rate) +
                "  fail_ratio " +
                json_number(static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted)));
    return 0;
  }

  // Traced run: per-layer attribution.
  const Standalone sa = measure_standalone(w, plan, p, tracer, names, result);
  check_cluster(w, gs, result);
  const std::vector<LayerTotals> totals = tracer.aggregate();
  const double n_req = static_cast<double>(std::max<std::uint64_t>(totals[names.request].spans, 1));
  const auto per_req_us = [&](NameId id, bool self) {
    return (self ? totals[id].self_ns : totals[id].total_ns) / n_req / 1e3;
  };
  const auto per_op_us = [&](NameId id) {
    const LayerTotals& t = totals[id];
    return t.ops == 0 ? 0.0 : t.total_ns / static_cast<double>(t.ops) / 1e3;
  };
  const double gateway_self = per_req_us(names.gateway, true) - sa.wire_req_us - sa.wire_resp_us -
                              sa.execute_us;
  const double request_us = per_req_us(names.request, false);
  const double unattributed = per_req_us(names.request, true);
  const srv::ClusterStats cs = w.cluster->stats();
  std::uint64_t records = 0;
  for (srv::NodeId nd = 0; nd < w.cluster->nodes(); ++nd)
    records += w.cluster->audit_log(nd)->total_size();

  result.set("gen.late_p99_us", late_all.percentile(99.0), "us");
  result.set("runtime.submit_block_us", per_req_us(names.submit, false), "us");
  result.set("runtime.pool_allocs", static_cast<double>(gs.pool_allocations), "count");
  result.set("server.gateway.attempts_per_req",
             static_cast<double>(gs.attempts) /
                 static_cast<double>(std::max<std::uint64_t>(gs.resolved, 1)),
             "ratio");
  result.set("protocol.wire_req_us", sa.wire_req_us, "us");
  result.set("protocol.wire_resp_us", sa.wire_resp_us, "us");
  result.set("server.cluster.execute_us", sa.execute_us, "us");
  result.set("server.vault.authorize_us", sa.authorize_us, "us");
  result.set("crypto.hmac_us", sa.hmac_us, "us");
  result.set("server.audit.append_us", sa.append_us, "us");
  result.set("server.gateway.self_us", gateway_self, "us");
  result.set("server.cluster.install_us", per_op_us(names.install), "us");
  result.set("server.cluster.revoke_us", per_op_us(names.revoke), "us");
  result.set("server.vault.bytes_per_session", sa.bytes_per_session, "B");
  result.set("server.vault.version_retries", static_cast<double>(sa.version_retries), "count");
  result.set("server.vault.locked_fallbacks", static_cast<double>(sa.locked_fallbacks), "count");
  result.set("server.cluster.executed", static_cast<double>(cs.executed), "count");
  result.set("server.cluster.dedup_hits", static_cast<double>(cs.dedup_hits), "count");
  result.set("server.audit.records", static_cast<double>(records), "count");
  result.set("op_p50_us", p50s.percentile(50.0), "us");
  result.set("op_p99_us", p99s.percentile(50.0), "us");
  result.set("unattributed_us", unattributed, "us");
  result.set("unattributed_pct", request_us > 0 ? 100.0 * unattributed / request_us : 0.0, "%");
  if (overhead_pct.empty()) result.error("no traced window paired with a valid untraced one");
  else result.set("trace.overhead_pct", overhead_pct.percentile(50.0), "%");
  result.note("traced reference " + traced_all.summary().describe("us"));

  const std::string path =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".trace.json";
  if (!tracer.write_chrome(path, 200000)) result.note("could not write " + path);
  else result.note("spans written to " + path);
  return 0;
}

}  // namespace perfbench
