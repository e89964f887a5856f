#!/usr/bin/env python3
"""Bench JSON gates: one function per gate that tools/ci.sh runs.

Each gate re-derives a bench's claims from the JSON it emitted, so a broken
exit path in the bench itself cannot mask them. A failed gate raises
AssertionError (exit status 1). Run one locally with

    python3 tools/gates.py <gate> <json>...

e.g. `python3 tools/gates.py vault build-ci/bench_vault.json`. Gates:
throughput, batch, server, async (bench_server + bench_cluster JSONs), vault,
cluster, grants, and perf_merge <dst> <src> (min-merge of bench_micro
attempts, not an assertion).
"""

import inspect
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def gate_throughput(path):
    """Re-checks bench_throughput's p99 critical-message latency against the
    tau budget point by point (the bench itself exits non-zero on any failed
    session or tau violation).
    """
    data = load(path)
    tau = data["tau_budget_ms"]
    points = data["points"]
    assert points, "bench_throughput emitted no points"
    for p in points:
        assert p["p99_critical_ms"] <= tau, (
            f"p99 critical latency {p['p99_critical_ms']} ms exceeds the "
            f"tau budget {tau} ms at {p['threads']} threads")
    assert data["tau_deadline_violations"] == 0, "tau deadline violations detected"
    print(f"bench_throughput ok: speedup_4t_over_1t={data['speedup_4t_over_1t']}, "
          f"tau violations=0, {len(points)} points")


def gate_batch(path):
    """Re-derives the batched-encoder claims (DESIGN.md §10) from the
    bench_throughput JSON: >= 2x the unbatched arm's sessions/sec at 8
    threads, a universally successful integrated engine+service run with zero
    tau violations, and genuine coalescing (mean batch > 1), so the speedup
    cannot come from a degenerate batch-of-1 configuration.
    """
    data = load(path)
    stage = data["encoder_stage"]
    points = stage["points"]
    assert points, "encoder_stage emitted no points"
    by_threads = {p["threads"]: p for p in points}
    assert 8 in by_threads, "encoder_stage missing the 8-thread point"
    p8 = by_threads[8]
    speedup = p8["batched_sps"] / p8["unbatched_sps"]
    assert speedup >= 2.0, (
        f"batched encoder stage speedup {speedup:.2f}x < 2.0x at 8 threads "
        f"(batched {p8['batched_sps']:.0f}/s vs unbatched {p8['unbatched_sps']:.0f}/s)")
    assert p8["mean_batch"] > 1.5, (
        f"mean coalesced batch {p8['mean_batch']:.2f} at 8 threads — batching degenerate")
    integ = data["batched_integration"]
    assert integ["successes"] == integ["sessions"], (
        f"batched integration: {integ['sessions'] - integ['successes']} failed sessions")
    assert integ["tau_violations"] == 0, "batched integration: tau violations detected"
    assert integ["coalesced"] > 0, "batched integration: no session ever coalesced"
    assert integ["p99_critical_ms"] <= data["tau_budget_ms"], (
        f"batched integration p99 critical {integ['p99_critical_ms']} ms exceeds tau")
    print(f"batch_gate ok: speedup_batched_8t={speedup:.2f}x, mean_batch={p8['mean_batch']:.2f}, "
          f"integration {integ['successes']}/{integ['sessions']} ok, tau violations=0, "
          f"max_hold={integ['max_hold_ms']:.3f} ms")


def gate_server(path):
    """Re-checks bench_server's security-critical invariants: exact ledgers,
    zero accepted replays, every rejection class fired (the bench injects
    each deterministically, so a zero means the check is dead code), and the
    per-point I/O overlap factor — granted * io_wait / wall — which replaced
    the 4t/1t speedup gate once waits parked in the timer wheel.
    """
    data = load(path)
    points = data["points"]
    assert points, "bench_server emitted no points"
    for p in points:
        assert p["ledger_ok"], f"outcome ledger mismatch at {p['threads']} threads"
        assert p["accepted_replays"] == 0, f"replay accepted at {p['threads']} threads"
        assert p["shed"] == 0 and p["malformed"] == 0, "unexpected shed/malformed in soak"
        for key in ("replay_rejected", "expired", "revoked", "stale_epoch",
                    "bad_mac", "rate_limited"):
            assert p[key] > 0, f"rejection class {key} never fired at {p['threads']} threads"
    assert data["accepted_replays"] == 0, "accepted replays detected"
    assert data["tau_deadline_violations"] == 0, "tau deadline violations detected"
    assert data["shed_burst"]["shed"] >= 1, "overload burst did not shed"
    # Coroutine serving overlaps I/O waits at EVERY thread count (they park in
    # the timer wheel, not on a worker thread), so grants/sec no longer scales
    # with threads: the old 4t/1t speedup gate is structurally obsolete. The
    # replacement gate is the per-point I/O overlap factor — granted * io_wait
    # / wall — which measures how many waits were genuinely in flight at once.
    overlaps = []
    for p in points:
        assert "p999_verify_us" in p, f"p99.9 missing at {p['threads']} threads"
        if data["io_wait_ms"] > 0:
            assert p["io_overlap"] >= 2.5, (
                f"I/O overlap factor {p['io_overlap']:.2f} < 2.5 at "
                f"{p['threads']} threads — waits are serializing")
            overlaps.append(p["io_overlap"])
    print(f"bench_server ok: io_overlap={[round(o, 1) for o in overlaps]}, "
          f"accepted_replays=0, tau violations=0, {len(points)} points")


def gate_async(server_path, cluster_path):
    """Re-derives the async serving-core claims (DESIGN.md §11) from the
    bench_server and bench_cluster JSONs: >= 10k grants in flight (and
    suspended) on 4 threads with nothing shed and the exactly-once ledger
    intact, and a pooled gateway wire path that stopped allocating after
    warm-up (allocations bounded by the lane count, leases tracking every
    frame sent).
    """
    server = load(server_path)
    cluster = load(cluster_path)
    burst = server["async_burst"]
    assert burst["threads"] == 4, f"async burst ran on {burst['threads']} threads, not 4"
    assert burst["peak_in_flight"] >= 10000, (
        f"peak in-flight {burst['peak_in_flight']} < 10000 — coroutines are not overlapping")
    assert burst["peak_suspended"] >= 10000, (
        f"peak suspended {burst['peak_suspended']} < 10000 — waits are not parking")
    assert burst["granted"] == burst["submitted"], (
        f"async burst lost grants: {burst['granted']}/{burst['submitted']}")
    assert burst["shed"] == 0, f"async burst shed {burst['shed']} requests"
    assert burst["p999_verify_us"] > 0, "async burst p99.9 missing"
    pw = cluster["pooled_wire"]
    assert pw["steady_state_ok"], "pooled wire path allocated at steady state"
    assert pw["pool_allocations"] <= pw["lanes"], (
        f"pool allocated {pw['pool_allocations']} buffers for {pw['lanes']} lanes")
    assert pw["pool_leases"] >= pw["frames_sent"], (
        f"pool leases {pw['pool_leases']} < frames sent {pw['frames_sent']}")
    print(f"async_gate ok: peak_in_flight={burst['peak_in_flight']}, "
          f"peak_suspended={burst['peak_suspended']}, wall={burst['wall_s']}s, "
          f"p999_verify={burst['p999_verify_us']}us, "
          f"pool {pw['pool_allocations']} allocations / {pw['pool_leases']} leases")


def gate_vault(path):
    """Re-derives bench_vault's acceptance claims: >= 2x 4-thread authorize
    throughput over the mutex+unordered_map baseline at the largest sessions
    point, zero accepted replays, exact rejection ledgers, complete wheel
    purges, a bytes/session bound on the FlatMap store, and the lock-hold p99
    proof that the optimistic path moved the HMAC out of the critical
    section.
    """
    data = load(path)
    assert data["all_ok"], "bench_vault reported a failed invariant"
    points = data["points"]
    assert points, "bench_vault emitted no points"
    for p in points:
        led = p["ledger"]
        assert led["ledger_ok"], f"rejection ledger mismatch at {p['sessions']} sessions"
        assert led["accepted_replays"] == 0, f"accepted replay at {p['sessions']} sessions"
        assert led["authorize_failures"] == 0, f"authorize failures at {p['sessions']} sessions"
        n = led["probes_per_class"]
        for cls in ("replay_rejected", "bad_mac", "stale_epoch", "unknown", "expired"):
            assert led[cls] == n, (
                f"{cls}={led[cls]} != {n} probes at {p['sessions']} sessions")
        purge = p["purge"]
        assert purge["purged"] == purge["installed"], (
            f"wheel purge reclaimed {purge['purged']}/{purge['installed']} "
            f"at {p['sessions']} sessions")
        assert p["flatmap_bytes_per_session"] <= 512.0, (
            f"FlatMap store {p['flatmap_bytes_per_session']:.0f} B/session > 512 "
            f"at {p['sessions']} sessions")
    largest = max(points, key=lambda p: p["sessions"])
    t4 = next(t for t in largest["threads"] if t["threads"] == 4)
    assert t4["speedup"] >= 2.0, (
        f"4-thread authorize speedup {t4['speedup']:.2f}x < 2.0x at "
        f"{largest['sessions']} sessions ({t4['flatmap_grants_per_sec']:.0f}/s vs "
        f"baseline {t4['baseline_grants_per_sec']:.0f}/s)")
    lh = data["lock_hold"]
    assert lh["p99_ratio"] >= 1.5, (
        f"lock-hold p99 ratio {lh['p99_ratio']:.2f} < 1.5 — the HMAC does not "
        f"appear to have left the critical section "
        f"(optimistic {lh['optimistic_p99_ns']:.0f} ns vs classic {lh['classic_p99_ns']:.0f} ns)")
    print(f"bench_vault ok: speedup_4t={t4['speedup']:.2f}x at {largest['sessions']} sessions, "
          f"accepted_replays=0, lock_hold_p99 {lh['optimistic_p99_ns']:.0f}ns vs "
          f"{lh['classic_p99_ns']:.0f}ns (ratio {lh['p99_ratio']:.2f}), "
          f"{len(points)} points")


def gate_cluster(path):
    """Re-derives bench_cluster's security invariants (crash + failover and a
    drain under lossy WAN traffic): zero accepted replays, zero
    double-grants, zero unresolved in-flight requests, every rejection class
    fired, each chaos event ran.
    """
    data = load(path)
    assert data["accepted_replays"] == 0, "cluster accepted a replay"
    assert data["double_grants"] == 0, "cluster double-granted a request"
    assert data["unresolved_in_flight"] == 0, "in-flight request never resolved"
    assert data["wellformed_success"] >= 0.95, (
        f"well-formed success {data['wellformed_success']} < 0.95")
    for flag in ("probe_ledger_ok", "window_ledger_ok", "reopened_ledger_ok",
                 "blackhole_ledger_ok", "chaos_typed_ok", "grants_accounted",
                 "chaos_ran", "success_ok", "resolved_ok"):
        assert data[flag], f"bench_cluster gate {flag} failed"
    phases = data["phases"]
    assert phases["probes"]["replay"] > 0, "replay probes never fired"
    assert phases["probes"]["bad_mac"] > 0, "bad-MAC probes never fired"
    assert phases["probes"]["malformed"] > 0, "malformed probes never fired"
    assert phases["crash_window"]["unavailable"] > 0, "crash window saw no kUnavailable"
    assert phases["post_failover_replay"]["replay"] > 0, "post-failover replays not rejected"
    assert phases["blackhole"]["retry_exhausted"] > 0, "blackhole saw no kRetryExhausted"
    cluster = data["cluster"]
    assert cluster["crashes"] == 1 and cluster["drains"] == 1 and cluster["failovers"] == 1, \
        "chaos events did not all run"
    assert cluster["sessions_migrated"] > 0, "handoff migrated no sessions"
    print(f"bench_cluster ok: executed={cluster['executed']}, "
          f"grants={cluster['vault_grants']}, dedup_hits={cluster['dedup_hits']}, "
          f"migrated={cluster['sessions_migrated']}, accepted_replays=0, "
          f"double_grants=0, success={data['wellformed_success']}")


def gate_grants(path):
    """Re-derives bench_grants' closed-form offline-window ledger: every
    pre-issued token accepted vault-free during the partition, each rejection
    class fired with its typed count, zero cluster executions while
    blackholed, zero accepted after revocation propagates on heal, and both
    audit chains verifying with one record per event (the tamper probe must
    pinpoint its injected index).
    """
    data = load(path)
    for flag in ("reachable_ledger_ok", "crosslink_ok", "partitioned_ledger_ok",
                 "vault_free_ok", "sibling_scoping_ok", "revoked_ledger_ok",
                 "healed_ledger_ok", "verifier_chain_ok", "tamper_ok",
                 "issuer_chain_ok"):
        assert data[flag], f"bench_grants gate {flag} failed"
    ph = data["phases"]
    reach, part, heal = ph["reachable"], ph["partitioned"], ph["healed"]
    for name, p in ph.items():
        assert p["resolved"] == p["submitted"], f"{name}: unresolved submissions"
    assert reach["granted"] == reach["submitted"], "reachable phase lost grants"
    assert part["granted"] == data["offline_grants"] + data["handoff_grants"], \
        "partitioned phase accepted the wrong number of offline grants"
    assert part["offline"] == part["resolved"] - part["retry_exhausted"], \
        "some partitioned resolutions bypassed the offline verifier"
    for cls in ("replay", "rollback", "bad_mac", "expired", "wrong_scope",
                "unknown", "malformed", "retry_exhausted"):
        assert part[cls] > 0, f"rejection class {cls} never fired during the partition"
    assert heal["granted"] == heal["submitted"], "healed phase lost grants"
    audit = data["audit"]
    assert audit["pinpointed"] == audit["tampered_index"], \
        "audit fsck did not pinpoint the tampered record"
    assert data["revoked_refused"] > 0, "revocation propagation never refused a token"
    print(f"bench_grants ok: offline_granted={part['granted']}, "
          f"typed_rejections={part['resolved'] - part['granted']}, "
          f"verifier_records={audit['verifier_records']}, "
          f"issuer_records={audit['issuer_records']}, "
          f"tamper pinpointed at {audit['pinpointed']}")


def gate_perf_merge(dst, src):
    """Min-merges a bench_micro JSON attempt `src` into `dst`: per benchmark,
    the fastest iteration run across attempts survives. A code regression
    cannot pass a re-measure; a noisy host eventually lands a quiet window.
    """
    cur = json.load(open(src))
    if os.path.exists(dst):
        best = {}
        for doc in (json.load(open(dst)), cur):
            for b in doc["benchmarks"]:
                if b.get("run_type", "iteration") != "iteration":
                    continue
                k = b["name"]
                if k not in best or b["real_time"] < best[k]["real_time"]:
                    best[k] = b
        cur = {"context": cur["context"],
               "benchmarks": sorted(best.values(), key=lambda b: b["name"])}
    json.dump(cur, open(dst, "w"), indent=1)


GATES = {
    "throughput": gate_throughput,
    "batch": gate_batch,
    "server": gate_server,
    "async": gate_async,
    "vault": gate_vault,
    "cluster": gate_cluster,
    "grants": gate_grants,
    "perf_merge": gate_perf_merge,
}


def main(argv):
    gate = GATES.get(argv[1]) if len(argv) > 1 else None
    if gate is None or len(argv) - 2 != len(inspect.signature(gate).parameters):
        names = "|".join(GATES)
        print(f"usage: python3 tools/gates.py <{names}> <json>...", file=sys.stderr)
        return 2
    gate(*argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
