#!/usr/bin/env bash
# CI driver: builds and runs the tier-1 ctest suite in three configurations —
# a plain RelWithDebInfo build (plus the bench JSON gates, one function each
# in tools/gates.py), a
# WAVEKEY_SANITIZE=ON (ASan + UBSan) build, and a WAVEKEY_TSAN=ON
# (ThreadSanitizer) build scoped to the concurrency suites — so every merge
# exercises correctness, memory/UB cleanliness, and data-race freedom. A
# fourth Release (-O3) leg runs bench_micro and gates the hot-path kernels
# against the committed BENCH_micro.json baseline via tools/bench_compare.py
# (anchor-normalized, so it tolerates uniformly slower machines but trips on
# relative kernel regressions > 15%), then runs `bench_micro --simd-check`
# (vectorized kernels >= 2x over forced scalar on AVX2 hosts). The plain leg
# additionally re-runs the differential kernel suites with
# WAVEKEY_SIMD=scalar to pin dispatch to the scalar tier.
#
# Usage: tools/ci.sh [--plain-only|--sanitize-only|--tsan-only|--perf-only]
# Environment: WAVEKEY_CI_JOBS (parallelism, default nproc),
#              WAVEKEY_BENCH_SCALE is consumed only by the throughput and
#              vault gates (fixed at 0.25 there); tests do not read it.

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${WAVEKEY_CI_JOBS:-$(nproc)}"
MODE="${1:-all}"
USAGE="usage: tools/ci.sh [--plain-only|--sanitize-only|--tsan-only|--perf-only]"
case "$MODE" in
  all|--plain-only|--sanitize-only|--tsan-only|--perf-only) ;;
  *) echo "$USAGE" >&2; exit 2 ;;
esac
if [ "$#" -gt 1 ]; then echo "$USAGE" >&2; exit 2; fi

run_suite() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

forced_scalar_gate() {
  # Re-runs the differential kernel suites with SIMD dispatch pinned to the
  # scalar tier (WAVEKEY_SIMD=scalar): proves the scalar twins are complete
  # oracles on their own and that the override is honored end to end. The
  # CpuDispatch.ForcedScalarPinsTier test turns from a skip into a hard
  # assertion under this environment.
  echo "=== [plain] forced-scalar ctest (WAVEKEY_SIMD=scalar) ==="
  WAVEKEY_SIMD=scalar ctest --test-dir build-ci --output-on-failure -j "$JOBS" \
    -R 'KernelEquivalence|TensorArena|CpuDispatch|Gf256|ChaCha|ReedSolomon|FuzzyCommitment|GemmSimd|simd_test'
}

throughput_gate() {
  # bench_throughput exits non-zero on any failed session or tau violation;
  # tools/gates.py re-checks the p99 critical latency against tau.
  echo "=== [plain] bench_throughput gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_throughput \
    > build-ci/bench_throughput.json
  python3 tools/gates.py throughput build-ci/bench_throughput.json
}

batch_gate() {
  # Batched-encoder claims (DESIGN.md §10), re-derived from the JSON that
  # throughput_gate emitted (see gate_batch in tools/gates.py).
  echo "=== [plain] batched-encoder gate ==="
  python3 tools/gates.py batch build-ci/bench_throughput.json
}

server_gate() {
  # bench_server exits non-zero on any broken ledger, accepted replay, tau
  # violation, missing shed, or sub-2.5x I/O overlap factor; tools/gates.py
  # re-checks those invariants from the JSON and requires every rejection
  # class to have fired.
  echo "=== [plain] bench_server gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_server \
    > build-ci/bench_server.json
  python3 tools/gates.py server build-ci/bench_server.json
}

async_gate() {
  # Async serving-core claims (DESIGN.md §11), re-derived from the JSONs
  # that server_gate and cluster_gate emitted (see gate_async in
  # tools/gates.py). Then the fresh bench_server latency percentiles are
  # diffed against the committed BENCH_server.json via bench_compare
  # --latency: tail amplification (p99/p99.9 over p50 within the same run) is
  # machine-speed-independent, and the generous 9.0 threshold is a tripwire
  # for order-of-magnitude regressions — a blocking wait reappearing on the
  # verify path, not noise.
  echo "=== [plain] async serving gate ==="
  python3 tools/gates.py async build-ci/bench_server.json build-ci/bench_cluster.json
  echo "=== [plain] latency percentile diff vs BENCH_server.json ==="
  tools/bench_compare.py --latency --threshold 9.0 \
    BENCH_server.json build-ci/bench_server.json
}

vault_gate() {
  # bench_vault exits non-zero on any ledger mismatch, accepted replay,
  # double grant, or purge shortfall; tools/gates.py re-derives the
  # acceptance claims (speedup, ledgers, purges, bytes/session, lock hold).
  echo "=== [plain] bench_vault gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_vault \
    > build-ci/bench_vault.json
  python3 tools/gates.py vault build-ci/bench_vault.json
}

cluster_gate() {
  # bench_cluster drives gateway fleets against the partitioned vault
  # cluster through a lossy WAN model while injecting a crash (with
  # failover) and a graceful drain mid-traffic, and exits non-zero if any
  # ledger gate fails; tools/gates.py re-derives the security invariants.
  echo "=== [plain] bench_cluster gate ==="
  ./build-ci/bench/bench_cluster > build-ci/bench_cluster.json
  python3 tools/gates.py cluster build-ci/bench_cluster.json
}

grants_gate() {
  # bench_grants soaks the offline-grant subsystem through a full
  # reachable -> partitioned -> healed cycle and exits non-zero on any
  # ledger miss; tools/gates.py re-derives the closed-form ledger.
  echo "=== [plain] bench_grants gate ==="
  ./build-ci/bench/bench_grants > build-ci/bench_grants.json
  python3 tools/gates.py grants build-ci/bench_grants.json
}

perf_gate() {
  # Release (-O3) leg: measure the gated hot-path benchmarks and compare
  # against the committed baseline. Shared hosts drift through multi-minute
  # slow phases that hit cache-sensitive kernels non-uniformly (so the
  # anchor cannot cancel them); three disciplines keep the gate meaningful
  # anyway: random interleaving spreads each benchmark's repetitions across
  # time windows, bench_compare takes the min over repetitions, and on a
  # failed comparison the measurement is repeated (up to 3 attempts) with
  # attempts min-merged — a genuine code regression can never pass a
  # re-measure, while a noisy host eventually lands a quiet window.
  echo "=== [perf] configure ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
  echo "=== [perf] build bench_micro ==="
  cmake --build build-ci-release -j "$JOBS" --target bench_micro
  echo "=== [perf] bench_micro vs BENCH_micro.json ==="
  rm -f build-ci-release/bench_micro.json
  local attempt
  for attempt in 1 2 3; do
    ./build-ci-release/bench/bench_micro \
      --benchmark_format=json \
      --benchmark_repetitions=3 \
      --benchmark_min_time=0.05 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_filter='BM_Sha256_1KiB|BM_Fe25519_Pow|BM_Fe25519_GeneratorPow|BM_Fe25519_Square|BM_Fe25519_Inverse|BM_OtInstance|BM_OtSenderEncrypt|BM_ImuEncoderInference|BM_EncoderBatchedForward|BM_Conv1dForward|BM_DenseForward|BM_Gf256AddmulSlice|BM_RsEncode|BM_ChaCha20Block|BM_GemmF32|BM_ClusterFrame|BM_PartitionMapRoute|BM_EventLoopSpawn|BM_BufferPoolLease|BM_FramePooled|BM_FlatMapProbe|BM_VaultAuthorizeHot|BM_KdfDerive|BM_GrantVerifyOffline|BM_AuditAppend' \
      > "build-ci-release/bench_micro.attempt${attempt}.json"
    python3 tools/gates.py perf_merge build-ci-release/bench_micro.json \
      "build-ci-release/bench_micro.attempt${attempt}.json"
    if tools/bench_compare.py BENCH_micro.json build-ci-release/bench_micro.json; then
      break
    elif [ "$attempt" = 3 ]; then
      echo "perf gate: regression persists after ${attempt} min-merged attempts" >&2
      exit 1
    else
      echo "perf gate: attempt ${attempt} over threshold; re-measuring (min-merge)" >&2
    fi
  done
  # On AVX2 hosts, assert the vectorized kernels actually pay for their
  # complexity: >= 2x over the forced-scalar tier (no-op elsewhere).
  echo "=== [perf] bench_micro --simd-check ==="
  ./build-ci-release/bench/bench_micro --simd-check
}

case "$MODE" in
  --sanitize-only|--tsan-only|--perf-only) ;;
  *)
    run_suite plain build-ci
    forced_scalar_gate
    throughput_gate
    batch_gate
    server_gate
    vault_gate
    cluster_gate
    async_gate
    grants_gate
    ;;
esac

case "$MODE" in
  --plain-only|--tsan-only|--perf-only) ;;
  *)
    # UBSan aborts on any finding (-fno-sanitize-recover=all); ASan halts on
    # the first error by default, which is exactly what CI wants.
    ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
      run_suite sanitize build-ci-sanitize -DWAVEKEY_SANITIZE=ON
    ;;
esac

case "$MODE" in
  --plain-only|--sanitize-only|--perf-only) ;;
  *)
    # TSan is scoped to the concurrency suites (compute-pool fork-join +
    # pairing engine + event loop + vault cluster/gateway front end)
    # plus the kernel-equivalence and training-determinism suites, which
    # drive the GEMM kernels and training through the compute pool: that is
    # where the shared mutable state lives, and the 5-15x TSan slowdown makes
    # the full training suite impractical in CI.
    echo "=== [tsan] configure ==="
    cmake -B build-ci-tsan -S . -DWAVEKEY_TSAN=ON
    echo "=== [tsan] build ==="
    cmake --build build-ci-tsan -j "$JOBS" \
      --target compute_pool_test pairing_engine_test kernel_equiv_test server_test cluster_test \
               grants_test micro_batcher_test event_loop_test flat_map_test
    TSAN_SUITES='ComputePool|PairingEngine|TrainingDeterminism|KernelEquivalence|TensorArena|KeyVault|ReplayWindow|TokenBucket|TenantLimiter|AccessProtocol|MalformedInputFuzz|PartitionMap|ClusterWire|ClusterFuzz|VaultCluster|ReaderGateway|MicroBatcher|BatchedDenseKernel|BatchedInference|BatchedEncoderService|EventLoop|AsyncQueue|TaskCoroutine|BufferPool|FlatMap|KdfTree|CounterAdvance|GrantToken|GrantFuzz|OfflineVerifier|GrantIssuer|AuditLog|ClusterAudit|GatewayOffline'
    # Every alternative must select at least one built test, so a renamed
    # suite or a missing --target can never silently drop out of TSan.
    for suite in ${TSAN_SUITES//|/ }; do
      if ! ctest --test-dir build-ci-tsan -N -R "$suite" | grep -q '^Total Tests: [1-9]'; then
        echo "tsan: -R alternative '$suite' matches no test" >&2
        exit 1
      fi
    done
    echo "=== [tsan] ctest (concurrency suites) ==="
    ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" -R "$TSAN_SUITES"
    ;;
esac

case "$MODE" in
  --sanitize-only|--tsan-only) ;;
  *)
    perf_gate
    ;;
esac

echo "=== CI ok ==="
