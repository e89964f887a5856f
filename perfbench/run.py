#!/usr/bin/env python3
"""Repo benchmark runner: builds perfbench/ (and the src/ libraries it links)
from source, then runs one workload.

    python3 perfbench/run.py --workload pair|grant_hot|grant_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory; result and trace files
go to <build dir>/perfbench-out/. The last stdout line is the result JSON.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pair", "grant_hot", "grant_churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], capture_output=True).returncode == 0 else []
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or args.seed < 0
                              or args.seconds is None or args.seconds <= 0):
        parser.error("--workload, --seed >= 0 and --seconds > 0 are required")

    bench_dir = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_root / "perfbench"
    out_dir = build_root / "perfbench-out"
    if not build(bench_dir, build_dir):
        log("build failed; no result")
        return 1

    if args.selftest:
        return subprocess.run([str(build_dir / "perfbench_selftest")]).returncode

    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    problem = check_catalogue(out, args.trace)
    if problem:
        log(f"result does not match BENCHMARK.json: {problem}")
        return 1
    return 0


def check_catalogue(out, trace):
    """The result line must report exactly the metrics BENCHMARK.json lists."""
    catalogue = Path("BENCHMARK.json")
    if not catalogue.exists():
        return "BENCHMARK.json not found in the current directory"
    spec = json.loads(catalogue.read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return "metric names or units differ: " + ", ".join(map(str, diff))
    return None


if __name__ == "__main__":
    sys.exit(main())
