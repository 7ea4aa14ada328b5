#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload startup|pt2pt|coupled-app \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
sessmpi libraries plus the perfbench binary (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally. The binary's report is passed through; its last
line is one JSON object {"correct", "attempted", "failed", "metrics"}
whose metric names are checked against BENCHMARK.json before it is
printed. The exit code is nonzero when the build fails, a correctness
check fails, or the report does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    """Configure (once) and build `targets`; True on success."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"perfbench: build step failed: {e}", file=sys.stderr)
                return False
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("perfbench: build failed:\n" + "\n".join(tail), file=sys.stderr)
                return False
    return True


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(line, spec, traced):
    """Problems with the binary's JSON result line (empty list = fine)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = spec["per_layer" if traced else "end_to_end"]
    names = {m["name"]: m["unit"] for m in want}
    got = result["metrics"]
    if set(got) != set(names):
        problems.append("metric names differ from BENCHMARK.json: missing "
                        f"{sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
    for name, m in got.items():
        if name in names and m.get("unit") != names[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {names[name]}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def run(args):
    spec = benchmark_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    if not build(["perfbench"]):
        return 2
    cmd = [str(build_dir() / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        # One file per workload (the newest traced run), so disk use stays
        # bounded however many seeds are run.
        cmd += ["--spans-out", str(spans / f"{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(e.stdout.decode(errors="replace") if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        print(f"perfbench: the binary printed nothing (exit {proc.returncode})", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    problems = check_result(lines[-1], spec, args.trace == 1)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(lines[-1])
    sys.stdout.flush()
    if problems:
        return 1
    return proc.returncode


def self_test():
    if not build(["perfbench_selftest"]):
        return 2
    rc = subprocess.run([str(build_dir() / "perfbench_selftest")]).returncode
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark's own logic and BENCHMARK.json")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
