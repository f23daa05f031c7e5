#!/usr/bin/env python3
"""Build and run the bx end-to-end benchmark.

One run (run from the repository root):

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

builds `perfbench` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs it pinned to one CPU under a watchdog, and passes
its output through:
the last line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. A run that outlives the watchdog is killed and reported as
failed, with a non-zero exit code.

Steadiness report:

    python3 perfbench/run.py --steadiness 10 [--seconds S] [--workloads ingest,serve]

runs every workload N times with seeds 1..N (S defaults to BENCHMARK.json's
run_seconds), alternating the workload order between rounds, and prints
each end-to-end metric's median and quartiles, and their spread against
the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run must end within 180 s; the first run of a checkout may also build.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def binary_path():
    return os.path.join(target_dir(), "release", "perfbench")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def pin_to_one_cpu():
    """Keep every thread of the benchmark on one CPU (see README.md).

    On a shared host a hand-off between threads on different CPUs costs
    whatever the host's scheduler makes it cost at the moment; on one CPU
    it is a plain context switch.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(workload, seed, seconds, trace, limit_s):
    """Run the benchmark binary once; returns (exit code, stdout lines)."""
    cmd = [
        binary_path(),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(limit_s, 1),
            preexec_fn=pin_to_one_cpu,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        print(f"perfbench: watchdog: run exceeded {limit_s:.0f} s, recorded as failed", file=sys.stderr)
        hung = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        return 3, [json.dumps(hung)]
    return done.returncode, done.stdout.splitlines()


def binary_mtime():
    try:
        return os.stat(binary_path()).st_mtime_ns
    except OSError:
        return None


def single(args):
    start = time.monotonic()
    before = binary_mtime()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Any run whose build did work (a fresh checkout, or changed sources)
    # gets the first-run allowance, so build time is never charged to the
    # measured run.
    built = binary_mtime() != before
    limit = (FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - start)
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace, limit)
    for line in lines:
        print(line)
    return code


def load_bounds():
    for path in ("BENCHMARK.json", os.path.join(HERE, "..", "BENCHMARK.json")):
        if os.path.exists(path):
            with open(path) as f:
                spec = json.load(f)
            return spec, {m["name"]: m for m in spec["end_to_end"]}
    return None, {}


def steadiness(args):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spec, bounds = load_bounds()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or (spec["run_seconds"] if spec else 10)
    values = {w: {} for w in workloads}
    failures = 0
    for i in range(args.steadiness):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = args.seed_base + i
            code, lines = run_once(workload, seed, seconds, 0, RUN_LIMIT_S)
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            if code != 0 or not result["correct"]:
                failures += 1
                print(f"{workload} seed {seed}: FAILED (exit {code})", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}", file=sys.stderr)
    for workload in workloads:
        print(f"\n{workload}: {len(next(iter(values[workload].values()), []))} runs of {seconds} s")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, vals in values[workload].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound")
            if bound is None:
                verdict = ""
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "NOISY"
            shown = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:24} {med:12.4g} {q1:12.4g} {q3:12.4g} {spread:8.3f} {shown}  {verdict}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", help="runs per workload")
    parser.add_argument("--workloads", help="comma-separated subset for --steadiness")
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
