#!/usr/bin/env python3
"""End-to-end benchmark of the simulator (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator library and the perfbench binary from the checkout's
sources into .bench_build/ (CMake; build output goes to stderr), then runs
one workload. The last line of stdout is the JSON result: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1 (spans are written
to .bench_build/spans/<workload>.tsv).

Steadiness check:
    python3 perfbench/run.py --steadiness --workload <name|all> --runs 10 \
        --first-seed 1 --seconds <s>

Runs a workload once per seed and prints, per end-to-end metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the bound recorded in BENCHMARK.json.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BUILD_JOBS = "4"


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    out = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=out, stderr=out)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=out, stderr=out)
    return BUILD_DIR / "perfbench"


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"{workload}.tsv")]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True)


def steadiness(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    worst = 0.0
    for workload in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = run_once(binary, workload, seed, args.seconds, 0, True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed={seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            for line in lines[:-1]:
                if " runs" in line:
                    print(f"  {line}")
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if name != "setup_s" and bound:
                worst = max(worst, spread / bound)
            print(f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}")
        print(flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if not args.steadiness and (args.seed is None or args.trace is None):
        parser.error("--seed and --trace are required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: building the benchmark failed: {err}", file=sys.stderr)
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    sys.stdout.flush()
    return run_once(binary, args.workload, args.seed, args.seconds,
                    args.trace, False).returncode


if __name__ == "__main__":
    sys.exit(main())
