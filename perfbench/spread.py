#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one or more workloads once per seed and prints, for every metric,
the median and the quartile spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median) next
to the metric's bound from BENCHMARK.json. A spread at or above a third
of the bound is flagged.

    python3 perfbench/spread.py --workload phone_life --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --trace 1

Run from the repository root after building the benchmark once (the
first run of ``cargo run`` builds it).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_from(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace, extra=()):
    bench = benchmark()
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    fingerprint = lines[-2] if len(lines) > 1 else ""
    return result, fingerprint, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bench = benchmark()
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {}
        walls = []
        for seed in seeds_from(args.seeds):
            result, fingerprint, wall = run_once(workload, seed, seconds, args.trace)
            walls.append(wall)
            status = "ok" if result["correct"] and result["failed"] == 0 else "INCORRECT"
            print(f"{workload} seed {seed}: {wall:.1f}s wall, {status}, {fingerprint}",
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f}s,"
              f" max {max(walls):.1f}s")
        for name, series in values.items():
            if len(series) < 2:
                continue
            median, share = spread(series)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, share / bound)
                flag = "  <-- at or above bound/3" if share >= bound / 3 else ""
            bound_text = f"bound {bound}" if bound is not None else ""
            print(f"  {name:32s} median {median:14.6g}  spread {share:7.2%}  {bound_text}{flag}")
            print("    " + " ".join(f"{value:.6g}" for value in series))
        print()
    if args.trace == 0:
        print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
