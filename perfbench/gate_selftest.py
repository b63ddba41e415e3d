#!/usr/bin/env python3
"""Gate-sensitivity self-test: the bounds are not blind.

Injects a busy-spin into one seam wrapper, sized so a workload that calls
the seam throughout its timed window loses exactly the bound of
``sim_days_per_s``, and checks two things on paired runs (same seed,
injected and clean back to back):

* the workload that uses the seam drops by at least two thirds of the
  bound (a bound-sized regression shows);
* the workload that never calls the seam moves by less than a third of
  the bound (the injection is attributed to the right seam).

    python3 perfbench/gate_selftest.py            # seeds 21-23, 5 s runs
    python3 perfbench/gate_selftest.py --seeds 21-25 --seconds 10

Exits 1 if either check fails.
"""

import argparse
import statistics
import sys

from spread import benchmark, run_once, seeds_from

# (seam, workload that calls it, workload that never does)
PLAN = [
    ("device.put", "phone_life", "cache_churn"),
    ("ftl.put", "cache_churn", "phone_life"),
]
METRIC = "sim_days_per_s"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="21-23")
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    bound = next(m["bound"] for m in benchmark()["end_to_end"] if m["name"] == METRIC)
    failures = 0
    for seam, uses, bypasses in PLAN:
        for workload, must_move in ((uses, True), (bypasses, False)):
            injection = ["--inject-slowdown", f"{seam}={bound}"]
            ratios = []
            for index, seed in enumerate(seeds_from(args.seeds)):
                arms = [(), injection] if index % 2 == 0 else [injection, ()]
                values = {}
                for extra in arms:
                    result, _, _ = run_once(workload, seed, args.seconds, 0, extra)
                    if not result["correct"]:
                        raise SystemExit(f"{workload} seed {seed} {extra}: incorrect result")
                    values[bool(extra)] = result["metrics"][METRIC]["value"]
                ratios.append(values[True] / values[False])
            change = 1.0 - statistics.median(ratios)
            if must_move:
                ok = change >= bound * 2 / 3
                rule = f"drop >= {bound * 2 / 3:.3f}"
            else:
                ok = abs(change) < bound / 3
                rule = f"|change| < {bound / 3:.3f}"
            failures += not ok
            print(f"{seam:>12} -> {workload:<12} {METRIC}: injected/clean "
                  f"{[round(r, 3) for r in ratios]}, change {change:+.3f} ({rule}) "
                  f"{'ok' if ok else 'FAIL'}", flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
