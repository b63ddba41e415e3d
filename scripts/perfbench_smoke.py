#!/usr/bin/env python3
"""Correctness smoke for the reference benchmark.

Runs every workload that BENCHMARK.json declares once, briefly, through
BENCHMARK.json's own command, and fails unless each run's result line
reports ``"correct": true`` and ``"failed": 0``. Timings are not judged
here: BENCHMARK.json's bounds judge them, on paired runs of the parent
and the change.

    python3 scripts/perfbench_smoke.py

Exits 1 if any workload is incorrect, reports a failed operation, or
does not print a result line.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARGS = ["--seed", "1", "--seconds", "1", "--trace", "0"]


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        command = benchmark["command"] + ["--workload", workload] + ARGS
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            ok = run.returncode == 0 and result["correct"] is True and result["failed"] == 0
            verdict = f"correct={result['correct']} failed={result['failed']}"
        except (IndexError, KeyError, ValueError):
            ok, verdict = False, "no result line"
        print(f"{workload:>14}: {verdict} (exit {run.returncode}) -> {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1
            sys.stderr.write(run.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
