#!/usr/bin/env python3
"""Determinism self-test for the benchmark.

Runs every workload small (capped op list, traced, one second), twice
at each of two seeds, and requires that equal seeds give equal op
lists, pair counts, decider counts and answer digests, and that
different seeds give different op lists. Also requires ok_pct-style
correctness: every run must report "correct": true.

Usage, from the repository root:

    python3 perfbench/tests/test_determinism.py

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py: builds edda-perfbench)

# Small enough to finish in seconds; large enough to reach every layer.
MAX_OPS = {"perfect-batch": 13, "random-exact": 40, "serve-edit": 13}
SEEDS = (7, 8)


def run_once(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1",
         "--max-ops", str(MAX_OPS[workload]),
         "--trace-out", os.path.join(run.build_dir(), "selftest-trace.jsonl")],
        capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    digest = next(line for line in out if line.startswith("digest "))
    ops, answers = (field.split("=")[1] for field in digest.split()[1:])
    metrics = result["metrics"]
    counts = {name: metrics[name]["value"] for name in metrics
              if name == "analysis.pairs" or name.startswith("deptest.decided.")}
    return {"correct": result["correct"], "ops": ops, "answers": answers,
            "counts": counts}


def main():
    binary = run.build()
    if binary is None:
        print("FAIL: benchmark build failed")
        return 1
    failures = []
    for workload in MAX_OPS:
        by_seed = {}
        for seed in SEEDS:
            first = run_once(binary, workload, seed)
            second = run_once(binary, workload, seed)
            for label, r in (("first", first), ("second", second)):
                if not r["correct"]:
                    failures.append(f"{workload} seed {seed}: {label} run "
                                    "reported incorrect output")
            for key in ("ops", "answers", "counts"):
                if first[key] != second[key]:
                    failures.append(f"{workload} seed {seed}: {key} differ "
                                    f"between runs: {first[key]} vs "
                                    f"{second[key]}")
            if first["counts"].get("analysis.pairs", 0) <= 0:
                failures.append(f"{workload} seed {seed}: no pairs analyzed")
            by_seed[seed] = first
        if by_seed[SEEDS[0]]["ops"] == by_seed[SEEDS[1]]["ops"]:
            failures.append(f"{workload}: seeds {SEEDS} gave the same op list")
        print(f"{workload}: checked seeds {SEEDS}")
    for f in failures:
        print("FAIL:", f)
    print("determinism self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
