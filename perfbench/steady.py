"""Steadiness check: two interleaved sets of runs of the same code.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workloads wire-line,reef-loop]

For every workload it makes ``--runs`` runs of set A (seeds 1..N) and of
set B (seeds 101..100+N), interleaved A B B A ... so slow spells of the
machine fall on both sets, each run a fresh process started with the
command and the run length in BENCHMARK.json.  Per (workload, end-to-end
metric) it prints each set's median, A's quartiles, each set's spread
(quartile distance over the median, taken within the set) and the gap
between the two medians (positive where B is worse), all against the
metric's bound, plus each set's share of failed operations.  The bounds
in BENCHMARK.json were set from this output.  Raw results go to
``perfbench/out/steady.json``.  Exits 1, and says so on its last line,
if any spread or the size of any gap exceeds its bound, a run was not
correct, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({' '.join(argv)}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results: Dict[str, Dict[str, list]] = {}
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for index in range(args.runs):
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for label in order:
                seed = index + 1 + (100 if label == "B" else 0)
                sets[label].append(
                    run_once(spec["command"], workload, seed, spec["run_seconds"]))
                print(f"{workload} set {label} seed {seed} done", file=sys.stderr, flush=True)
        results[workload] = sets

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)

    out_of_bounds = 0
    header = (f"{'workload':16s} {'metric':18s} {'median A':>11s} {'q1-q3 A':>23s} "
              f"{'median B':>11s} {'spread A':>8s} {'spread B':>8s} {'B worse':>8s} {'bound':>6s}")
    print(header)
    for workload, sets in results.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            q1, median_a, q3 = statistics.quantiles(a, n=4)
            median_b = statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b))
            within = abs(worse) <= bound and max(spreads) <= bound
            out_of_bounds += not within
            print(f"{workload:16s} {name:18s} {median_a:11.4f} {q1:11.4f}-{q3:11.4f} "
                  f"{median_b:11.4f} {spreads[0]:8.3f} {spreads[1]:8.3f} {worse:8.3f} "
                  f"{bound:6.2f}{'' if within else '  OUT'}")
        shares = []
        for label in ("A", "B"):
            attempted = sum(r["attempted"] for r in sets[label])
            failed = sum(r["failed"] for r in sets[label])
            shares.append(failed / attempted)
            out_of_bounds += sum(not r["correct"] for r in sets[label])
        out_of_bounds += shares[0] != shares[1]
        print(f"{workload:16s} failed share A {shares[0]:.6f} B {shares[1]:.6f}")
    print(f"steady: {out_of_bounds} check(s) out of bounds, exit {1 if out_of_bounds else 0}")
    return 1 if out_of_bounds else 0


if __name__ == "__main__":
    sys.exit(main())
