#!/usr/bin/env python3
"""Runs each benchmark workload N times, one seed per run, and prints per
metric the median, the quartiles and the relative spread (q3 - q1) / median
beside the metric's bound from BENCHMARK.json. Used to set the bounds and to
re-check them.

    python3 ledger/steadiness.py --runs 10 [--workloads replay,shard-ingest]
        [--first-seed 1]

A spread at or below a third of the bound is marked "steady", one within
the bound "within", a wider one "WIDE". The share of failed operations must
be identical across runs; it is printed per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "ledger", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    for w in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, wall = run_once(w, seed, bench["run_seconds"])
            results.append({"seed": seed, "wall_s": wall, **res})
            print(f"{w} seed {seed}: {wall:.1f} s, correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {args.runs} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed shares: {sorted(shares)}, max wall {max(r['wall_s'] for r in results):.1f} s")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            verdict = "steady" if spread <= bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"  {m['name']:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                  f"{bound:>6} {verdict}")
        print(flush=True)


if __name__ == "__main__":
    main()
