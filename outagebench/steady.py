#!/usr/bin/env python3
"""Steadiness check for the outagebench workloads.

Runs every chosen workload N times, alternating the workload order from
round to round and giving each run its own seed, then prints for every
metric the median, the first and third quartiles and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json sets for it. The
quartiles are Python's statistics.quantiles(values, n=4).

Usage, from the repository root:

    python3 outagebench/steady.py --runs 10 [--workloads offline,serve_faults]
                                  [--seconds 10] [--trace 0] [--first-seed 1]
                                  [--values]

The first run builds the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--values", action="store_true",
                   help="also print every run's value of every metric")
    a = p.parse_args()
    workloads = a.workloads.split(",")
    for w in workloads:
        if w not in names:
            raise SystemExit(f"unknown workload {w}")

    metrics = spec["per_layer"] if a.trace else spec["end_to_end"]
    results = {w: [] for w in workloads}
    seed = a.first_seed
    for r in range(a.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            out = run_once(spec["command"], w, seed, a.seconds, a.trace)
            results[w].append(out)
            print(f"run {r + 1}/{a.runs} {w} seed {seed}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}",
                  file=sys.stderr)
            seed += 1

    worst = 0.0
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {shares}")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                if spread > bound / 3:
                    flag = "  > bound/3"
            b = f"{bound:>6}" if bound is not None else f"{'-':>6}"
            print(f"  {m['name']:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {b}{flag}")
            if a.values:
                print("      " + " ".join(f"{v:.5g}" for v in vals))
    if not a.trace:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
