#!/usr/bin/env python3
"""Repeat perfbench/run.py over seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--trace 0]
                                [--out set.json] [--against other.json]

Runs every workload once per seed 1..10 from the current checkout,
each run BENCHMARK.json's run_seconds long, and prints, per workload
and metric, the median, the quartiles (statistics.quantiles, n=4) and
the interquartile distance as a share of the median next to a third of
the metric's bound. --out saves the result set with its host stamp.
--against compares medians with a saved set and refuses when the
stamps differ in host shape (nproc, compiler, build type, threads,
knob list); the commit may differ. Exits 1 when a spread exceeds its
metric's bound, or a median is worse than the saved one by more than
the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)
SAME_HOST = ("nproc", "compiler", "build_type", "threads",
             "snoc_knobs_unset", "snoc_knobs_scrubbed")


def run_once(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True)
    lines = r.stdout.strip().split("\n")
    stamp = next(json.loads(line.split(": ", 1)[1]) for line in lines
                 if line.startswith("perfbench stamp: "))
    result = json.loads(lines[-1])
    if r.returncode != 0 or not result["correct"]:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return stamp, result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    higher = {m["name"] for m in listed if m["better"] == "higher"}
    stamp, runs = None, {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in SEEDS:
            stamp, result = run_once(w, seed, spec["run_seconds"],
                                     args.trace)
            runs[w].append(result)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in
                result["metrics"].items() if k in bounds), flush=True)

    worst, over = 0.0, []
    for w, results in runs.items():
        for name, bound in bounds.items():
            med, q1, q3, share = summarize(
                [r["metrics"][name]["value"] for r in results])
            limit = f"{bound / 3:.3f}" if bound else "-"
            if bound:
                worst = max(worst, share * 3 / bound)
                if share > bound:
                    over.append(f"{w} {name} spread")
            print(f"{w:20s} {name:28s} median {med:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  iqr/median {share:.4f}  (bound/3 {limit})")
    if bounds and any(bounds.values()):
        print(f"largest spread as a share of bound/3: {worst:.2f}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"stamp": stamp, "trace": args.trace, "runs": runs},
                      f, indent=1)
    if args.against:
        with open(args.against) as f:
            other = json.load(f)
        diff = [k for k in SAME_HOST
                if other["stamp"].get(k) != stamp.get(k)]
        if diff or other.get("trace") != args.trace:
            raise SystemExit("refusing to compare: stamps differ in "
                             + ", ".join(diff or ["trace mode"]))
        for w, results in runs.items():
            for name, bound in bounds.items():
                if w not in other["runs"]:
                    continue
                new = statistics.median(
                    r["metrics"][name]["value"] for r in results)
                old = statistics.median(
                    r["metrics"][name]["value"] for r in other["runs"][w])
                change = (new - old) / old if old else float("inf")
                worse = -change if name in higher else change
                if bound and worse > bound:
                    over.append(f"{w} {name} median")
                print(f"{w:20s} {name:28s} {old:.6g} -> {new:.6g} "
                      f"({change:+.2%}, bound {bound})")
    for o in over:
        print(f"over bound: {o}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
