#!/usr/bin/env python3
"""Repeat benchmark runs and summarise them, or compare two checkouts.

Spread of one checkout (run from its root):

    python3 bench/e2e/compare.py --workload parsec_sweep --seed 1234 --runs 10
    python3 bench/e2e/compare.py --workload parsec_sweep --seeds 1-10

prints, per metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, beside the metric's bound from
BENCHMARK.json.

Comparison of this checkout (the change) with another (the parent):

    python3 bench/e2e/compare.py --workload parsec_sweep --seed 1234 --runs 10 \\
        --base ../parent

runs the two in alternating pairs (the parent first in even pairs) with
identical settings, and reports per metric both medians and quartiles, how
many pairs the change won, and a verdict: "gain" when it won at least 9 of
10 pairs and the medians differ by more than the parent's own spread
(Q3 - Q1), else "unresolved" when the parent's spread exceeds the bound,
"regression" when the change's median is worse by more than the bound, and
"same" otherwise. Repeat with --seed 7 (held out) before claiming a gain.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"compare.py: run failed in {root}: {' '.join(cmd)}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / abs(med) if med else float("inf")


def seeds_of(args):
    if args.seeds:
        lo, _, hi = args.seeds.partition("-")
        return list(range(int(lo), int(hi or lo) + 1))
    return [args.seed] * args.runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", help="a range A-B: one run per seed")
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", help="root of the checkout to compare against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = args.seconds or benchmark["run_seconds"]
    runs = {"change": [], "base": []}
    for i, seed in enumerate(seeds_of(args)):
        sides = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in sides if args.base else ["change"]:
            root = os.path.abspath(args.base) if side == "base" else ROOT
            runs[side].append(run_once(root, args.workload, seed, seconds,
                                       args.trace))

    change = runs["change"]
    print(f"{args.workload}: {len(change)} run(s) per side")
    for name in change[0]:
        values = [r[name] for r in change]
        q1, med, q3, spread = summary(values)
        m = spec.get(name, {})
        bound = m.get("bound")
        line = (f"{name:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                f"  spread {spread:7.4f}")
        if bound is not None:
            line += f"  bound {bound}"
        if args.base:
            base = [r[name] for r in runs["base"]]
            bq1, bmed, bq3, bspread = summary(base)
            sign = -1 if m.get("better") == "lower" else 1
            wins = sum(sign * (c - b) > 0 for c, b in zip(values, base))
            worse = sign * (bmed - med) / abs(bmed) if bmed else 0.0
            if wins >= 0.9 * len(base) and abs(med - bmed) > bq3 - bq1:
                verdict = "gain"
            elif bound is not None and bspread > bound:
                verdict = "unresolved"
            elif bound is not None and worse > bound:
                verdict = "regression"
            else:
                verdict = "same"
            line += (f"\n{'':28s} base   {bmed:14.6g}  q1 {bq1:14.6g}  q3 "
                     f"{bq3:14.6g}  wins {wins}/{len(base)}  {verdict}")
        print(line)


if __name__ == "__main__":
    main()
