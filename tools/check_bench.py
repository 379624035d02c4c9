#!/usr/bin/env python3
"""Perf-regression gate over the machine-readable bench trajectories.

Compares freshly generated BENCH_*.json files (micro_benchmarks emits
BENCH_sa.json, BENCH_obs.json and BENCH_kernel.json,
fig7_overhead_scalability emits BENCH_epoch.json, fig_shard_scaling emits
BENCH_shard.json, fig_fleet, fig_latency and fig_slo emit BENCH_fleet.json,
BENCH_latency.json and BENCH_slo.json) against the baselines committed at
the repo root.
Fails when a hot-path time metric regresses by more than --max-regress
(default 25%), or when the allocation count per optimizer call / epoch
pass increases at all -- the zero-alloc inner loop is a hard invariant,
not a soft budget.

A baseline section may carry its own "max_regress" key, which overrides
the command-line value for that section. BENCH_obs.json uses this to
hold the observability-off epoch pass to a 1% budget over the
pre-observability (PR 2) hot path. Because absolute pass times are not
comparable across runners, the gated metric there is pass_cost_index --
the minimum pass CPU time divided by the minimum CPU time of a fixed
integer yardstick loop measured interleaved in the same run. Machine
speed cancels in the ratio, so a 1% budget is meaningful even when the
fresh run executes on different hardware than the committed baseline.
BENCH_kernel.json uses the same index for the kernel's run time over a
fixed simulated window, at the default budget.

Usage:
    check_bench.py [--max-regress 0.25] [--step-summary "$GITHUB_STEP_SUMMARY"]
                   BASELINE FRESH [BASELINE FRESH ...]

Exit status: 0 when every gated metric is within bounds, 1 otherwise.
"""

import argparse
import json
import sys

# Time (or normalized-time) metrics gated by --max-regress. Per-phase
# microsecond splits (sense_us, optimize_us, ...) are reported but not
# gated: they jitter too much on shared CI runners, while the aggregates
# below are stable. pass_cost_index is dimensionless (yardstick-normalized
# CPU time), which is what lets BENCH_obs pin it to a 1% section budget.
RATIO_METRICS = ("ns_per_iteration", "total_us", "pass_cost_index",
                 "opt_exchange_us_per_core")
# Metrics where any increase is a failure. sublinear_violations counts
# scale steps in the sharded-scaling sweep where optimize+exchange CPU
# per core failed to drop -- the tentpole claim of the sharded balancer
# is that this stays at zero, so any increase over the committed
# baseline (itself zero) is a hard failure.
EXACT_METRICS = ("allocs_per_call", "allocs_per_pass", "sublinear_violations")
# Tolerance for float noise in "exact" comparisons.
EPSILON = 1e-9


def sections(doc):
    """Yields (name, dict) for every benchmark section in a BENCH json."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield key, value


def compare(baseline_path, fresh_path, max_regress, rows):
    """Gates one baseline/fresh pair. Appends per-metric result rows
    (metric label, baseline, fresh, bound label, ok) to `rows` for the
    --step-summary table and returns the list of violations."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    name = baseline.get("bench", baseline_path)
    failures = []
    checked = 0

    fresh_sections = dict(sections(fresh))
    for sec_name, base_sec in sections(baseline):
        fresh_sec = fresh_sections.get(sec_name)
        if fresh_sec is None:
            failures.append(f"{name}/{sec_name}: section missing from fresh run")
            continue
        # A baseline section may pin its own regression budget (the
        # observability-off path is held to 1% regardless of the CLI).
        sec_regress = base_sec.get("max_regress", max_regress)
        for metric in RATIO_METRICS:
            if metric not in base_sec or metric not in fresh_sec:
                continue
            base_v, fresh_v = base_sec[metric], fresh_sec[metric]
            checked += 1
            limit = base_v * (1.0 + sec_regress)
            status = "FAIL" if fresh_v > limit else "ok"
            print(f"  [{status}] {name}/{sec_name}/{metric}: "
                  f"{base_v:.3f} -> {fresh_v:.3f} "
                  f"({(fresh_v / base_v - 1.0) * 100.0:+.1f}%, "
                  f"limit {limit:.3f})")
            rows.append((f"{name}/{sec_name}/{metric}", f"{base_v:.3f}",
                         f"{fresh_v:.3f}",
                         f"≤ +{sec_regress * 100.0:.0f}%",
                         fresh_v <= limit))
            if fresh_v > limit:
                failures.append(
                    f"{name}/{sec_name}/{metric}: {fresh_v:.3f} exceeds "
                    f"{base_v:.3f} by more than {sec_regress * 100.0:.0f}%")
        for metric in EXACT_METRICS:
            if metric not in base_sec or metric not in fresh_sec:
                continue
            base_v, fresh_v = base_sec[metric], fresh_sec[metric]
            checked += 1
            status = "FAIL" if fresh_v > base_v + EPSILON else "ok"
            print(f"  [{status}] {name}/{sec_name}/{metric}: "
                  f"{base_v:g} -> {fresh_v:g} (no increase allowed)")
            rows.append((f"{name}/{sec_name}/{metric}", f"{base_v:g}",
                         f"{fresh_v:g}", "no increase",
                         fresh_v <= base_v + EPSILON))
            if fresh_v > base_v + EPSILON:
                failures.append(
                    f"{name}/{sec_name}/{metric}: increased "
                    f"{base_v:g} -> {fresh_v:g}")
        # A baseline section may pin absolute ceilings on chosen metrics
        # ("max_allowed": {"advantage_lost_pct": 5.0}). Unlike the ratio
        # gates these do not compare against the baseline value -- they
        # bound the fresh value directly, which is the right shape for
        # quality metrics that must never exceed a spec'd budget no
        # matter what the committed run happened to measure.
        for metric, ceiling in base_sec.get("max_allowed", {}).items():
            fresh_v = fresh_sec.get(metric)
            if fresh_v is None:
                failures.append(
                    f"{name}/{sec_name}/{metric}: ceiling {ceiling:g} set "
                    "but metric missing from fresh run")
                continue
            checked += 1
            status = "FAIL" if fresh_v > ceiling + EPSILON else "ok"
            print(f"  [{status}] {name}/{sec_name}/{metric}: "
                  f"{fresh_v:g} (ceiling {ceiling:g})")
            rows.append((f"{name}/{sec_name}/{metric}", "—", f"{fresh_v:g}",
                         f"≤ {ceiling:g}", fresh_v <= ceiling + EPSILON))
            if fresh_v > ceiling + EPSILON:
                failures.append(
                    f"{name}/{sec_name}/{metric}: {fresh_v:g} exceeds "
                    f"ceiling {ceiling:g}")
    if checked == 0:
        failures.append(f"{name}: no gated metrics found -- "
                        "baseline/fresh schema mismatch?")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", metavar="BASELINE FRESH",
                        help="alternating baseline/fresh json paths")
    parser.add_argument("--max-regress", type=float, default=0.25,
                        help="max fractional time regression (default 0.25)")
    parser.add_argument("--step-summary",
                        help="append a markdown results table to this file "
                             "(pass $GITHUB_STEP_SUMMARY in CI)")
    args = parser.parse_args()

    if len(args.files) % 2 != 0:
        parser.error("expected an even number of paths: BASELINE FRESH ...")

    all_failures = []
    rows = []
    for i in range(0, len(args.files), 2):
        baseline, fresh = args.files[i], args.files[i + 1]
        print(f"{baseline} vs {fresh}:")
        all_failures += compare(baseline, fresh, args.max_regress, rows)

    if args.step_summary:
        with open(args.step_summary, "a") as f:
            f.write("### Perf gate\n\n")
            f.write("| Metric | Baseline | Fresh | Bound | Status |\n")
            f.write("|---|---|---|---|---|\n")
            for metric, base_v, fresh_v, bound, ok in rows:
                f.write(f"| `{metric}` | {base_v} | {fresh_v} | {bound} "
                        f"| {'✅' if ok else '❌'} |\n")
            f.write(f"\n**{len(rows)} metric(s) checked, "
                    f"{len(all_failures)} violation(s).**\n\n")

    if all_failures:
        print(f"\nPERF GATE FAILED ({len(all_failures)} violation(s)):",
              file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
