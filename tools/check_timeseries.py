#!/usr/bin/env python3
"""Validate a SmartBalance `#sb-tsdb v1` telemetry export.

Checks the CSV rendering (``--timeseries=<file>``) or the JSON rendering
(``--timeseries=<file>.json``) against tools/timeseries_schema.json plus
semantic invariants the schema language cannot express:

  * header ``#sb-tsdb v1`` and a ``#columns`` line matching the schema;
  * run blocks ordered by strictly increasing run index, each with a
    ``#meta <idx> window_ns=<ns>`` line (window > 0);
  * sample rows shaped ``sample,<t_ns>,<signal>,<value>`` with
    nondecreasing timestamps inside a run block and timestamps aligned to
    frame boundaries (every t_ns appears in a contiguous group);
  * ``#counters`` bookkeeping: samples == rows held in the block, frames
    >= distinct frame timestamps held, dropped consistent with that gap;
  * ``#summary runs=N`` equal to the number of run blocks.

Exits 0 when valid, 1 with per-line errors otherwise.  Stdlib only, like
check_trace.py / check_audit.py — usable as a ctest fixture and in CI.

Usage:
  tools/check_timeseries.py export.csv [--schema tools/timeseries_schema.json]
      [--require-signals je,gips.big] [--min-frames 10] [--require-slo]
      [--require-runs 1] [--quiet]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from schema_subset import MAX_ERRORS, validate


def load_schema(path: Path) -> dict:
    with path.open() as f:
        schema = json.load(f)
    if schema.get("schema") != "sb-tsdb":
        raise SystemExit(f"{path}: not a sb-tsdb schema document")
    return schema


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------

class RunBlock:
    def __init__(self, index, label, lineno):
        self.index = index
        self.label = label
        self.lineno = lineno
        self.window_ns = None
        self.rows = []          # (lineno, t_ns, signal, value)
        self.counters = None    # dict samples/frames/dropped


def parse_csv(path: Path, schema: dict, errors: list) -> list:
    columns = ",".join(schema["columns"]["sample"])
    counter_keys = schema["counters"]
    lines = path.read_text().splitlines()
    if not lines:
        errors.append(f"{path}: empty file")
        return []
    if lines[0] != f"#sb-tsdb v{schema['version']}":
        errors.append(f"line 1: bad header {lines[0]!r} "
                      f"(want '#sb-tsdb v{schema['version']}')")
        return []
    if len(lines) < 2 or lines[1] != f"#columns sample {columns}":
        errors.append(f"line 2: bad #columns line "
                      f"(want '#columns sample {columns}')")
        return []

    runs = []
    cur = None
    summary_runs = None
    for lineno, line in enumerate(lines[2:], start=3):
        if len(errors) >= MAX_ERRORS:
            break
        if line.startswith("#run "):
            parts = line.split(" ", 2)
            try:
                idx = int(parts[1])
            except (IndexError, ValueError):
                errors.append(f"line {lineno}: malformed #run line")
                continue
            label = parts[2] if len(parts) > 2 else ""
            if runs and idx <= runs[-1].index:
                errors.append(f"line {lineno}: run index {idx} not "
                              f"increasing (prev {runs[-1].index})")
            cur = RunBlock(idx, label, lineno)
            runs.append(cur)
        elif line.startswith("#meta "):
            parts = line.split()
            if cur is None or len(parts) < 3 or parts[1] != str(cur.index):
                errors.append(f"line {lineno}: #meta outside run block or "
                              "index mismatch")
                continue
            for kv in parts[2:]:
                k, _, v = kv.partition("=")
                if k == "window_ns":
                    try:
                        cur.window_ns = int(v)
                    except ValueError:
                        errors.append(f"line {lineno}: bad window_ns {v!r}")
            if cur.window_ns is None or cur.window_ns <= 0:
                errors.append(f"line {lineno}: #meta missing positive "
                              "window_ns")
        elif line.startswith("#counters "):
            parts = line.split()
            if cur is None or len(parts) < 2 or parts[1] != str(cur.index):
                errors.append(f"line {lineno}: #counters outside run block "
                              "or index mismatch")
                continue
            vals = {}
            for kv in parts[2:]:
                k, _, v = kv.partition("=")
                try:
                    vals[k] = int(v)
                except ValueError:
                    errors.append(f"line {lineno}: bad counter {kv!r}")
            for key in counter_keys:
                if key not in vals:
                    errors.append(f"line {lineno}: #counters missing "
                                  f"'{key}'")
            cur.counters = vals
        elif line.startswith("#summary "):
            _, _, kv = line.partition(" ")
            k, _, v = kv.partition("=")
            if k != "runs":
                errors.append(f"line {lineno}: malformed #summary line")
                continue
            try:
                summary_runs = int(v)
            except ValueError:
                errors.append(f"line {lineno}: bad runs count {v!r}")
        elif line.startswith("sample,"):
            if cur is None:
                errors.append(f"line {lineno}: sample row before any #run")
                continue
            fields = line.split(",", 3)
            if len(fields) != 4:
                errors.append(f"line {lineno}: expected 4 fields, got "
                              f"{len(fields)}")
                continue
            try:
                t_ns = int(fields[1])
            except ValueError:
                errors.append(f"line {lineno}: bad t_ns {fields[1]!r}")
                continue
            if not fields[2]:
                errors.append(f"line {lineno}: empty signal name")
                continue
            try:
                value = float(fields[3])
            except ValueError:
                errors.append(f"line {lineno}: bad value {fields[3]!r}")
                continue
            cur.rows.append((lineno, t_ns, fields[2], value))
        elif line.startswith("#"):
            errors.append(f"line {lineno}: unknown directive {line!r}")
        else:
            errors.append(f"line {lineno}: unrecognized row {line!r}")

    if summary_runs is None:
        errors.append(f"{path}: missing #summary line")
    elif summary_runs != len(runs):
        errors.append(f"#summary runs={summary_runs} but {len(runs)} run "
                      "block(s) present")
    return runs


def check_csv_semantics(runs: list, errors: list):
    for run in runs:
        if run.window_ns is None:
            errors.append(f"run {run.index}: no #meta line")
        if run.counters is None:
            errors.append(f"run {run.index}: no #counters line")
        prev_t = -1
        frame_ts = []
        for lineno, t_ns, _signal, _value in run.rows:
            if t_ns < prev_t:
                errors.append(f"line {lineno}: t_ns {t_ns} decreases "
                              f"(prev {prev_t}) in run {run.index}")
            if t_ns != prev_t:
                if t_ns in frame_ts:
                    errors.append(f"line {lineno}: frame t_ns {t_ns} "
                                  f"reopened in run {run.index} (rows of one "
                                  "frame must be contiguous)")
                frame_ts.append(t_ns)
            prev_t = t_ns
        if run.counters is not None:
            samples = run.counters.get("samples")
            frames = run.counters.get("frames")
            dropped = run.counters.get("dropped", 0)
            if samples is not None and samples != len(run.rows):
                errors.append(f"run {run.index}: #counters samples="
                              f"{samples} but {len(run.rows)} rows held")
            if frames is not None and frames < len(frame_ts):
                errors.append(f"run {run.index}: #counters frames={frames} "
                              f"< {len(frame_ts)} distinct frame timestamps")
            if dropped == 0 and frames is not None and run.rows and \
                    frames > len(frame_ts):
                errors.append(f"run {run.index}: frames={frames} exceeds "
                              f"{len(frame_ts)} held frames with dropped=0")


def csv_signals(runs: list) -> set:
    return {signal for run in runs for (_, _, signal, _) in run.rows}


def csv_frames(runs: list) -> int:
    counts = []
    for run in runs:
        counts.append(len({t for (_, t, _, _) in run.rows}))
    return min(counts) if counts else 0


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def parse_json(path: Path, schema: dict, errors: list) -> list:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        errors.append(f"{path}: invalid JSON: {e}")
        return []
    validate(doc, schema["json"], "$", errors)
    if errors:
        return []
    if doc["version"] != schema["version"]:
        errors.append(f"$.version: {doc['version']} != schema version "
                      f"{schema['version']}")
    runs = []
    prev_idx = -1
    for i, run in enumerate(doc["runs"]):
        if run["run"] <= prev_idx:
            errors.append(f"$.runs[{i}].run: index {run['run']} not "
                          f"increasing (prev {prev_idx})")
        prev_idx = run["run"]
        block = RunBlock(run["run"], run["label"], 0)
        block.window_ns = run["window_ns"]
        block.counters = {"samples": len(run["samples"]),
                          "frames": run["frames"],
                          "dropped": run["dropped"]}
        prev_t = -1
        for j, row in enumerate(run["samples"]):
            where = f"$.runs[{i}].samples[{j}]"
            if len(row) != 3:
                errors.append(f"{where}: expected [t_ns, signal, value]")
                continue
            t_ns, signal, value = row
            if not isinstance(t_ns, int) or isinstance(t_ns, bool) \
                    or t_ns < 0:
                errors.append(f"{where}[0]: bad t_ns {t_ns!r}")
                continue
            if not isinstance(signal, str) or not signal:
                errors.append(f"{where}[1]: bad signal {signal!r}")
                continue
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, float))):
                errors.append(f"{where}[2]: bad value {value!r}")
                continue
            if t_ns < prev_t:
                errors.append(f"{where}: t_ns decreases ({t_ns} < {prev_t})")
            prev_t = t_ns
            block.rows.append((0, t_ns, signal,
                               math.nan if value is None else float(value)))
        runs.append(block)
    return runs


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Validate a #sb-tsdb telemetry export")
    ap.add_argument("export", type=Path, help="CSV or .json export path")
    ap.add_argument("--schema", type=Path,
                    default=Path(__file__).parent / "timeseries_schema.json")
    ap.add_argument("--require-signals", default="",
                    help="comma-separated signal names that must appear")
    ap.add_argument("--min-frames", type=int, default=0,
                    help="minimum distinct frame timestamps per run block")
    ap.add_argument("--require-slo", action="store_true",
                    help="require slo.burn.* rows (an SLO engine ran)")
    ap.add_argument("--require-runs", type=int, default=1,
                    help="minimum number of run blocks (default 1)")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    schema = load_schema(args.schema)
    errors: list = []
    if not args.export.exists():
        print(f"error: {args.export}: no such file", file=sys.stderr)
        return 1
    if args.export.suffix == ".json":
        runs = parse_json(args.export, schema, errors)
    else:
        runs = parse_csv(args.export, schema, errors)
        check_csv_semantics(runs, errors)

    if not errors:
        if len(runs) < args.require_runs:
            errors.append(f"{len(runs)} run block(s), need >= "
                          f"{args.require_runs}")
        signals = csv_signals(runs)
        for name in filter(None, args.require_signals.split(",")):
            if name not in signals:
                errors.append(f"required signal '{name}' absent "
                              f"(have {len(signals)} signals)")
        if args.require_slo and not any(s.startswith("slo.burn.")
                                        for s in signals):
            errors.append("--require-slo: no slo.burn.* rows present")
        if args.min_frames > 0:
            frames = csv_frames(runs)
            if frames < args.min_frames:
                errors.append(f"min held frames per run {frames} < "
                              f"--min-frames {args.min_frames}")

    if errors:
        for e in errors[:MAX_ERRORS]:
            print(f"error: {e}", file=sys.stderr)
        if len(errors) > MAX_ERRORS:
            print(f"... {len(errors) - MAX_ERRORS} more", file=sys.stderr)
        return 1
    if not args.quiet:
        total_rows = sum(len(r.rows) for r in runs)
        print(f"{args.export}: OK ({len(runs)} run(s), {total_rows} "
              f"sample(s), {len(csv_signals(runs))} signal(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
