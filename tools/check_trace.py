#!/usr/bin/env python3
"""Validates a SmartBalance Chrome trace-event JSON export.

Two layers of checking, both stdlib-only (CI has no jsonschema package):

1. Structural: the file validates against the checked-in minimal schema
   (tools/trace_schema.json) -- a small subset of JSON Schema draft-07
   (type / required / properties / items / enum / minimum) interpreted
   by tools/schema_subset.py.
2. Semantic (beyond what a schema can say): 'X' events carry ts+dur,
   'i' events carry ts+s, every event's args include the epoch number,
   and the summary block's event count matches the payload.

With --require-epoch the trace must additionally contain at least one
sense, predict and balance span and at least one migration instant --
the acceptance shape of a fig4a-style SmartBalance run.

Whenever shard.pass / shard.exchange spans are present (a --shards=K
run), each one must nest strictly inside the 'epoch' span of its own
(pid, epoch) pair, and spans sharing a (pid, epoch, args.worker) lane
must not overlap. --require-shards makes the presence of at least one
shard.pass span mandatory.

Whenever fleet.quantum / fleet.dispatch events are present (a --fleet=N
run), every dispatch instant must land inside the fleet.quantum span of
its own (pid, epoch) pair and the quantum spans of one pid must not
overlap. --require-fleet makes their presence mandatory.

Usage:
    check_trace.py TRACE.json [--schema tools/trace_schema.json]
                   [--require-epoch] [--require-shards] [--require-fleet]

Exit status: 0 if valid, 1 otherwise (violations on stderr).
"""

import argparse
import json
import os
import sys

from schema_subset import validate

def semantic_checks(doc, errors):
    """Constraints the schema subset can't express."""
    events = doc.get("traceEvents", [])
    payload = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            continue
        path = f"traceEvents[{i}]"
        ph = ev.get("ph")
        if ph == "X":
            payload += 1
            for key in ("ts", "dur"):
                if key not in ev:
                    errors.append(f"{path}: span missing '{key}'")
        elif ph == "i":
            payload += 1
            if "ts" not in ev:
                errors.append(f"{path}: instant missing 'ts'")
            if ev.get("s") not in ("t", "p", "g"):
                errors.append(f"{path}: instant missing scope 's'")
        if ph in ("X", "i"):
            args = ev.get("args")
            if not isinstance(args, dict) or "epoch" not in args:
                errors.append(f"{path}: args missing 'epoch'")
    summary = doc.get("smartbalance", {})
    if isinstance(summary, dict) and summary.get("events") != payload:
        errors.append(f"smartbalance.events={summary.get('events')} but the "
                      f"payload holds {payload} span/instant events")


def shard_shape_checks(doc, errors, required):
    """Per-shard span nesting under sharded balancing.

    Every 'shard.pass' span must sit strictly inside the 'epoch' span of
    its own (pid, epoch) pair, and spans sharing a worker lane -- same
    (pid, epoch, args.worker) -- must not overlap: one worker thread
    executes its shard passes sequentially, so overlap means the span
    layout lies about the schedule.
    """
    epochs = {}       # (pid, epoch) -> (ts, ts+dur)
    shard_spans = []  # ((pid, epoch, worker), name, ts, ts+dur, index)
    for i, ev in enumerate(doc.get("traceEvents", [])):
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        args = ev.get("args") or {}
        key = (ev.get("pid"), args.get("epoch"))
        ts, dur = ev.get("ts", 0), ev.get("dur", 0)
        if ev.get("name") == "epoch":
            epochs[key] = (ts, ts + dur)
        elif ev.get("name") in ("shard.pass", "shard.exchange"):
            shard_spans.append((key + (args.get("worker"),),
                                ev.get("name"), ts, ts + dur, i))
    if required and not any(n == "shard.pass" for _, n, _, _, _ in shard_spans):
        errors.append("--require-shards: no 'shard.pass' span ('X') events")
        return
    for (pid, epoch, worker), name, ts, end, i in shard_spans:
        enclosing = epochs.get((pid, epoch))
        if enclosing is None:
            errors.append(f"traceEvents[{i}]: '{name}' has no enclosing "
                          f"'epoch' span for (pid={pid}, epoch={epoch})")
        elif ts < enclosing[0] - 1e-3 or end > enclosing[1] + 1e-3:
            errors.append(
                f"traceEvents[{i}]: '{name}' [{ts}, {end}] escapes its "
                f"'epoch' span [{enclosing[0]}, {enclosing[1]}]")
    by_lane = {}
    for lane, name, ts, end, i in shard_spans:
        by_lane.setdefault(lane, []).append((ts, end, name, i))
    for lane, spans in by_lane.items():
        spans.sort()
        for (ts_a, end_a, name_a, i_a), (ts_b, end_b, name_b, i_b) in \
                zip(spans, spans[1:]):
            # Chained spans share boundaries; ns->us conversion can push the
            # predecessor's end a few ulps past the successor's start.
            if ts_b < end_a - 1e-3:
                errors.append(
                    f"traceEvents[{i_b}]: '{name_b}' [{ts_b}, {end_b}] "
                    f"overlaps '{name_a}' [{ts_a}, {end_a}] on worker lane "
                    f"(pid={lane[0]}, epoch={lane[1]}, worker={lane[2]})")


def fleet_shape_checks(doc, errors, required):
    """Fleet dispatch-layer span anatomy (a --fleet=N run).

    Every 'fleet.dispatch' instant must land inside the 'fleet.quantum'
    span of its own (pid, epoch) pair -- jobs are only placed at quantum
    boundaries, so a dispatch outside its quantum means the fleet timeline
    lies about when placement happened. fleet.quantum spans of one pid form
    a single sequential lane (one dispatcher), so they must not overlap.
    """
    quanta = {}      # (pid, epoch) -> (ts, ts+dur, index)
    dispatches = []  # ((pid, epoch), ts, index)
    for i, ev in enumerate(doc.get("traceEvents", [])):
        if not isinstance(ev, dict):
            continue
        args = ev.get("args") or {}
        key = (ev.get("pid"), args.get("epoch"))
        if ev.get("ph") == "X" and ev.get("name") == "fleet.quantum":
            ts, dur = ev.get("ts", 0), ev.get("dur", 0)
            quanta[key] = (ts, ts + dur, i)
        elif ev.get("ph") == "i" and ev.get("name") == "fleet.dispatch":
            dispatches.append((key, ev.get("ts", 0), i))
    if required:
        if not quanta:
            errors.append("--require-fleet: no 'fleet.quantum' span ('X') "
                          "events")
        if not dispatches:
            errors.append("--require-fleet: no 'fleet.dispatch' instant "
                          "('i') events")
        if not quanta:
            return
    for key, ts, i in dispatches:
        enclosing = quanta.get(key)
        if enclosing is None:
            errors.append(f"traceEvents[{i}]: 'fleet.dispatch' has no "
                          f"enclosing 'fleet.quantum' span for (pid={key[0]}, "
                          f"epoch={key[1]})")
        elif ts < enclosing[0] - 1e-3 or ts > enclosing[1] + 1e-3:
            errors.append(
                f"traceEvents[{i}]: 'fleet.dispatch' at {ts} escapes its "
                f"'fleet.quantum' span [{enclosing[0]}, {enclosing[1]}]")
    by_pid = {}
    for (pid, _), (ts, end, i) in quanta.items():
        by_pid.setdefault(pid, []).append((ts, end, i))
    for pid, spans in by_pid.items():
        spans.sort()
        for (ts_a, end_a, i_a), (ts_b, end_b, i_b) in zip(spans, spans[1:]):
            if ts_b < end_a - 1e-3:
                errors.append(
                    f"traceEvents[{i_b}]: 'fleet.quantum' [{ts_b}, {end_b}] "
                    f"overlaps 'fleet.quantum' [{ts_a}, {end_a}] on pid {pid}")


def sched_shape_checks(doc, errors, required):
    """Wake-to-run latency instants (an interactive / replayed run).

    'sched.wake' marks a Sleeping->Runnable transition, 'sched.run' the
    woken task's first dispatch. Every instant must carry args.tid;
    'sched.run' additionally carries the measured args.wait_ns (>= 0).
    Dispatches never outnumber wakes for one (pid, tid): each run instant
    consumes exactly one preceding wake (the trailing wake of a task still
    queued at the end of the run stays unconsumed).
    """
    wakes = {}  # (pid, tid) -> count
    runs = {}   # (pid, tid) -> count
    seen = False
    for i, ev in enumerate(doc.get("traceEvents", [])):
        if not isinstance(ev, dict) or ev.get("ph") != "i":
            continue
        name = ev.get("name")
        if name not in ("sched.wake", "sched.run"):
            continue
        seen = True
        args = ev.get("args") or {}
        if "tid" not in args:
            errors.append(f"traceEvents[{i}]: '{name}' args missing 'tid'")
            continue
        key = (ev.get("pid"), args.get("tid"))
        if name == "sched.wake":
            wakes[key] = wakes.get(key, 0) + 1
        else:
            runs[key] = runs.get(key, 0) + 1
            wait = args.get("wait_ns")
            if not isinstance(wait, (int, float)) or isinstance(wait, bool) \
                    or wait < 0:
                errors.append(f"traceEvents[{i}]: 'sched.run' args.wait_ns "
                              f"must be a number >= 0, got {wait!r}")
    if required and not seen:
        errors.append("--require-sched: no 'sched.wake'/'sched.run' instant "
                      "('i') events")
    for key, n in runs.items():
        if n > wakes.get(key, 0):
            errors.append(
                f"(pid={key[0]}, tid={key[1]}): {n} 'sched.run' instants "
                f"but only {wakes.get(key, 0)} 'sched.wake' instants")


def epoch_shape_checks(doc, errors):
    """--require-epoch: the canonical SmartBalance epoch anatomy."""
    by_name = {}
    for ev in doc.get("traceEvents", []):
        if isinstance(ev, dict) and ev.get("ph") in ("X", "i"):
            by_name.setdefault((ev.get("name"), ev.get("ph")), 0)
            by_name[(ev.get("name"), ev.get("ph"))] += 1
    for name in ("sense", "predict", "balance"):
        if not by_name.get((name, "X")):
            errors.append(f"--require-epoch: no '{name}' span ('X') events")
    if not by_name.get(("migration", "i")):
        errors.append("--require-epoch: no 'migration' instant ('i') events")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--schema",
                        default=os.path.join(os.path.dirname(__file__),
                                             "trace_schema.json"),
                        help="schema file (default: tools/trace_schema.json)")
    parser.add_argument("--require-epoch", action="store_true",
                        help="require sense/predict/balance spans and a "
                             "migration instant")
    parser.add_argument("--require-shards", action="store_true",
                        help="require shard.pass spans (sharded balancing "
                             "run); nesting checks always apply when shard "
                             "spans are present")
    parser.add_argument("--require-fleet", action="store_true",
                        help="require fleet.quantum spans and fleet.dispatch "
                             "instants (a --fleet=N run); nesting checks "
                             "always apply when fleet spans are present")
    parser.add_argument("--require-sched", action="store_true",
                        help="require sched.wake/sched.run instants (an "
                             "interactive or replayed run); tid/wait_ns "
                             "checks always apply when sched instants are "
                             "present")
    args = parser.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)
    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        print(f"{args.trace}: not valid JSON: {e}", file=sys.stderr)
        return 1

    errors = []
    validate(doc, schema, "$", errors)
    semantic_checks(doc, errors)
    if args.require_epoch:
        epoch_shape_checks(doc, errors)
    shard_shape_checks(doc, errors, args.require_shards)
    fleet_shape_checks(doc, errors, args.require_fleet)
    sched_shape_checks(doc, errors, args.require_sched)

    if errors:
        print(f"{args.trace}: INVALID ({len(errors)} violation(s)):",
              file=sys.stderr)
        for e in errors[:50]:
            print(f"  {e}", file=sys.stderr)
        if len(errors) > 50:
            print(f"  ... and {len(errors) - 50} more", file=sys.stderr)
        return 1

    n = len(doc.get("traceEvents", []))
    summary = doc.get("smartbalance", {})
    print(f"{args.trace}: valid ({n} trace events, "
          f"{summary.get('runs', '?')} run(s), "
          f"{summary.get('dropped_events', '?')} dropped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
