#!/usr/bin/env python3
"""Deterministic corrupters for export files.

Used by the ctest wiring to assert that `sbaudit --diff` (and --check)
fails *cleanly nonzero* on damaged #sb-audit inputs instead of diffing
garbage, and that the JSON validators reject a schema violation:

    corrupt_csv.py truncate in.csv out.csv   drop the trailing 40% of lines
                                             (and the last line's tail), so
                                             the #summary footer and record
                                             arity checks must both trip
    corrupt_csv.py permute  in.csv out.csv   deterministically shuffle the
                                             record lines and reverse every
                                             field order, so rows no longer
                                             match any known record kind
    corrupt_csv.py violate  in.json out.json one violation in a JSON export:
                                             a Chrome trace's first span
                                             loses its pid; a tsdb JSON
                                             document's first sample value
                                             becomes a string

No RNG: every transform is a pure function of the input, so the fixtures
are reproducible byte for byte.
"""
import json
import sys


def truncate(lines):
    keep = max(1, (len(lines) * 6) // 10)
    out = lines[:keep]
    if out:
        # Also chop the final kept line mid-field: arity checks must fire
        # even when the line count alone would pass.
        out[-1] = out[-1][: max(1, len(out[-1]) * 2 // 3)]
    return out


def permute(lines):
    header = [ln for ln in lines if ln.startswith("#")]
    records = [ln for ln in lines if not ln.startswith("#")]
    # Deterministic shuffle: sort by a field-reversed key, then reverse the
    # fields of every record so the kind tag lands in the last column.
    records.sort(key=lambda ln: ",".join(reversed(ln.split(","))))
    mangled = [",".join(reversed(ln.split(","))) for ln in records]
    return header + mangled


def violate(text):
    doc = json.loads(text)
    if "traceEvents" in doc:
        span = next(ev for ev in doc["traceEvents"] if ev.get("ph") == "X")
        del span["pid"]
    else:
        sample = next(run["samples"][0] for run in doc["runs"]
                      if run["samples"])
        sample[2] = str(sample[2])
    return json.dumps(doc)


def main(argv):
    if len(argv) != 4 or argv[1] not in ("truncate", "permute", "violate"):
        print(f"usage: {argv[0]} truncate|permute|violate <in> <out>",
              file=sys.stderr)
        return 2
    with open(argv[2], "r", encoding="utf-8") as f:
        text = f.read()
    if argv[1] == "violate":
        out = violate(text) + "\n"
    else:
        lines = text.splitlines()
        out = "\n".join(truncate(lines) if argv[1] == "truncate"
                        else permute(lines)) + "\n"
    with open(argv[3], "w", encoding="utf-8") as f:
        f.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
