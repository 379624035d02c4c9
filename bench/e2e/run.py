#!/usr/bin/env python3
"""Build sb_e2e from this checkout and run one workload of the benchmark.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds bench/e2e
(which compiles the library from src/) into $CARGO_TARGET_DIR/e2e, or
.bench_build/e2e when that variable is unset; later runs rebuild only what
changed. Build output goes to stderr. sb_e2e's report passes through to
stdout and ends with one JSON line; --trace 1 selects the traced run and
also writes a Chrome trace of the bench-side spans next to the build.

Exits non-zero without printing a result when there is nothing to build or
the build fails; exits with sb_e2e's status when a check failed, and with 3
when the JSON line's metrics differ from BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; nothing to build")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        steps = [["cmake", "--build", build_dir, "--target", "sb_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))]]
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sb_e2e")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "e2e")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out-dir={out_dir}",
           f"--commit={commit()}"]
    if args.trace:
        cmd += ["--traced", "--chrome-trace=" + os.path.join(
            out_dir, f"{args.workload}-{args.seed}.trace.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(json.loads(run.stdout.strip().splitlines()[-1])["metrics"])
    if got != expected:
        print(f"run.py: metrics {sorted(got ^ expected)} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
