#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one benchmark workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <ribo30s|service-small|helix8-session>
                             --seed <n> --seconds <s> --trace <0|1>

The library and the driver are built with CMake into .bench_build/perfbench
(the first run builds; later runs only check the build).  The driver prints
one JSON object as the last line of standard output; this script checks its
metric names and units against BENCHMARK.json before passing it on.  A
traced run (--trace 1) also writes its spans to
.bench_build/trace-<workload>-<seed>.json.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line is still printed); 2 on bad arguments, a failed build, a crash
or a timeout (no result line).  See perfbench/README.md.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ribo30s", "service-small", "helix8-session")
RUN_TIMEOUT_S = 170


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one PHMSE benchmark workload and print its result "
                    "as one JSON line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=positive_int,
                        help="how long the workload's timed loop runs")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1),
                        help="1: per-layer metrics with spans; "
                             "0: end-to-end metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def build():
    """Configures (once) and builds the driver; build logs go to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_file = ROOT / ".bench_build" / (
            f"trace-{args.workload}-{args.seed}.json")
        command += ["--trace-out", str(trace_file)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(f"perfbench: driver exited with {run.returncode}",
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        print("perfbench: driver metrics do not match BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}", file=sys.stderr)
        return 2
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
