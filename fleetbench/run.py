#!/usr/bin/env python3
"""Builds the benchmark from source (first run) and runs one workload.

    python3 fleetbench/run.py --workload fleet_1m --seed 3 --seconds 10 --trace 0

Run from the repository root.  The build goes to .bench_build/ (Release);
later runs reuse it.  The arguments go to the benchmark binary unchanged,
which validates them; with --trace 1 the span log is written to
.bench_build/spans-<workload>-<seed>.json.  The last stdout line is the
benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then brings the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("fleetbench: no src/ next to fleetbench/; run from a "
                 "full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "fleetbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("fleetbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", default="3")
    ap.add_argument("--trace", default="0")
    args, _ = ap.parse_known_args()

    build()
    cmd = [os.path.join(BUILD, "fleetbench")] + sys.argv[1:]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%s.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
