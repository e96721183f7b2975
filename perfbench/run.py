#!/usr/bin/env python3
"""Builds the CWC benchmark program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload live-compute --seed 1 --seconds 20 --trace 0

The program (perfbench/*.cc, linked against the repository's src/ libraries)
is configured and built under .bench_build/ on first use; later runs only
re-check the build. Everything it prints is passed through; its last
line on stdout is the JSON result. Without the repository's sources next to
this directory the build fails and the script exits non-zero without a
result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "cwc_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cwc_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no CWC sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cwc_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", SCRATCH_DIR]
    # With address-space randomization the heap layout, and with it peak
    # RSS, changes from process to process; run without it where allowed.
    arch = os.uname().machine
    if shutil.which("setarch") and subprocess.run(
            ["setarch", arch, "-R", "true"], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode == 0:
        command = ["setarch", arch, "-R"] + command
    process = subprocess.Popen(command, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    except KeyboardInterrupt:
        process.kill()
        process.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
