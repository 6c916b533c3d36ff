#!/usr/bin/env python3
"""Builds the cost-ledger benchmark from source and runs one workload.

    python3 ledger/run.py --workload <replay|shard-ingest> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/ledger
(default .bench_build/ledger) and is incremental; its output goes to stderr.
Durable state of shard-ingest lives under .bench_build/ledger_state. The
last line of stdout is the run's JSON result. Exits non-zero without a
result when the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("ledger: the FD-RMS sources (CMakeLists.txt, src/) are not next to "
              "ledger/; run from a full checkout", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "ledger", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # an absolute target is kept as is
    build_dir = os.path.join(target, "ledger")
    if not build(build_dir):
        print("ledger: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "ledger")
    state_dir = os.path.join(target, "ledger_state")
    cmd = [binary] + sys.argv[1:] + ["--state-dir", state_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
