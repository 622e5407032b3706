#!/usr/bin/env python3
r"""Builds and runs the CFS benchmark (perfbench/cfs_perfbench.cc).

Run from the repository root:

    python3 perfbench/run.py --workload table1-mix --seed 42 \
        --seconds 10 --trace 0

Workloads: table1-mix, shared-dir-churn, large-dir-read (README.md in this
directory says why each is there and how it is sized). The benchmark is built
from source on every call (incrementally after the first) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, using the
repository's own CMakeLists.txt. --trace 1 also writes the traced window's
op spans to <build dir>/spans-<workload>.csv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A failed build, a failed check or a crash
exits non-zero.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(build_dir):
    """Configures and builds cfs_perfbench; returns the binary's path."""
    src = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", src, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    with open(log_path, "w") as log:
        for cmd in (configure,
                    ["cmake", "--build", build_dir, "--target",
                     "cfs_perfbench", "-j", jobs]):
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(cmd))
    return os.path.join(build_dir, "cfs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # SIGTERM ends this script through SystemExit, so a running child is
    # killed and reaped instead of being left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(os.path.abspath(build_dir))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir, "spans-%s.csv" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.exit("perfbench: no result line (exit code %d)" % proc.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("perfbench: run failed (seed %d)" % args.seed)


if __name__ == "__main__":
    main()
