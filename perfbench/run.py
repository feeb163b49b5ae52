#!/usr/bin/env python3
"""The repository benchmark: builds tipbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. The first run configures and builds the
engine libraries and the tipbench binary in Release under .bench_build/
(the directory named by CARGO_TARGET_DIR, if set); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is always the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. The line before it carries labels:
the environment stamp (source id, build type, CPU count, seed, run
length, wal_mode, starting NOW), the plan shape of every statement and
the sample count of every op class. Exits non-zero, without a result,
when the engine sources are missing or the build fails, and with
"correct": false and exit code 1 on any correctness or durability
mismatch.

Timings are calibrated. Every client thread times a fixed kernel of
small allocations and sorts (perfbench/common.cc) between its ops, and
every latency, throughput and set-up time is scaled by
(reference kernel time / kernel time around it). Shared machines slow
this instruction mix, and the engine with it, by up to 1.6x for tens of
seconds at a time; the scaling cancels that, so runs of the same code
agree. The uncalibrated Q2 and lookup medians are printed as labels.

--smoke runs a shortened version that the benchmark's own test
(perfbench/test_bench.py) uses to check that every metric is emitted.
"""

import argparse
import fcntl
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(out_dir):
    """Configures (once) and builds tipbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the engine sources (src/) are missing",
              file=sys.stderr)
        return None
    cmake_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "tipbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                print("run.py: build step failed: " + " ".join(step),
                      file=sys.stderr)
                return None
    return os.path.join(cmake_dir, "tipbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["paper_analytics", "tipd_browse",
                                 "durable_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    work_dir = os.path.join(out_dir, "runs",
                            "%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = dict(os.environ, TIPBENCH_SOURCE_ID=source_id())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: tipbench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    # Keep the span traces; drop the scratch databases.
    traces = os.path.join(out_dir, "traces")
    for trace in glob.glob(os.path.join(work_dir, "trace-*.json")):
        os.makedirs(traces, exist_ok=True)
        shutil.move(trace, os.path.join(traces, os.path.basename(trace)))
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
