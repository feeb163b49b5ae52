#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced.

    python3 perfbench/test_bench.py

Runs run.py --smoke for each workload of BENCHMARK.json with --trace 0
and --trace 1 and checks that the run exits 0, that its last line is the
result object with exactly the required keys, that it passed its own
correctness checks, and that it emitted every end-to-end (untraced) or
per-layer (traced) metric of BENCHMARK.json by name with its unit, as a
finite number, and nothing else.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(workload, trace, spec):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        return ["%s: exit code %d\n%s" % (where, done.returncode,
                                          done.stderr[-4000:])]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: correctness check failed" % where)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (where, m["name"]))
        elif got.get("unit") != m["unit"]:
            errors.append("%s: metric %s has unit %r, wants %r" %
                          (where, m["name"], got.get("unit"), m["unit"]))
        elif not math.isfinite(got.get("value", float("nan"))):
            errors.append("%s: metric %s is not finite" % (where, m["name"]))
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append("%s: unexpected metrics %s" % (where, sorted(extra)))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print("%-16s trace=%d %s" % (workload, trace,
                                         "ok" if not found else "FAILED"))
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
