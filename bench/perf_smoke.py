#!/usr/bin/env python3
"""Smoke-run every perfbench workload and check its JSON verdict.

Run from the repository root:

    python3 bench/perf_smoke.py

Each workload runs once through perfbench/run.py for one second,
untraced. The last line of its output is parsed as JSON and must
report a correct run with no failed operations and a peak heap below
the workload's HEAP_LIMIT_MB. Exits 1 on any failure.
"""
import json
import subprocess
import sys

WORKLOADS = ["bulk", "churn", "recovery"]
# One second of each workload at seed 1 peaks at about 8.8 (churn),
# 16 (bulk) and 5.7 (recovery) MB; a pool that allocated memory for
# every slot it could hold would break each bound. Recovery's saturated
# link keeps about a hundred frames waiting: were each its own heap
# block, as before the link reused its buffers, they would be promoted
# and recovery would peak at 8.7 MB. Churn's peak is mostly what a drive
# promotes: were reaped NIC descriptors still to hold their buffers, or
# each outstanding request and queued message a block of its own, churn
# would peak at 11.3 MB.
HEAP_LIMIT_MB = {"churn": 10.0, "bulk": 26.0, "recovery": 7.5}


def run(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        return ["exit %d with %d output lines" % (out.returncode, len(lines))], None
    result = json.loads(lines[-1])
    problems = []
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0:
        problems.append("failed is %r" % result.get("failed"))
    heap = result["metrics"]["heap_peak_mb"]["value"]
    if not heap < HEAP_LIMIT_MB[workload]:
        problems.append("heap_peak_mb %.1f >= %g" % (heap, HEAP_LIMIT_MB[workload]))
    return problems, heap


def main():
    failed = False
    for workload in WORKLOADS:
        problems, heap = run(workload)
        if problems:
            failed = True
            print("perf-smoke %s: FAIL (%s)" % (workload, "; ".join(problems)))
        else:
            print("perf-smoke %s: ok (heap_peak_mb %.1f)" % (workload, heap))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
