#!/usr/bin/env python3
"""Smoke-run every perfbench workload and check its JSON verdict.

Run from the repository root:

    python3 bench/perf_smoke.py

Each workload runs once through perfbench/run.py for one second,
untraced. The last line of its output is parsed as JSON and must
report a correct run with no failed operations; the churn workload
must also stay below HEAP_LIMIT_MB of peak heap. Exits 1 on any
failure.
"""
import json
import subprocess
import sys

WORKLOADS = ["bulk", "churn", "recovery"]
HEAP_LIMIT_MB = {"churn": 200.0}


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
    limit = HEAP_LIMIT_MB.get(workload)
    if limit is not None and not heap < limit:
        problems.append("heap_peak_mb %.1f >= %.0f" % (heap, limit))
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
