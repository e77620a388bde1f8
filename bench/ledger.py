#!/usr/bin/env python3
"""The performance ledger: record the benchmark, and diff two records.

Run from the repository root:

    python3 bench/ledger.py run [--pr N]
    python3 bench/ledger.py diff [NEW]

`run` runs perfbench/run.py on every workload of BENCHMARK.json,
untraced (the end-to-end metrics) and traced (the per-layer metrics)
once per seed 1, 2 and 3, each for BENCHMARK.json's run_seconds, so
every ledger is made with the same settings. It writes BENCH_<N>.json
(default N: one past the newest ledger in the repository root) holding,
per workload, every end-to-end and per-layer metric's runs, median and
quartiles, the cost-model fingerprint and commit the runs were made
on, and the build they ran: the flags and ocamlopt_flags of the
profile perfbench builds in (`dune printenv`) and whether any lib/
module is compiled with -opaque (`dune rules`). A run that reports
`correct: false` or exits non-zero aborts the ledger.

`diff` compares NEW (a ledger file; by default a fresh `run` written to
_bench_new.json) with the newest BENCH_<N>.json other than NEW. A
metric or workload the base does not have is printed as new and not
compared. An end-to-end median that is worse than the base's by
more than its BENCHMARK.json bound, or a larger share of failed
operations, is a regression: `diff` prints every metric and exits 1 if
any regressed. A metric whose run-to-run spread (interquartile range
over median) exceeds its bound on either side is marked unresolved. A
changed cost-model fingerprint is reported as a changed model: the
simulated numbers then measure a different model, not a faster stack.
A changed (or, in the base, unrecorded) build is reported the same
way: the wall times then measure a different compilation.
A changed per-layer median is printed, marked "within spread" when
it lies inside the other side's quartile range (a ledger from before
per-layer quartiles holds one traced value: its range is that value).
Each workload's first line is its exact work line: sim.events is
deterministic per seed, so it is compared seed by seed, "identical on
seeds 1-3" or each differing seed's counts. A move there is simulated
work, not noise. It is a report line only, never a regression.
"""
import argparse
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

FINGERPRINT = re.compile(r"cost model ([0-9a-f]+)")
SEEDS = [1, 2, 3]


def benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def ledgers():
    """(N, path) of every BENCH_<N>.json in the repository root, oldest first."""
    found = []
    for path in glob.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path)
        if m:
            found.append((int(m.group(1)), path))
    return sorted(found)


def commit():
    def git(*args):
        out = subprocess.run(["git"] + list(args), stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head, "dirty": bool(dirty)}


ENV_FIELD = re.compile(r"\((flags|ocamlopt_flags)\s*\(([^()]*)\)\)")


def printenv_flags(text):
    """The flags and ocamlopt_flags of `dune printenv .`'s output."""
    return {k: v.split() for k, v in ENV_FIELD.findall(text)}


def build():
    """How perfbench/run.py's `dune build --root .` compiles the stack:
    the profile's flags, and whether any lib/ module gets -opaque (which
    stops every call across a module boundary from being inlined)."""
    dune = shutil.which("dune")
    if dune is None:
        return None

    def out(*args):
        return subprocess.run([dune] + list(args) + ["--root", "."],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout
    record = printenv_flags(out("printenv", "."))
    record["lib_opaque"] = "-opaque" in out("rules", "-r", "@lib/all").split()
    return record


def describe_build(b):
    if b is None:
        return "unrecorded"
    return "%s-opaque, flags %s, ocamlopt_flags %s" % (
        "" if b["lib_opaque"] else "no ", " ".join(b.get("flags", [])),
        " ".join(b.get("ocamlopt_flags", [])))


def perfbench(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        sys.exit("ledger: %s exited %d" % (" ".join(cmd), out.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit("ledger: %s reported an incorrect run" % " ".join(cmd))
    m = FINGERPRINT.search(out.stdout)
    result["fingerprint"] = m.group(1) if m else None
    print("ledger: %s seed %d %s run done" % (
        workload, seed, "traced" if trace else "untraced"), file=sys.stderr)
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def run(pr=None, out=None):
    bench = benchmark()
    seconds = bench["run_seconds"]
    if pr is None:
        pr = ledgers()[-1][0] + 1 if ledgers() else 0
    out = out or "BENCH_%d.json" % pr
    built = build()
    fingerprints = set()
    workloads = {}
    for wl in [w["name"] for w in bench["workloads"]]:
        untraced = [perfbench(wl, s, seconds, False) for s in SEEDS]
        traced = [perfbench(wl, s, seconds, True) for s in SEEDS]
        fingerprints.update(r["fingerprint"] for r in untraced + traced)
        workloads[wl] = {
            "attempted": sum(r["attempted"] for r in untraced),
            "failed": sum(r["failed"] for r in untraced),
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **summary(
                    [r["metrics"][m["name"]]["value"] for r in untraced]))
                for m in bench["end_to_end"]
            },
            "per_layer": {
                m["name"]: dict(unit=m["unit"], **summary(
                    [r["metrics"][m["name"]]["value"] for r in traced]))
                for m in bench["per_layer"]
            },
        }
    if len(fingerprints) != 1:
        sys.exit("ledger: the cost model changed between runs: %s" % sorted(fingerprints))
    ledger = dict(
        pr=pr, seconds=seconds, seeds=SEEDS,
        model_fingerprint=fingerprints.pop(), build=built,
        machine={"cpus": os.cpu_count(), "platform": platform.platform()},
        workloads=workloads, **commit())
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print("ledger: wrote %s" % out, file=sys.stderr)
    return out


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def quartiles(s):
    """(q1, median, q3) of a metric, or of an older ledger's one value."""
    return (s["q1"], s["median"], s["q3"]) if "median" in s else (s["value"],) * 3


def seed_list(seeds):
    """'1-3' for a run of consecutive seeds, else '1, 5'."""
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return "%d-%d" % (seeds[0], seeds[-1])
    return ", ".join(str(s) for s in seeds)


def work_line(base, new, bw, nw):
    """The exact work line: sim.events of each seed both ledgers ran."""
    b = bw["per_layer"].get("sim.events", {})
    n = nw["per_layer"].get("sim.events", {})
    if "runs" not in b or "runs" not in n:
        return "  = sim.events: not recorded per seed in both ledgers"
    bs = dict(zip(base["seeds"], b["runs"]))
    ns = dict(zip(new["seeds"], n["runs"]))
    common = [s for s in new["seeds"] if s in bs]
    moved = [s for s in common if bs[s] != ns[s]]
    if not moved:
        return "  = sim.events identical on seeds %s" % seed_list(common)
    return "  = sim.events differs: " + ", ".join(
        "seed %d %.12g -> %.12g" % (s, bs[s], ns[s]) for s in moved)


def diff(new_path=None):
    new_path = new_path or run(out="_bench_new.json")
    older = [p for _, p in ledgers() if os.path.abspath(p) != os.path.abspath(new_path)]
    if not older:
        sys.exit("ledger: no BENCH_<N>.json to compare with")
    base_path = older[-1]
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    bench = benchmark()
    print("bench-diff: %s (%s) -> %s (%s), %g s runs, seeds %s" % (
        base_path, (base.get("commit") or "?")[:10], new_path,
        (new.get("commit") or "?")[:10], new["seconds"], new["seeds"]))
    if base["model_fingerprint"] != new["model_fingerprint"]:
        print("bench-diff: the cost model changed (%s -> %s): simulated metrics "
              "measure a different model, not a faster stack" % (
                  base["model_fingerprint"], new["model_fingerprint"]))
    if base.get("build") != new.get("build"):
        print("bench-diff: the build changed (%s -> %s): wall times measure a "
              "different compilation, not only a different stack" % (
                  describe_build(base.get("build")), describe_build(new.get("build"))))
    regressions = []
    for wl, nw in new["workloads"].items():
        bw = base["workloads"].get(wl)
        if bw is None:
            print("%s: new workload" % wl)
            continue
        print(wl)
        print(work_line(base, new, bw, nw))
        b_fail = bw["failed"] / bw["attempted"] if bw["attempted"] else 0.0
        n_fail = nw["failed"] / nw["attempted"] if nw["attempted"] else 0.0
        if n_fail > b_fail:
            regressions.append("%s fail ratio %.4g -> %.4g" % (wl, b_fail, n_fail))
        for m in bench["end_to_end"]:
            b, n = bw["end_to_end"].get(m["name"]), nw["end_to_end"][m["name"]]
            if b is None:
                print("  %-14s new metric" % m["name"])
                continue
            change = (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "same" if change == 0 else "better" if worse < 0 else "worse"
            if worse > m["bound"]:
                verdict = "REGRESSION (bound %g)" % m["bound"]
                regressions.append("%s %s %+.1f%%" % (wl, m["name"], 100 * change))
            elif max(spread(b), spread(n)) > m["bound"]:
                verdict += ", unresolved (spread %.2f/%.2f)" % (spread(b), spread(n))
            print("  %-14s %12.6g -> %-12.6g %+7.2f%%  [%.6g, %.6g] -> [%.6g, %.6g]  %s" % (
                m["name"], b["median"], n["median"], 100 * change,
                b["q1"], b["q3"], n["q1"], n["q3"], verdict))
        for m in bench["per_layer"]:
            if m["name"] not in bw["per_layer"]:
                print("  . %-36s new metric" % m["name"])
                continue
            b1, b, b3 = quartiles(bw["per_layer"][m["name"]])
            n1, n, n3 = quartiles(nw["per_layer"][m["name"]])
            if b != n:
                change = "%+.2f%%" % (100 * (n - b) / abs(b)) if b else ""
                within = b1 <= n <= b3 or n1 <= b <= n3
                print("  . %-36s %12.6g -> %-12.6g %s%s" % (
                    m["name"], b, n, change, "  within spread" if within else ""))
    if regressions:
        print("bench-diff: %d regression(s): %s" % (len(regressions), "; ".join(regressions)))
        sys.exit(1)
    print("bench-diff: no end-to-end regression beyond a bound")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("run").add_argument("--pr", type=int, default=None)
    sub.add_parser("diff").add_argument("new", nargs="?", default=None)
    args = p.parse_args()
    if args.cmd == "run":
        run(pr=args.pr)
    else:
        diff(args.new)


if __name__ == "__main__":
    main()
