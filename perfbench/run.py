#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bulk|churn|recovery \
        --seed N --seconds S --trace 0|1

The script builds perfbench/bench.exe with dune (the first build
compiles the whole stack; later ones are incremental) and runs it with
the same arguments. The benchmark's last line of output is its JSON
result; the exit code is the benchmark's.
"""
import glob
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def find_dune():
    """dune from PATH, else from an opam switch (whose bin directory
    also holds the compilers dune needs)."""
    dune = shutil.which("dune")
    if dune:
        return dune
    root = os.environ.get("OPAMROOT") or os.path.expanduser("~/.opam")
    found = sorted(glob.glob(os.path.join(root, "*", "bin", "dune")))
    if not found:
        sys.exit("perfbench: dune not found on PATH or in an opam switch")
    return found[-1]


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    if not os.path.isdir("lib") or not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (the stack's sources are missing)")
    dune = find_dune()
    # The shared dune cache lives outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = run([dune, "build", "--root", ".", "./perfbench/bench.exe"],
                BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if build != 0:
        sys.exit("perfbench: build failed (%s)" %
                 ("timed out" if build is None else "exit %d" % build))
    code = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)
    if code is None:
        sys.exit("perfbench: benchmark timed out")
    if code != 0:
        print("perfbench: bench.exe exited with %d" % code, file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
