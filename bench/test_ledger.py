#!/usr/bin/env python3
"""Tests for bench/ledger.py's diff on hand-written ledgers.

Run from the repository root:

    python3 bench/test_ledger.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402

BENCHMARK = {
    "run_seconds": 24,
    "workloads": [{"name": "churn"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "heap_peak_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [
        {"name": "sim.events", "unit": "count", "better": "lower"},
        {"name": "sim.major_gcs", "unit": "count", "better": "lower"},
    ],
}


def stat(median):
    return {"runs": [median] * 3, "median": median, "q1": median, "q3": median}


DEV_BUILD = {"flags": ["-w", "@1..3", "-strict-sequence"], "ocamlopt_flags": ["-g"],
             "lib_opaque": True}
RELEASE_BUILD = dict(DEV_BUILD, lib_opaque=False)


def ledger_file(pr, end_to_end, per_layer, build=RELEASE_BUILD):
    """Per-layer values are single traced values (a ledger from before
    per-layer quartiles) or (q1, median, q3) triples. build=None leaves
    the build unrecorded, as in a ledger from before build records."""
    def layer(v):
        if isinstance(v, tuple):
            return {"unit": "", "runs": list(v), "q1": v[0], "median": v[1], "q3": v[2]}
        return {"unit": "", "value": v}
    return {
        "pr": pr, "seconds": 24, "seeds": [1, 2, 3],
        "model_fingerprint": "abc", "commit": None, "dirty": False,
        **({} if build is None else {"build": build}),
        "workloads": {"churn": {
            "attempted": 10, "failed": 0,
            "end_to_end": {k: dict(unit="", **stat(v)) for k, v in end_to_end.items()},
            "per_layer": {k: layer(v) for k, v in per_layer.items()},
        }},
    }


class DiffTest(unittest.TestCase):
    def diff(self, base, new):
        """Run ledger.diff in a scratch directory holding BENCHMARK and
        the two ledgers; return (exit code, printed text)."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            try:
                for name, body in [("BENCHMARK.json", BENCHMARK),
                                   ("BENCH_1.json", base), ("BENCH_2.json", new)]:
                    with open(name, "w") as f:
                        json.dump(body, f)
                out = io.StringIO()
                code = 0
                with contextlib.redirect_stdout(out):
                    try:
                        ledger.diff("BENCH_2.json")
                    except SystemExit as e:
                        code = e.code
                return code, out.getvalue()
            finally:
                os.chdir(cwd)

    def test_metric_missing_from_base_is_new(self):
        base = ledger_file(1, {"wall_s": 1.0}, {"sim.events": 100})
        new = ledger_file(2, {"wall_s": 1.0, "heap_peak_mb": 9.0},
                          {"sim.events": 90, "sim.major_gcs": 3})
        code, text = self.diff(base, new)
        self.assertEqual(code, 0, text)
        self.assertRegex(text, r"heap_peak_mb\s+new metric")
        self.assertRegex(text, r"sim\.major_gcs\s+new metric")
        self.assertIn("no end-to-end regression", text)

    def test_regression_beyond_bound_exits_1(self):
        base = ledger_file(1, {"wall_s": 1.0, "heap_peak_mb": 10.0}, {"sim.events": 100})
        new = ledger_file(2, {"wall_s": 1.0, "heap_peak_mb": 12.5},
                          {"sim.events": 100, "sim.major_gcs": 3})
        code, text = self.diff(base, new)
        self.assertEqual(code, 1, text)
        self.assertIn("churn heap_peak_mb +25.0%", text)

    def test_gain_is_no_regression(self):
        base = ledger_file(1, {"wall_s": 1.0, "heap_peak_mb": 10.0}, {"sim.events": 100})
        new = ledger_file(2, {"wall_s": 0.9, "heap_peak_mb": 7.0},
                          {"sim.events": 100, "sim.major_gcs": 3})
        code, text = self.diff(base, new)
        self.assertEqual(code, 0, text)
        self.assertRegex(text, r"heap_peak_mb .* better")

    def test_per_layer_change_inside_quartiles_is_within_spread(self):
        # The new median lies inside the base's quartile range for
        # sim.events, outside both ranges for sim.major_gcs; the base is
        # a single-value ledger for the second case, which still diffs.
        e2e = {"wall_s": 1.0, "heap_peak_mb": 10.0}
        base = ledger_file(1, e2e, {"sim.events": (90, 100, 110), "sim.major_gcs": 3})
        new = ledger_file(2, e2e, {"sim.events": (96, 104, 120), "sim.major_gcs": (5, 6, 7)})
        code, text = self.diff(base, new)
        self.assertEqual(code, 0, text)
        self.assertRegex(text, r"sim\.events\s+100 -> 104\s+\+4\.00%  within spread")
        self.assertRegex(text, r"sim\.major_gcs\s+3 -> 6\s+\+100\.00%\n")

    def test_changed_build_is_reported(self):
        e2e = {"wall_s": 1.0, "heap_peak_mb": 10.0}
        same = self.diff(ledger_file(1, e2e, {}), ledger_file(2, e2e, {}))[1]
        self.assertNotIn("build changed", same)
        code, text = self.diff(ledger_file(1, e2e, {}, build=DEV_BUILD),
                               ledger_file(2, e2e, {}, build=RELEASE_BUILD))
        self.assertEqual(code, 0, text)
        self.assertIn("the build changed (-opaque, flags -w @1..3 -strict-sequence, "
                      "ocamlopt_flags -g -> no -opaque,", text)
        self.assertIn("wall times measure a different compilation", text)
        text = self.diff(ledger_file(1, e2e, {}, build=None), ledger_file(2, e2e, {}))[1]
        self.assertIn("the build changed (unrecorded -> no -opaque", text)


    def test_exact_work_line(self):
        # sim.events per seed: identical, one seed moved, or a base
        # from before per-layer runs, which holds no per-seed counts.
        e2e = {"wall_s": 1.0, "heap_peak_mb": 10.0}
        base = ledger_file(1, e2e, {"sim.events": (100, 200, 300)})
        same = self.diff(base, ledger_file(2, e2e, {"sim.events": (100, 200, 300)}))[1]
        self.assertIn("= sim.events identical on seeds 1-3", same)
        code, text = self.diff(base, ledger_file(2, e2e, {"sim.events": (100, 205, 300)}))
        self.assertEqual(code, 0, text)
        self.assertIn("= sim.events differs: seed 2 200 -> 205\n", text)
        text = self.diff(ledger_file(1, e2e, {"sim.events": 200}),
                         ledger_file(2, e2e, {"sim.events": (100, 200, 300)}))[1]
        self.assertIn("= sim.events: not recorded per seed in both ledgers", text)


class BuildTest(unittest.TestCase):
    def test_printenv_flags(self):
        text = ("(flags\n (-w\n  @1..3@5..28-40\n  -strict-sequence))\n"
                "(ocamlc_flags (-g))\n(ocamlopt_flags (-g))\n(c_flags (-O2))\n")
        self.assertEqual(ledger.printenv_flags(text), {
            "flags": ["-w", "@1..3@5..28-40", "-strict-sequence"],
            "ocamlopt_flags": ["-g"]})


if __name__ == "__main__":
    unittest.main()
