"""Self-tests of the benchmark, on tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json comes out with its
unit, that injected failures lower ``completed_frac`` without stopping the
run, that a CSV mismatch fails its cells, that per-layer call counts repeat
exactly, and that the benchmark refuses to run without the sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

run.prepare()

import harness  # noqa: E402  (needs the path set up by run.prepare)
import illposed  # noqa: E402
from illposed.errors import SingularSystemError, SolverFailureError  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def tiny(name):
    """The named workload at n=16, with few enough cells to run in seconds."""
    wl = harness.WORKLOADS[name]
    levels = 1 if wl.problems == ("autoconv",) else 2
    return dataclasses.replace(wl, n=16, deltas=wl.deltas[:levels], repeats=1)


def run_tiny(name, trace=False, seed=3):
    return harness.run_workload(tiny(name), seed, 0.5, trace, run.ROOT)


class Patched:
    """Replace ``illposed.sweep.<attr>`` for the duration of a ``with`` block."""

    def __init__(self, attr, replacement):
        self.attr, self.replacement = attr, replacement

    def __enter__(self):
        self.original = getattr(illposed.sweep, self.attr)
        setattr(illposed.sweep, self.attr, self.replacement(self.original))

    def __exit__(self, *exc_info):
        setattr(illposed.sweep, self.attr, self.original)


def fail_once_at(delta, exc):
    """Raise ``exc`` from the first variational solve at noise level ``delta``.

    The warm-up solve runs at the workload's first level, so a later level
    makes the failure land in the first timed sweep.
    """
    def replacement(original):
        raised = []

        def patched(op, f_delta, level, *args, **kwargs):
            if level == delta and not raised:
                raised.append(level)
                raise exc
            return original(op, f_delta, level, *args, **kwargs)
        return patched
    return replacement


def units(spec_key):
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


class MetricsTest(unittest.TestCase):
    def assert_metrics(self, result, spec_key):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units(spec_key))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_reports_every_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(harness.WORKLOADS))
        for name in harness.WORKLOADS:
            with self.subTest(workload=name):
                result, facts = run_tiny(name)
                self.assertTrue(result["correct"], facts["problems"])
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, "end_to_end")
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0.0,
                                       metric["name"])
                self.assertGreaterEqual(facts["cell_ms_tail_beyond"],
                                        harness.TAIL_BEYOND)
                result, _ = run_tiny(name, trace=True)
                self.assertTrue(result["correct"])
                self.assert_metrics(result, "per_layer")

    def test_calls_repeat_between_traced_runs(self):
        first, _ = run_tiny("linear-solve-n64", trace=True)
        second, facts = run_tiny("linear-solve-n64", trace=True)
        self.assertTrue(facts["calls_repeat"])
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
        self.assertEqual(calls, again)
        self.assertGreater(calls["linalg.cho_factor.calls"], 0)


class FailureAccountingTest(unittest.TestCase):
    def baseline(self):
        result, _ = run_tiny("linear-sweep-n512")
        self.assertEqual(result["failed"], 0)
        return result

    def test_exception_fails_the_whole_sweep_and_the_run_goes_on(self):
        clean = self.baseline()
        with Patched("minimize_variational",
                     fail_once_at(1e-2, SingularSystemError("injected"))):
            result, facts = run_tiny("linear-sweep-n512")
        self.assertFalse(result["correct"])
        # one sweep of 2 deltas x 2 methods fails as a whole
        self.assertEqual(result["failed"], 4)
        self.assertLess(result["metrics"]["completed_frac"]["value"],
                        clean["metrics"]["completed_frac"]["value"])
        self.assertGreater(facts["failed_frac"], 0.0)
        self.assertTrue(any("SingularSystemError" in p for p in facts["problems"]))

    def test_solver_error_fails_its_cell(self):
        with Patched("minimize_variational",
                     fail_once_at(1e-2, SolverFailureError("injected"))):
            result, facts = run_tiny("linear-sweep-n512")
        self.assertFalse(result["correct"])
        self.assertIn("solver_error", facts["problems"][0])
        # the failed cell, plus the repeated sweep whose CSV now differs
        self.assertEqual(result["failed"], 1 + 4)

    def test_broken_f_identity_fails_the_cell(self):
        def replacement(original):
            def patched(*args, **kwargs):
                res = original(*args, **kwargs)
                res.F_value *= 1.5
                return res
            return patched

        with Patched("minimize_variational", replacement):
            result, facts = run_tiny("linear-solve-n64")
        self.assertGreater(result["failed"], 0)
        self.assertTrue(all("F_value" in p for p in facts["problems"]))

    def test_csv_mismatch_fails_the_repeated_job(self):
        wl = tiny("linear-sweep-n512")
        jobs = harness.make_pass(wl, 1, 0)[:1]
        first = harness.run_pass(wl, jobs)
        again = harness.run_pass(wl, jobs)
        harness.check_repeat(first, again)
        self.assertEqual(again.jobs[0].failed, 0)
        again.jobs[0].csv += "tampered\n"
        harness.check_repeat(first, again)
        self.assertEqual(again.jobs[0].failed, again.jobs[0].attempted)


class ContractTest(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
