"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the seeded inputs are what the workloads claim (valid by construction,
or carrying the planted square), that a corrupted witness, certificate or
construction and a raising job are each counted as failed, and that the
benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nonrepcolor import construct, decide, model, search  # noqa: E402

LIB = types.SimpleNamespace(model=model, decide=decide, search=search,
                            construct=construct)
TINY_SLOTS = 12  # the cheapest slots of each workload


with open(run.CERTS) as _fh:
    CERTS = json.load(_fh)


def _pass(name, seed=0, npass=0):
    return workloads.build(name, LIB, CERTS, run._rng(name, seed, npass))


def _one_job_run(job):
    return run.measure(([job], [0]), None, 0.0, run.Speed())


class MetricsEmitted(unittest.TestCase):
    def test_every_named_metric_is_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        full = dict(workloads.WORKLOADS)
        tiny = {name: (lambda b: lambda *a: b(*a)[:TINY_SLOTS])(b)
                for name, b in full.items()}
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(names), sorted(full))
        try:
            workloads.WORKLOADS.update(tiny)
            for workload in names:
                for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = run.main(["--workload", workload, "--seed", "1",
                                         "--seconds", "0", "--trace", str(trace)])
                    self.assertEqual(code, 0)
                    result = json.loads(out.getvalue().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.getvalue())
                    self.assertGreaterEqual(result["attempted"], TINY_SLOTS)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want, f"{workload} trace {trace}")
        finally:
            workloads.WORKLOADS.update(full)


class LayerMetrics(unittest.TestCase):
    def test_counts_and_times_are_per_traced_pass(self):
        def spans(copies):
            out = []
            for _ in range(copies):
                top = len(out)
                out.append([top, -1, "search.search_fixed_k", "j", 0.0, 0.004,
                            (50, False)])
                out.append([top + 1, top, "search.final_check", "j", 0.001,
                            0.003, True])
            return out
        one = tracing.layer_metrics(spans(1), 1)
        three = tracing.layer_metrics(spans(3), 3)
        for name, (value, unit) in one.items():
            self.assertAlmostEqual(three[name][0], value, msg=name)
            self.assertEqual(three[name][1], unit)
        self.assertEqual(one["search.nodes"], (50, "count/pass"))
        self.assertAlmostEqual(one["search.self_ms"][0], 2.0 + 2.0)
        self.assertEqual(one["search.final_reject_ratio"], (1.0, "ratio"))


class Inputs(unittest.TestCase):
    def test_vtm_is_square_free(self):
        for off in (0, 1, 12345, 999_000):
            self.assertFalse(checks.has_square(checks.vtm(80, off), circular=False))

    def test_independent_checks_agree_with_the_library(self):
        g = model.path_graph(7)
        bad = model.Coloring.from_digits("1232123")  # README: stroll witness
        self.assertTrue(checks.has_repetitive_stroll(checks.path_adj(7), bad.colors))
        self.assertIsNotNone(decide.exists_repetitive_stroll(g, bad))
        word = construct.STROLL_NONREP_P21
        self.assertFalse(checks.has_repetitive_stroll(checks.path_adj(21), word))
        self.assertTrue(checks.has_square((1, 2, 3, 1, 2, 3), circular=False))
        self.assertFalse(checks.has_square((1, 2, 1, 3), circular=True))
        self.assertTrue(checks.has_square((1, 2, 1, 2, 3), circular=True))

    def test_accept_inputs_satisfy_their_property(self):
        rng = run._rng("selftest", 3, 0)
        for family, kind, n, prop in workloads._verify_slots():
            word = workloads._verify_word(family, n, CERTS, rng)
            slot = (family, kind, n, prop)
            if prop == "path":
                self.assertFalse(checks.has_square(word, kind == "cycle"), slot)
            elif prop == "walk":
                self.assertTrue(checks.is_walk_nonrep_cycle(word), slot)
            else:
                adj = (checks.cycle_adj if kind == "cycle" else checks.path_adj)(n)
                self.assertFalse(checks.has_repetitive_stroll(adj, word), slot)

    def test_planted_square_is_present(self):
        word = checks.vtm(30, 7)
        planted = workloads.plant_square(word, 4, 10)
        self.assertEqual(planted[10:14], planted[14:18])
        ring = workloads.plant_square(word, 5, 27)
        self.assertEqual([ring[(27 + i) % 30] for i in range(5)],
                         [ring[(32 + i) % 30] for i in range(5)])


class FailuresCounted(unittest.TestCase):
    def test_corrupted_witness_fails(self):
        job = _pass("verify-reject", seed=5)[0]
        witness = job.run()
        self.assertIsNone(job.check(witness))
        vs = witness.walk.vertices
        shortened = types.SimpleNamespace(walk=model.Walk(vs[:-1]),
                                          violated=witness.violated)
        relabelled = types.SimpleNamespace(walk=witness.walk, violated="other")
        for bad in (None, shortened, relabelled):
            self.assertIsNotNone(job.check(bad))
        r = _one_job_run(dataclasses.replace(job, run=lambda: shortened))
        self.assertEqual(len(r.failures), 1)

    def test_witness_longer_than_the_planted_square_fails(self):
        g = model.path_graph(8)
        c = model.Coloring.from_colors((1, 2, 3, 1, 2, 3, 3, 1))
        check = workloads._witness_check(LIB, g, c, "path", 2)
        walk = model.Walk((0, 1, 2, 3, 4, 5))
        long = decide.Witness(walk, model.classify_walk(g, c, walk), "path")
        self.assertIn("planted square", check(long))

    def test_corrupted_certificate_fails(self):
        job = next(j for j in _pass("solve") if j.name.startswith("solve:path:path"))
        report = job.run()
        self.assertIsNone(job.check(report))
        cols = list(report.certificate.colors)
        cols[2:4] = cols[0:2]  # plant the square xyxy
        bad = dataclasses.replace(
            report, certificate=model.Coloring(tuple(cols), report.certificate.k))
        self.assertIn("independent", job.check(bad))
        self.assertIsNotNone(job.check(dataclasses.replace(report, value=4)))
        self.assertIsNotNone(job.check(dataclasses.replace(report, aborted=True)))

    def test_corrupted_construction_fails(self):
        jobs = _pass("construct", seed=2)
        sigma = next(j for j in jobs if j.name.startswith("sigma:"))
        trace, c = sigma.run()
        self.assertIsNone(sigma.check((trace, c)))
        planted = model.Coloring(workloads.plant_square(c.colors, 2, 0), 4)
        self.assertIsNotNone(sigma.check((trace, planted)))
        rho = next(j for j in jobs if j.name == "rho:P22")
        value, cert = rho.run()
        self.assertIsNone(rho.check((value, cert)))
        self.assertIsNotNone(rho.check((3, cert)))
        planted = next(w for p in range(cert.n - 3)
                       if len(set(w := workloads.plant_square(cert.colors, 2, p))) == 4)
        self.assertIn("independent",
                      rho.check((value, model.Coloring(planted, 4))))

    def test_raising_job_fails(self):
        def deep():
            raise RecursionError("maximum recursion depth exceeded")
        job = workloads.Job("raises", deep, lambda out: None)
        r = _one_job_run(job)
        self.assertEqual(r.attempted, 1)
        self.assertIn("RecursionError", r.failures[0][1])


class NeedsSources(unittest.TestCase):
    def test_refuses_to_run_without_the_library(self):
        bare = os.path.join(run.OUT_DIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "solve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
