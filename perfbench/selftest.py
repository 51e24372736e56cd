"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  The runaway test spends about two
seconds; the missing-sources test copies perfbench/ into a temporary
directory under perfbench/ and removes it afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

import layers
import run
import sweep_jobs
import worker


class DimensionFormulas(unittest.TestCase):
    def test_witt(self):
        self.assertEqual([run.witt(2, d) for d in range(1, 9)], [2, 1, 2, 3, 6, 9, 18, 30])
        self.assertEqual([run.witt(3, d) for d in range(1, 6)], [3, 3, 8, 18, 48])

    def test_catalan_and_alllinear(self):
        self.assertEqual([run.catalan(n) for n in range(6)], [1, 1, 2, 5, 14, 42])
        self.assertEqual(run.formula_dims("alllinear", 2, 4), [2, 4, 16, 80])

    def test_no_formula(self):
        self.assertIsNone(run.formula_dims("jordan", 2, 6))
        self.assertIsNone(run.formula_dims("alternative", 3, 5))


class Metrics(unittest.TestCase):
    @staticmethod
    def pass_(times, ref, statuses=("ok", "ok", "ok")):
        ops = [[s, t, None] for s, t in zip(statuses, times)]
        refs = [[ref, 1]] * len(ops)
        return {"ops": ops, "rss": 20.0, "reference": refs, "setup": [0.1]}

    def test_per_op_medians_and_scaling(self):
        unit = run.REFERENCE_UNIT_S
        passes = [
            self.pass_([1.0, 2.0, 3.0], unit),
            self.pass_([2.0, 4.0, 6.0], 2 * unit),  # a pass at half speed
            self.pass_([1.0, 2.0, 4.0], unit),
        ]
        m = {k: v["value"] for k, v in run.end_to_end(passes).items()}
        self.assertAlmostEqual(m["wall_s"], 6.0)
        self.assertAlmostEqual(m["jobs_per_s"], 3 / 6.0)
        self.assertAlmostEqual(m["job_p50_ms"], 2000.0)
        self.assertAlmostEqual(m["job_p90_ms"], 2800.0)
        self.assertAlmostEqual(m["setup_s"], 0.1)
        raw = {k: v["value"] for k, v in run.end_to_end(passes, scaled=False).items()}
        self.assertAlmostEqual(raw["wall_s"], 1.0 + 2.0 + 4.0)
        self.assertAlmostEqual(raw["setup_s"], 0.1)

    def test_an_op_over_budget_can_only_make_things_worse(self):
        unit, budget = run.REFERENCE_UNIT_S, run.SWEEP_BUDGET_S
        fast = [self.pass_([0.1, 0.2, 0.9], unit) for _ in range(3)]
        slow = [self.pass_([0.1, 0.2, None], unit, ("ok", "ok", "over_budget"))
                for _ in range(3)]
        before = {k: v["value"] for k, v in run.end_to_end(fast).items()}
        after = {k: v["value"] for k, v in run.end_to_end(slow).items()}
        self.assertAlmostEqual(after["wall_s"], 0.3 + budget)
        self.assertGreater(after["wall_s"], before["wall_s"])
        self.assertAlmostEqual(after["jobs_per_s"], 2 / (0.3 + budget))
        self.assertLess(after["jobs_per_s"], before["jobs_per_s"])

    def test_untimed_ops_are_left_out(self):
        unit = run.REFERENCE_UNIT_S
        passes = [self.pass_([0.1, 0.2, None], unit, ("ok", "ok", "over_budget"))
                  for _ in range(3)]
        m = {k: v["value"] for k, v in run.end_to_end(passes, [True, True, False]).items()}
        self.assertAlmostEqual(m["wall_s"], 0.3)
        self.assertAlmostEqual(m["jobs_per_s"], 2 / 0.3)
        counts = run.tally([dict(p, digest_checked=0) for p in passes])
        self.assertEqual(counts["failed"], 3)  # still run, still counted as failed


class Jobs(unittest.TestCase):
    def setUp(self):
        self.top = sweep_jobs.load_top_basis()

    def test_corpus_is_fixed_and_seed_orders_it(self):
        jobs = sweep_jobs.corpus(sweep_jobs.CORPUS_SEED, self.top)
        self.assertEqual(jobs, sweep_jobs.corpus(sweep_jobs.CORPUS_SEED, self.top))
        self.assertNotEqual(jobs, sweep_jobs.corpus(2, self.top))
        self.assertEqual(sorted(sweep_jobs.order(5, len(jobs))), list(range(len(jobs))))
        self.assertNotEqual(sweep_jobs.order(5, len(jobs)), sweep_jobs.order(6, len(jobs)))

    def test_every_corpus_has_the_same_mix(self):
        def mix(corpus_seed):
            jobs = sweep_jobs.corpus(corpus_seed, self.top)
            return sorted((j["variety"], j["gens"], j["bound"]) for j in jobs)

        self.assertEqual(mix(1), mix(2))
        self.assertGreaterEqual(len(mix(1)), 100)  # p90 keeps ten jobs beyond it

    def test_systems_are_admissible(self):
        for job in sweep_jobs.corpus(3, self.top):
            a, b = job["system"]["a"], job["system"]["b"]
            if job["variety"] == "alllinear":
                self.assertTrue(a != b and {a, b} != {"1", "-1"})
            elif job["variety"] == "alternative":
                self.assertTrue((a == "0") != (b == "0"))
            else:
                self.assertTrue(b == "0" and a != "0")


class Tracing(unittest.TestCase):
    def test_self_time_and_folded_recursion(self):
        tracer = layers.Tracer()

        def inner(n):
            time.sleep(0.01)
            return inner(n - 1) if n else 0

        inner = tracer.wrap("inner", inner)

        def outer():
            time.sleep(0.02)
            return inner(3)

        outer = tracer.wrap("outer", outer)
        outer()
        self.assertEqual(tracer.calls, {"inner": 1, "outer": 1})
        self.assertAlmostEqual(tracer.self_s["inner"], tracer.incl["inner"])
        self.assertGreaterEqual(tracer.incl["inner"], 0.04)
        self.assertAlmostEqual(
            tracer.self_s["outer"], tracer.incl["outer"] - tracer.incl["inner"]
        )
        self.assertGreaterEqual(tracer.self_s["outer"], 0.02)

    def test_install_patches_every_namespace(self):
        code = (
            "import sys; sys.path.insert(0, 'perfbench'); import layers, veralg;"
            "from veralg import cases, closure, cli, verbal;"
            "t = layers.Tracer().install();"
            "print(all(f is verbal.check_op2 for f in"
            " (veralg.check_op2, closure.check_op2, cases.check_op2, cli.check_op2)),"
            " verbal.check_op2.__wrapped__ is not verbal.check_op2)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=run.ROOT, env=run.ENV,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        self.assertEqual(out, ["True", "True"])


class Reference(unittest.TestCase):
    def test_nearest_units_scale_a_job(self):
        sampler = worker.ReferenceSampler()
        sampler.samples = [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0), (4.0, 4.0), (9.0, 5.0),
                           (9.5, 6.0), (10.0, 7.0)]
        self.assertEqual(sampler.nearest(2.0, 3.0), [1.0 + 2.0 + 3.0 + 4.0 + 5.0, 5])
        self.assertEqual(sampler.nearest(9.2, 9.4), [3.0 + 4.0 + 5.0 + 6.0 + 7.0, 5])


class Budget(unittest.TestCase):
    def test_runaway_job_counts_as_failed(self):
        argv = [sys.executable, str(run.HERE / "worker.py"), "sweep", "--budget", "2"]
        rc, out, wall, _ = run.spawn(argv, json.dumps([sweep_jobs.RUNAWAY_JOB]).encode())
        self.assertEqual(rc, 0)
        ops = json.loads(out.splitlines()[-1])["jobs"]
        self.assertEqual([op[0] for op in ops], ["over_budget"])
        self.assertLess(wall, 30)
        counts = run.tally([{"ops": ops, "digest_checked": 0}])
        self.assertEqual((counts["attempted"], counts["failed"]), (1, 1))
        self.assertTrue(counts["correct"])  # over budget is a failure, not a wrong output


class MissingSources(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.HERE, prefix=".selftest-") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, f"{tmp}/perfbench",
                            ignore=shutil.ignore_patterns(".selftest-*", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "repro",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
