"""The benchmark's own tests: every output check passes on a right answer
and fails on a wrong one, and the layer trace survives a missing memo.

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def first_case(workload: str, want) -> workloads.Case:
    """The first generated case of a workload for which want(case) holds."""
    for index in range(100):
        case = workloads.WORKLOADS[workload].build(gen.Draw(workload, 0, "selftest", index), index)
        if want(case):
            return case
    raise AssertionError(f"no {workload} case found")


def edited(out: str, edit) -> str:
    doc = json.loads(out)
    edit(doc)
    return workloads.emit(doc)


class ConnectCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # a line anchor: the criterion decides it, and a certificate exists
        cls.case = first_case("connect_gauged", lambda c: c.truth["kind"] == "line")
        cls.out = workloads.run_connect(cls.case)
        cls.tangent = first_case("connect_gauged", lambda c: c.truth["kind"] == "tangent")

    def test_right_answer_passes(self):
        self.assertEqual(checks.check_connect(self.case, self.out), [])
        self.assertIn('"cert"', self.out)
        tangent_out = workloads.run_connect(self.tangent)
        self.assertEqual(checks.check_connect(self.tangent, tangent_out), [])

    def test_wrong_cocycle_fails(self):
        out = edited(self.out, lambda d: d["cocycle"][0].__setitem__(0, "7*z^9"))
        self.assertTrue(any("cocycle" in p for p in checks.check_connect(self.case, out)))

    def test_tampered_certificate_fails(self):
        def edit(doc):
            doc["cert"]["A0"][0][0] = gen.p_format(
                gen.p_add(gen.p_parse(doc["cert"]["A0"][0][0]), {1: 1}))
        problems = checks.check_connect(self.case, edited(self.out, edit))
        self.assertTrue(any("overlap identity" in p for p in problems))
        self.assertTrue(any("verify_connection" in p for p in problems))

    def test_non_holomorphic_certificate_fails(self):
        out = edited(self.out, lambda d: d["cert"]["A1"][0].__setitem__(0, "z"))
        self.assertTrue(any("holomorphic" in p for p in checks.check_connect(self.case, out)))

    def test_verdict_disagreeing_with_criterion_fails(self):
        def edit(doc):
            doc["exists"] = False
            del doc["cert"]
        problems = checks.check_connect(self.case, edited(self.out, edit))
        self.assertTrue(any("criterion says" in p for p in problems))


class SplitCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.case = first_case("split_gauged", lambda c: len(c.truth["type"]) == 4
                              and any(a >= 0 for a in c.truth["type"]))
        cls.out = workloads.run_split(cls.case)

    def test_right_answer_passes(self):
        self.assertEqual(checks.check_split(self.case, self.out), [])

    def test_wrong_type_fails(self):
        def edit(doc):
            doc["split"]["type"] = sorted(doc["split"]["type"][:-1] + [99], reverse=True)
        problems = checks.check_split(self.case, edited(self.out, edit))
        self.assertTrue(any("hidden" in p for p in problems))

    def test_wrong_factor_fails(self):
        out = edited(self.out, lambda d: d["split"]["U0"][0].__setitem__(0, "5"))
        self.assertTrue(any("U0 * T * U1" in p for p in checks.check_split(self.case, out)))

    def test_non_unimodular_factor_fails(self):
        self.assertTrue(gen.has_constant_det(gen.m_identity(3)))
        self.assertFalse(gen.has_constant_det(gen.m_diag([gen.mono(1, 1), gen.mono(1, 0)])))
        self.assertFalse(gen.has_constant_det(gen.m_diag([gen.mono(1, -1), gen.mono(1, 0)])))

    def test_wrong_cohomology_fails(self):
        out = edited(self.out, lambda d: d["cohomology"].__setitem__("h0", d["cohomology"]["h0"] + 1))
        self.assertTrue(any("(h0, h1)" in p for p in checks.check_split(self.case, out)))

    def test_missing_or_dependent_sections_fail(self):
        out = edited(self.out, lambda d: d["sections"].pop())
        self.assertTrue(any("sections for h0" in p for p in checks.check_split(self.case, out)))
        out = edited(self.out, lambda d: d["sections"].__setitem__(-1, d["sections"][0]))
        self.assertTrue(any("dependent" in p for p in checks.check_split(self.case, out)))

    def test_non_global_section_fails(self):
        out = edited(self.out, lambda d: d["sections"][0][0].__setitem__(0, "z^40"))
        self.assertTrue(any("not global" in p for p in checks.check_split(self.case, out)))


class FuzzCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.case = first_case("fuzz_diagonal", lambda c: True)
        cls.out = workloads.run_fuzz_case(cls.case)

    def test_right_answer_passes(self):
        again = workloads.run_fuzz_case(self.case)
        self.assertEqual(checks.check_fuzz(self.case, self.out, again), [])

    def test_mismatch_fails(self):
        out = edited(self.out, lambda d: d.__setitem__("mismatches", 1))
        self.assertTrue(checks.check_fuzz(self.case, out, out))

    def test_unrepeatable_report_fails(self):
        again = self.out.replace('"cases"', '"cases" ', 1)
        self.assertTrue(any("repeated" in p for p in checks.check_fuzz(self.case, self.out, again)))


class CliCheck(unittest.TestCase):
    case = workloads.Case({}, command="split")

    def test_right_answer_passes(self):
        self.assertEqual(checks.check_cli(self.case, "{}\n", 0, "{}\n"), [])

    def test_nonzero_exit_fails(self):
        self.assertTrue(checks.check_cli(self.case, "{}\n", 3, "{}\n"))

    def test_different_stdout_fails(self):
        self.assertTrue(checks.check_cli(self.case, "{}\n", 0, "[]\n"))

    def test_failing_child_fails_the_case(self):
        import worker

        case = workloads.Case({"bundle": "{}"}, command="split",
                              paths={"bundle": str(Path(__file__).parent / "no-such-input.json")})
        run = worker.cli_runner(workloads.WORKLOADS["cli_cold"], False, [])
        kind, detail = worker.attempt(run, case, 30)
        self.assertEqual(kind, "error")
        self.assertIn("exited 2", detail)


class Generator(unittest.TestCase):
    def test_gauged_inverse_is_exact(self):
        for index in range(6):
            T, T_inv = gen.gauged(gen.Draw("selftest", 0, "inverse", index), [2, -1, 0, 1], 2, 1)
            self.assertEqual(gen.m_mul(T, T_inv), gen.m_identity(4))

    def test_printed_polynomials_parse_back(self):
        p = {-3: gen.Fraction(-3, 2), 0: gen.Fraction(4), 1: gen.Fraction(1), 5: gen.Fraction(-7)}
        self.assertEqual(gen.p_parse(gen.p_format(p)), p)
        with self.assertRaises(ValueError):
            gen.p_parse("z z")

    def test_same_seed_same_inputs_and_no_repeats(self):
        a = workloads.build_cases("connect_gauged", 3, 4, 40)
        b = workloads.build_cases("connect_gauged", 3, 4, 40)
        texts = [c.inputs for c in a[0] + a[1]]
        self.assertEqual(texts, [c.inputs for c in b[0] + b[1]])
        self.assertEqual(len({gen.to_text(t) for t in texts}), len(texts))


class Report(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json names."""

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names(self):
        rec = {"paced_ms": [float(i + 1) for i in range(30)], "wall_ms": [1.0] * 30,
               "kinds": ["ok"] * 29 + ["timeout"], "limit_ms": 1000.0, "peak_rss_mb": 20.0,
               "attempted": 30, "failed": 1}
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.end_to_end(rec, 0.1)
        self.assertEqual(set(metrics), {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual(metrics["case_tail_ms"][0], 20.0)  # ten cases beyond it
        self.assertEqual(metrics["ok_share"][0], 29 / 30)

    def test_per_layer_names(self):
        rec = {"paced_ms": [2.0], "wall_ms": [1.0], "trace": tracer.Tracer().snapshot(),
               "import_ms": [40.0]}
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.per_layer(rec, {"paced_ms": [1.0]})
        self.assertEqual(set(metrics), {m["name"] for m in self.spec["per_layer"]})
        units = {m["name"]: m["unit"] for m in self.spec["per_layer"] + self.spec["end_to_end"]}
        self.assertTrue(all(units[name] == unit for name, (_, unit) in metrics.items()))


class Trace(unittest.TestCase):
    def test_self_time_excludes_children(self):
        t = tracer.Tracer()
        inner = t.span("p1_engine.inner", lambda: time.sleep(0.02))

        def outer_body():
            time.sleep(0.01)
            inner()

        t.span("jet_obstruction.outer", outer_body)()
        calls, total, own = t.stats["jet_obstruction.outer"]
        self.assertEqual(calls, 1)
        self.assertGreaterEqual(total, 0.03)
        self.assertLess(own, 0.02)
        self.assertGreaterEqual(t.stats["p1_engine.inner"][2], 0.02)

    def test_errors_count_once_in_innermost_layer(self):
        t = tracer.Tracer()

        def fail():
            raise ValueError("x")

        outer = t.span("jet_obstruction.outer", t.span("exact_core.inner", fail))
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual(t.errors["exact_core"], 1)
        self.assertEqual(t.errors["jet_obstruction"], 0)

    def test_install_patches_importers_and_uninstall_restores(self):
        import algconn.cli
        import algconn.p1_engine as p1

        original = p1.birkhoff_split
        t = tracer.Tracer().install()
        try:
            self.assertIsNot(p1.birkhoff_split, original)
            self.assertIs(algconn.cli.birkhoff_split, p1.birkhoff_split)
            p1.cohomology_dims(p1.split_bundle([1, -2]))
            self.assertGreaterEqual(t.stats["p1_engine.birkhoff_split"][0], 1)
        finally:
            t.uninstall()
        self.assertIs(p1.birkhoff_split, original)
        self.assertIs(algconn.cli.birkhoff_split, original)

    def test_missing_memo_is_reported_not_fatal(self):
        import algconn.p1_engine as p1

        saved = p1._birkhoff_cached
        del p1._birkhoff_cached
        try:
            snap = tracer.Tracer().snapshot()
        finally:
            p1._birkhoff_cached = saved
        self.assertIn("algconn.p1_engine._birkhoff_cached", snap["missing"])
        metrics = tracer.layer_metrics(tracer.merge([copy.deepcopy(snap)]))
        self.assertEqual(metrics["p1_engine.birkhoff_cache.hit_ratio"], (0.0, "ratio"))


if __name__ == "__main__":
    unittest.main()
