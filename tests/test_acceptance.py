"""Acceptance suite.

One test per criterion, each printing a single `criterion NN PASS` line
(visible under pytest -s). Every assertion is exact: the arithmetic is
rational throughout, so there are no numeric tolerances to tune.
"""

import json
import os
import sys
import time
from itertools import product

sys.path.insert(0, os.path.dirname(__file__))
from oracles import hn_first_step_bruteforce

from algconn.cli import main
from algconn.exact_core import LaurentMatrix
from algconn.formal_bundles import Atom, CurveContext, FormalBundle, hn_filtration
from algconn.jet_obstruction import (
    connection_exists_p1,
    construct_connection,
    jet1_transition,
    jetV_transition,
    obstruction_cocycle,
    tangent_anchor,
    verify_connection,
    zero_anchor,
)
from algconn.p1_engine import (
    birkhoff_split,
    cohomology_dims,
    dual_bundle,
    gauge_transform,
    hom_sections,
    is_global_hom,
    line_bundle,
    riemann_roch_check,
    serre_dual_check,
    split_bundle,
    tensor_bundle,
    trace_pair,
    twist,
)
from algconn.sampling import Sampler, run_fuzz

FUZZ_SEED = 20260809


def _report(n: int, started: float, detail: str) -> None:
    print(f"criterion {n:02d} PASS ({time.time() - started:.1f}s): {detail}")


def test_criterion_01_atiyah_weil_reproduction():
    started = time.time()
    anchor = tangent_anchor()
    cases = 0
    for rank in (1, 2, 3):
        for exps in product(range(-3, 4), repeat=rank):
            E = split_bundle(list(exps))
            expected = all(a == 0 for a in exps)
            assert connection_exists_p1(E, anchor) == expected, exps
            cases += 1
    assert cases == 343 + 49 + 7
    _report(1, started, f"tangent-anchor existence equals all-degrees-zero on {cases} bundles")


def test_criterion_02_theorem_oracle_agreement(capsys):
    started = time.time()
    code = main(["fuzz", "--count", "200", "--seed", str(FUZZ_SEED)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["cases"] == 200 and report["mismatches"] == 0
    assert report["failures"] == []
    with capsys.disabled():
        _report(2, started, "decision layer and cohomological engine agree on 200 fuzz cases")


def _hundred_bundles():
    s = Sampler(301)
    return [s.gauged_p1_bundle(max_rank=3, bound=3, ops=2, max_deg=1) for _ in range(100)]


def test_criterion_03_riemann_roch_and_serre():
    started = time.time()
    for E, _ in _hundred_bundles():
        h0, h1 = cohomology_dims(E)
        assert h0 - h1 == E.degree + E.rank
        assert riemann_roch_check(E)
        assert serre_dual_check(E)
    _report(3, started, "h0-h1 = deg+rank and h1 = h0(dual(-2)) on 100 random bundles")


def test_criterion_04_birkhoff_correctness():
    started = time.time()
    s = Sampler(302)
    for E, expected in _hundred_bundles():
        data = birkhoff_split(E)
        assert data.verify(E)  # exact factorization identity U0 T U1 = diag
        assert sum(data.type) == E.degree
        assert list(data.type) == expected
        for _ in range(20):
            A = s.unimodular_z(E.rank, ops=2, max_deg=1)
            B = s.unimodular_w(E.rank, ops=2, max_deg=1)
            assert list(birkhoff_split(gauge_transform(E, A, B)).type) == expected
    _report(4, started, "exact splitting identity + type invariance under 2000 gauge changes")


def test_criterion_05_jet_structure():
    started = time.time()
    for a in range(-3, 4):
        t = birkhoff_split(jet1_transition(line_bundle(a))).type
        assert t == ((0, -2) if a == 0 else (a - 1, a - 1)), a
    s = Sampler(303)
    for _ in range(50):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
        V = split_bundle(s.exponents(max_rank=2, bound=2))
        J = jetV_transition(E, zero_anchor(V))
        merged = sorted(
            list(birkhoff_split(tensor_bundle(E, dual_bundle(V))).type)
            + list(birkhoff_split(E).type),
            reverse=True,
        )
        assert list(birkhoff_split(J).type) == merged
    _report(5, started, "jet types (a-1,a-1)/(0,-2); 50 zero-anchor jets split as (E x V*) + E")


def test_criterion_06_hn_properties():
    started = time.time()
    s = Sampler(304)
    for _ in range(100):
        exps = s.exponents(max_rank=5, bound=4)
        atoms = tuple(Atom(1, a) for a in birkhoff_split(split_bundle(exps)).type)
        f = hn_filtration(FormalBundle(CurveContext(0), atoms))
        first = tuple(sorted(a.degree for a in f.steps[0][0]))
        assert first == hn_first_step_bruteforce(exps)
        slopes = list(f.slopes)
        assert all(x > y for x, y in zip(slopes, slopes[1:]))
    _report(6, started, "first step equals exhaustive maximal-slope search on 100 bundles")


def _nonsemistable_case(s: Sampler):
    v = s.rng.randint(-2, 1)
    gap = 2 - v
    while True:
        exps = sorted(s.exponents(max_rank=3, bound=4, min_rank=2), reverse=True)
        if max(exps) - min(exps) >= gap:
            return v, exps


def test_criterion_07_hom_sections_nilpotent():
    started = time.time()
    s = Sampler(305)
    checked_sections = 0
    for _ in range(50):
        v, exps = _nonsemistable_case(s)
        E = split_bundle(exps)
        F = twist(E, v - 2)  # E (x) V (x) K for V = O(v), K = O(-2)
        basis = hom_sections(E, F)
        assert basis, (v, exps)
        for theta in basis:
            for j in range(E.rank):
                for i in range(E.rank):
                    if not theta.entry(j, i).is_zero:
                        assert exps[j] > exps[i], (v, exps, j, i)
            assert is_global_hom(E, E, theta)
            # over Q(z) an r x r matrix is nilpotent exactly when its r-th power is 0
            power = theta
            for _ in range(E.rank - 1):
                power = power @ theta
            assert power.is_zero, (v, exps)
            checked_sections += 1
    _report(
        7,
        started,
        f"{checked_sections} twisted hom sections strictly lower the filtration; all nilpotent",
    )


def test_criterion_08_trace_pairing():
    started = time.time()
    s = Sampler(306)
    for _ in range(100):
        exps = sorted(s.exponents(max_rank=4, bound=3, min_rank=2), reverse=True)
        if len(set(exps)) == 1:
            exps[-1] -= 1  # ensure at least two filtration steps
        E = split_bundle(exps)
        basis = hom_sections(E, E)
        preserving = basis
        strict = [
            th
            for th in basis
            if all(
                th.entry(j, i).is_zero or exps[j] > exps[i]
                for j in range(E.rank)
                for i in range(E.rank)
            )
        ]
        v = LaurentMatrix.zeros(E.rank, E.rank)
        for th in preserving:
            v = v + th.scalar_mul(s.coefficient(3))
        w = LaurentMatrix.zeros(E.rank, E.rank)
        for th in strict:
            w = w + th.scalar_mul(s.coefficient(3))
        assert trace_pair(E, v, w) == 0
    _report(8, started, "100 filtration-preserving x filtration-nilpotent pairs trace to 0")


def test_criterion_09_connection_soundness():
    started = time.time()
    verified = 0
    anchor = tangent_anchor()
    for rank in (1, 2, 3):
        for exps in product(range(-3, 4), repeat=rank):
            E = split_bundle(list(exps))
            cert = construct_connection(E, anchor)
            if cert is not None:
                assert verify_connection(E, anchor, cert)
                verified += 1
    outcome = run_fuzz(200, FUZZ_SEED, collect_certs=True)
    assert outcome.report["mismatches"] == 0
    for E, concrete, cert in outcome.certs:
        assert verify_connection(E, concrete, cert)
        verified += 1
    assert verified > 100
    _report(9, started, f"{verified} certificates re-verified (chart holomorphy + overlap identity)")


def test_criterion_10_zero_anchor_totality():
    started = time.time()
    s = Sampler(307)
    for _ in range(50):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=3, ops=1, max_deg=1)
        V = split_bundle(s.exponents(max_rank=2, bound=3))
        anchor = zero_anchor(V)
        assert obstruction_cocycle(E, anchor).is_zero
        cert = construct_connection(E, anchor)
        assert cert is not None
        assert verify_connection(E, anchor, cert)
    _report(10, started, "zero anchors always connect, with identically zero cocycles")
