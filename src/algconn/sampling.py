"""Seeded random generators and the decision-vs-engine fuzz harness.

Everything here is driven by a single random.Random instance, so a fixed
seed reproduces the exact same cases and the fuzz report is byte-identical
across runs. Bounds are small on purpose: ranks <= 3 and exponents <= 4
keep each case in the milliseconds while still exercising every code path
of the coboundary solver.
"""

from __future__ import annotations

import random

from .algebroid_decision import (
    AlgebroidDesc,
    AnchorDesc,
    AnchorKind,
    algebroid_to_json,
    decide_connection,
    decision_to_json,
    validate_algebroid,
)
from .exact_core import LaurentMatrix, LaurentPoly, _Value
from .formal_bundles import Atom, CurveContext, FormalBundle, bundle_to_json
from .jet_obstruction import (
    ConcreteAnchor,
    ConnectionCert,
    anchor_to_json,
    construct_connection,
    tangent_bundle,
    zero_anchor,
)
from .p1_engine import (
    P1Bundle,
    gauge_transform,
    line_bundle,
    p1bundle_to_json,
    split_bundle,
)


class Sampler:
    """Bundle/anchor/gauge generators over a shared seeded RNG."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def coefficient(self, bound: int = 3, nonzero: bool = False) -> int:
        while True:
            c = self.rng.randint(-bound, bound)
            if c != 0 or not nonzero:
                return c

    def laurent(
        self,
        min_exp: int,
        max_exp: int,
        max_terms: int = 3,
        bound: int = 3,
        nonzero: bool = False,
    ) -> LaurentPoly:
        while True:
            coeffs: dict[int, int] = {}
            for _ in range(self.rng.randint(0 if not nonzero else 1, max_terms)):
                coeffs[self.rng.randint(min_exp, max_exp)] = self.coefficient(bound)
            p = LaurentPoly(coeffs)
            if not (nonzero and p.is_zero):
                return p

    def exponents(self, max_rank: int = 3, bound: int = 4, min_rank: int = 1) -> list[int]:
        rank = self.rng.randint(min_rank, max_rank)
        return [self.rng.randint(-bound, bound) for _ in range(rank)]

    def unimodular_z(self, size: int, ops: int = 2, max_deg: int = 1, bound: int = 2) -> LaurentMatrix:
        """Product of elementary matrices over the z-chart polynomial ring."""
        return self._unimodular(size, ops, 0, max_deg, bound)

    def unimodular_w(self, size: int, ops: int = 2, max_deg: int = 1, bound: int = 2) -> LaurentMatrix:
        return self._unimodular(size, ops, -max_deg, 0, bound)

    def _unimodular(
        self, size: int, ops: int, min_exp: int, max_exp: int, bound: int
    ) -> LaurentMatrix:
        M = LaurentMatrix.identity(size)
        if size == 1:
            return M.scalar_mul(self.coefficient(bound, nonzero=True))
        for _ in range(ops):
            i, j = self.rng.sample(range(size), 2)
            p = self.laurent(min_exp, max_exp, max_terms=2, bound=bound, nonzero=True)
            rows = [M.row_list(k) for k in range(size)]
            rows[i] = [rows[i][c] + p * rows[j][c] for c in range(size)]
            M = LaurentMatrix(rows)
        perm = list(range(size))
        self.rng.shuffle(perm)
        M = LaurentMatrix([M.row_list(p) for p in perm])
        scale = LaurentMatrix.diag(
            [LaurentPoly.const(self.coefficient(2, nonzero=True)) for _ in range(size)]
        )
        return scale @ M

    def gauged_p1_bundle(
        self,
        max_rank: int = 3,
        bound: int = 3,
        ops: int = 2,
        max_deg: int = 1,
        min_rank: int = 1,
    ) -> tuple[P1Bundle, list[int]]:
        """A random bundle with its (hidden) splitting type: a diagonal
        bundle conjugated by random unimodular frame changes."""
        exps = self.exponents(max_rank, bound, min_rank)
        diag = split_bundle(exps)
        A = self.unimodular_z(len(exps), ops=ops, max_deg=max_deg)
        B = self.unimodular_w(len(exps), ops=ops, max_deg=max_deg)
        return gauge_transform(diag, A, B), sorted(exps, reverse=True)

    def rank1_algebroid(self) -> tuple[AlgebroidDesc, ConcreteAnchor]:
        """A validated rank-1 genus-0 algebroid, in matching formal and
        concrete presentations."""
        v = self.rng.randint(-4, 2)
        if v == 2:
            kind = self.rng.choice([AnchorKind.ZERO, AnchorKind.ISOMORPHISM])
        else:
            kind = self.rng.choice([AnchorKind.ZERO, AnchorKind.NONZERO])

        if v == 2:
            concrete_v = tangent_bundle()
        else:
            concrete_v = line_bundle(v)

        if kind == AnchorKind.ZERO:
            section: tuple[LaurentPoly, ...] | None = None
            concrete = zero_anchor(concrete_v)
        elif kind == AnchorKind.ISOMORPHISM:
            c = self.coefficient(2, nonzero=True)
            section = (LaurentPoly.const(c),)
            concrete = ConcreteAnchor(concrete_v, LaurentMatrix([[LaurentPoly.const(c)]]))
        else:
            phi = self.laurent(0, 2 - v, max_terms=2, bound=3, nonzero=True)
            section = (phi,)
            concrete = ConcreteAnchor(concrete_v, LaurentMatrix([[phi]]))

        atom = Atom(1, v, is_tangent=(v == 2))
        V = FormalBundle(CurveContext(0), (atom,))
        formal = validate_algebroid(AlgebroidDesc(V, AnchorDesc(kind, section)))
        return formal, concrete


class FuzzOutcome(_Value):
    __slots__ = _fields = ("report", "certs")

    def __init__(
        self, report: dict, certs: list[tuple[P1Bundle, ConcreteAnchor, ConnectionCert]]
    ) -> None:
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "certs", certs)

    def _key(self) -> tuple:
        return (self.report, self.certs)

    # report and certs are mutable containers, so a copy is a new outcome
    def __copy__(self):
        return FuzzOutcome(self.report, self.certs)

    def __deepcopy__(self, memo):
        from copy import deepcopy

        return FuzzOutcome(deepcopy(self.report, memo), deepcopy(self.certs, memo))


def run_fuzz(count: int, seed: int, collect_certs: bool = False) -> FuzzOutcome:
    """Compare the formal decision with the cohomological computation on
    `count` random rank-1 genus-0 cases. Any mismatch would falsify one of
    the two routes, so the report lists offending descriptors verbatim."""
    sampler = Sampler(seed)
    failures = []
    certs: list[tuple[P1Bundle, ConcreteAnchor, ConnectionCert]] = []
    for index in range(count):
        formal, concrete = sampler.rank1_algebroid()
        exps = sampler.exponents(max_rank=3, bound=4)
        e_formal = FormalBundle(
            CurveContext(0), tuple(Atom(1, a, label=f"O({a})") for a in exps)
        )
        e_concrete = split_bundle(exps)
        decision = decide_connection(formal, e_formal)
        declared = decision.as_bool()
        cert = construct_connection(e_concrete, concrete)
        computed = cert is not None
        if computed and collect_certs:
            certs.append((e_concrete, concrete, cert))
        if declared != computed:
            failures.append(
                {
                    "index": index,
                    "algebroid": algebroid_to_json(formal),
                    "bundle": bundle_to_json(e_formal),
                    "anchor": anchor_to_json(concrete),
                    "transition": p1bundle_to_json(e_concrete),
                    "decision": decision_to_json(decision),
                    "engine_exists": computed,
                }
            )
    report = {
        "cases": count,
        "seed": seed,
        "mismatches": len(failures),
        "failures": failures,
    }
    return FuzzOutcome(report, certs)
