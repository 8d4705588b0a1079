"""Formal layer: atoms, filtrations, the degree-zero criterion, JSON."""

import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from oracles import hn_first_step_bruteforce

from algconn.errors import SchemaError, UnknownStability
from algconn.formal_bundles import (
    Atom,
    CurveContext,
    FormalBundle,
    Stability,
    atiyah_weil,
    bundle_from_json,
    bundle_to_json,
    hn_filtration,
)
from algconn.sampling import Sampler

P0 = CurveContext(0)


def fb(*pairs, genus=0, stability=Stability.STABLE):
    atoms = tuple(Atom(r, d, stability) for r, d in pairs)
    return FormalBundle(CurveContext(genus), atoms)


def test_hn_singleton_semistable():
    f = hn_filtration(fb((1, 0)))
    assert len(f.steps) == 1 and f.slopes == (0,)


def test_hn_line_bundle_example():
    f = hn_filtration(fb((1, 3), (1, 1), (1, 1), (1, -2)))
    assert f.slopes == (3, 1, -2)
    assert [len(atoms) for atoms, _ in f.steps] == [1, 2, 1]
    # brute-force oracle for the first step
    assert hn_first_step_bruteforce([3, 1, 1, -2]) == (3,)


def test_hn_mixed_rank_example():
    E = FormalBundle(
        P0, (Atom(2, 1, Stability.SEMISTABLE), Atom(1, -1, Stability.STABLE))
    )
    f = hn_filtration(E)
    assert f.slopes == (Fraction(1, 2), -1)


def test_hn_requires_known_stability():
    E = FormalBundle(CurveContext(1), (Atom(2, 0, Stability.UNKNOWN),))
    with pytest.raises(UnknownStability):
        hn_filtration(E)


def test_hn_first_step_matches_bruteforce_on_line_bundles():
    s = Sampler(11)
    for _ in range(100):
        degs = [s.rng.randint(-4, 4) for _ in range(s.rng.randint(1, 5))]
        f = hn_filtration(fb(*[(1, d) for d in degs]))
        first_atoms, first_slope = f.steps[0]
        got = tuple(sorted(a.degree for a in first_atoms))
        assert got == hn_first_step_bruteforce(degs)
        assert first_slope == Fraction(sum(got), len(got))
        slopes = list(f.slopes)
        assert slopes == sorted(slopes, reverse=True)
        assert len(set(slopes)) == len(slopes)


def test_atiyah_weil():
    assert atiyah_weil(fb((1, 0), (1, 0)))
    assert not atiyah_weil(fb((1, 1), (1, -1)))  # total degree zero is not enough
    E = FormalBundle(CurveContext(1), (Atom(2, 0, Stability.UNKNOWN),))
    assert atiyah_weil(E)


def test_atiyah_weil_permutation_invariant():
    s = Sampler(3)
    for _ in range(20):
        pairs = [(s.rng.randint(1, 3), s.rng.choice([0, 0, s.rng.randint(-3, 3)])) for _ in range(4)]
        E = fb(*pairs)
        shuffled = list(E.atoms)
        s.rng.shuffle(shuffled)
        F = FormalBundle(E.context, tuple(shuffled))
        assert atiyah_weil(E) == atiyah_weil(F)


def test_rank_one_atoms_are_stable():
    a = Atom(1, 5, Stability.UNKNOWN)
    assert a.stability == Stability.STABLE


def test_tangent_atom_degree_checked():
    with pytest.raises(ValueError):
        FormalBundle(CurveContext(2), (Atom(1, 0, is_tangent=True),))
    FormalBundle(CurveContext(2), (Atom(1, -2, is_tangent=True),))  # fine


def test_json_round_trip_and_schema_errors():
    E = FormalBundle(
        P0,
        (Atom(1, 2, Stability.STABLE, "TX", True), Atom(2, -1, Stability.SEMISTABLE)),
    )
    assert bundle_from_json(bundle_to_json(E)) == E
    with pytest.raises(SchemaError):
        bundle_from_json({"genus": 0})
    with pytest.raises(SchemaError):
        bundle_from_json({"genus": -1, "atoms": [{"rank": 1, "degree": 0}]})
    with pytest.raises(SchemaError):
        bundle_from_json({"genus": 0, "atoms": []})
    with pytest.raises(SchemaError):
        bundle_from_json({"genus": 0, "atoms": [{"rank": 0, "degree": 0}]})
    with pytest.raises(SchemaError):
        bundle_from_json({"genus": 0, "atoms": [{"rank": 1, "degree": 0, "stability": "mystery"}]})
