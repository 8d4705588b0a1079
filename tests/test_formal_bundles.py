"""Formal layer: atoms, the degree-zero criterion, JSON."""

import pytest

from algconn.errors import SchemaError
from algconn.formal_bundles import (
    Atom,
    CurveContext,
    FormalBundle,
    Stability,
    atiyah_weil,
    bundle_from_json,
    bundle_to_json,
)
from algconn.sampling import Sampler

P0 = CurveContext(0)


def fb(*pairs, genus=0, stability=Stability.STABLE):
    atoms = tuple(Atom(r, d, stability) for r, d in pairs)
    return FormalBundle(CurveContext(genus), atoms)


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
