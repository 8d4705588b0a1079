"""Formal layer: atoms, the degree-zero criterion, JSON."""

import pytest

from algconn.algebroid_decision import AlgebroidDesc, AnchorDesc
from algconn.errors import InvalidAnchor, SchemaError
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


def test_value_types_validate_their_fields():
    # a stability string is stored as its Stability, so that the JSON writer
    # and AlgebroidDesc's genus-0 rank message can read its value
    a = Atom(2, 1, "stable")
    assert a.stability is Stability.STABLE and a == Atom(2, 1, Stability.STABLE)
    assert bundle_to_json(FormalBundle(P0, (a,)))["atoms"][0]["stability"] == "stable"
    with pytest.raises(InvalidAnchor, match="declared stable"):
        AlgebroidDesc(FormalBundle(P0, (a,)), AnchorDesc("zero"))
    with pytest.raises(ValueError):
        Atom(2, 1, "bogus")
    for rank, degree in ((True, 0), (1, 2.5), (2.0, 1), (1, False), ("1", 0)):
        with pytest.raises(TypeError):
            Atom(rank, degree)
    for genus in (1.5, True, "0"):
        with pytest.raises(TypeError):
            CurveContext(genus)
    # a list of atoms would build a bundle that hash() refuses
    for atoms in ([Atom(1, 0)], (Atom(1, 0), (1, 0)), ((1, 0),)):
        with pytest.raises(TypeError):
            FormalBundle(P0, atoms)


def test_a_bundle_refuses_a_context_that_is_no_curve_context():
    # bundle_to_json reads context.genus, which an int does not have
    for context in (0, None, {"genus": 0}):
        with pytest.raises(TypeError, match="CurveContext"):
            FormalBundle(context, (Atom(1, 0),))


def test_an_atom_refuses_a_label_or_tangent_flag_that_json_would_not_read_back():
    # bundle_from_json refuses a label that is no string and a flag that is
    # no boolean, so the value types refuse them too
    for label in (5, None, b"O(1)"):
        with pytest.raises(TypeError, match="label"):
            Atom(1, 0, label=label)
    for is_tangent in (0, 1, None, "yes"):
        with pytest.raises(TypeError, match="is_tangent"):
            Atom(1, 2, is_tangent=is_tangent)
    E = FormalBundle(P0, (Atom(1, 2, label="TX", is_tangent=True), Atom(1, 0, label="")))
    assert bundle_from_json(bundle_to_json(E)) == E


def test_a_rank_one_atom_checks_its_stability_before_normalizing_it():
    for stability in ("bogus", 1, None):
        with pytest.raises(ValueError):
            Atom(1, 0, stability)
    for stability in ("unknown", "semistable", Stability.UNKNOWN):
        assert Atom(1, 0, stability).stability is Stability.STABLE


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
