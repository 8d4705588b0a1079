"""Splitting, cohomology, sections, endomorphisms on the projective line."""

import hashlib
import itertools
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from oracles import (
    column,
    fraction_inverse,
    fraction_laurent_product,
    fraction_laurent_sum,
    fraction_nullspace,
    h0_by_linear_solve,
    min_exponent,
    monomial_det,
    monomial_diagonal_splitting,
    split_diagonal,
    trace,
)

from algconn import p1_engine
from algconn.cli import main
from algconn.errors import NotAUnit
from algconn.exact_core import LaurentMatrix, LaurentPoly
from algconn.jet_obstruction import (
    ConcreteAnchor,
    construct_connection,
    jet1_transition,
    jetV_transition,
    tangent_anchor,
)
from algconn.p1_engine import (
    P1Bundle,
    SplittingData,
    _birkhoff_cached,
    birkhoff_split,
    cohomology_dims,
    dual_bundle,
    gauge_transform,
    global_sections,
    hom_bundle,
    hom_sections,
    is_global_hom,
    line_bundle,
    p1bundle_from_json,
    p1bundle_to_json,
    riemann_roch_check,
    serre_dual_check,
    split_bundle,
    splitting_to_json,
    tangent_bundle,
    tensor_bundle,
    trivial_bundle,
    twist,
)
from algconn.sampling import Sampler, run_fuzz


def bundle(rows) -> P1Bundle:
    T = LaurentMatrix.parse(rows)
    return P1Bundle(T)


# -- construction invariants ---------------------------------------------------


def test_bundle_degree_and_validation():
    assert line_bundle(3).degree == 3
    assert split_bundle([2, -1]).degree == 1
    assert tangent_bundle().degree == 2
    with pytest.raises(NotAUnit):
        bundle([["z", "0"], ["0", "0"]])
    with pytest.raises(NotAUnit):
        bundle([["1 + z", "0"], ["0", "1"]])


def test_import_splits_nothing_and_tangent_bundle_is_one_value():
    # the tangent bundle and O are built on first use, so a bug that breaks
    # every split fails the tests that split, not the import of a test file
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        f"sys.path[:1] = [{src!r}]\n"
        "import algconn, algconn.cli, algconn.sampling\n"
        "from algconn.p1_engine import _birkhoff_cached, tangent_bundle\n"
        "print(_birkhoff_cached.cache_info().currsize)\n"
        "print(tangent_bundle() is tangent_bundle())\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "True"]


def test_non_units_raise_not_a_unit():
    s = Sampler(61)
    A, B = s.unimodular_z(3), s.unimodular_w(3)
    hidden = A @ LaurentMatrix.parse([["1 + z", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]) @ B
    for T in (
        LaurentMatrix.parse([["1", "0"], ["z", "0"]]),  # a zero column, no zero row
        LaurentMatrix.parse([["0", "z^2"], ["0", "1 + z"]]),  # det 0, reduction budget runs out
        LaurentMatrix.parse([["1 + z^-1", "z"], ["0", "1"]]),
        hidden,  # det = c(1 + z) behind a z/w gauge
    ):
        with pytest.raises(NotAUnit, match="not invertible over the Laurent ring"):
            P1Bundle(T)


def test_bundle_rejects_a_transition_of_another_shape():
    # a non-square transition is no unit
    with pytest.raises(NotAUnit, match="must be square"):
        P1Bundle(LaurentMatrix.parse([["1", "0", "0"], ["0", "1", "0"]]))


def test_every_constructor_reads_the_rank_off_the_transition():
    s = Sampler(69)
    E, _ = s.gauged_p1_bundle(max_rank=3, bound=2, ops=2, max_deg=1)
    V = split_bundle([2, 1])
    built = [
        line_bundle(3, -2), trivial_bundle(4), split_bundle([2, 0, -1]), tangent_bundle(),
        dual_bundle(E), tensor_bundle(E, V), hom_bundle(V, E), twist(E, -2),
        gauge_transform(E, s.unimodular_z(E.rank), s.unimodular_w(E.rank)),
        p1bundle_from_json(p1bundle_to_json(E)), jet1_transition(E),
        jetV_transition(E, ConcreteAnchor(V, LaurentMatrix.parse([["1", "z"]]))),
    ]
    assert [X.rank for X in built] == [X.transition.rows for X in built]
    assert [X.rank for X in built[:4]] == [1, 4, 3, 1]
    assert [X.rank for X in built[4:]] == [E.rank, 2 * E.rank, 2 * E.rank, E.rank, E.rank,
                                           E.rank, 2 * E.rank, 3 * E.rank]


def test_a_bundle_is_its_transition():
    # P1Bundle takes the transition alone, positionally or by name; equal
    # transitions built two ways give equal bundles with one hash, and a
    # pickle carries the transition and nothing else
    built = LaurentMatrix.diag([LaurentPoly.z(1), LaurentPoly.z(-1)])
    parsed = LaurentMatrix.parse([["z", "0"], ["0", "z^-1"]])
    E, F = P1Bundle(built), P1Bundle(transition=parsed)
    assert E == F and hash(E) == hash(F) == hash((parsed,))
    assert E != P1Bundle(LaurentMatrix.parse([["z", "0"], ["0", "z"]]))
    assert E.__reduce__() == (P1Bundle, (built,))
    again = pickle.loads(pickle.dumps(F))
    assert again == E and (again.rank, again.degree) == (2, 0)


def test_degree_pinned_by_sections():
    # the sign convention: O(1) has two sections, O(-1) none
    assert cohomology_dims(line_bundle(1)) == (2, 0)
    assert cohomology_dims(line_bundle(-1)) == (0, 0)


# -- splitting -----------------------------------------------------------------


def test_split_diagonal():
    d = birkhoff_split(bundle([["z^2", "0"], ["0", "z^-1"]]))
    assert d.type == (2, -1)
    assert d.U0 == LaurentMatrix.identity(2)
    assert d.U1 == LaurentMatrix.identity(2)


def test_split_unipotent():
    E = bundle([["1", "z"], ["0", "1"]])
    d = birkhoff_split(E)
    assert d.type == (0, 0)
    assert d.verify(E)


def test_split_mixed_with_cohomology_oracle():
    E = bundle([["z^-1", "1"], ["0", "z"]])
    d = birkhoff_split(E)
    assert d.type == (0, 0)
    assert cohomology_dims(E) == (2, 0)
    assert cohomology_dims(twist(E, -1)) == (0, 0)


def test_split_identity_verifies_on_random_bundles():
    s = Sampler(17)
    for _ in range(40):
        E, expected = s.gauged_p1_bundle(max_rank=3, bound=3, ops=2, max_deg=1)
        d = birkhoff_split(E)
        assert list(d.type) == expected
        assert d.verify(E)
        assert sum(d.type) == E.degree


def test_split_type_gauge_invariant():
    s = Sampler(18)
    for _ in range(10):
        E, expected = s.gauged_p1_bundle(max_rank=3, bound=3, ops=1, max_deg=1)
        for _ in range(5):
            A = s.unimodular_z(E.rank, ops=2, max_deg=2)
            B = s.unimodular_w(E.rank, ops=2, max_deg=2)
            assert list(birkhoff_split(gauge_transform(E, A, B)).type) == expected


def test_split_memo_observationally_transparent():
    E = bundle([["z^-1", "1"], ["0", "z"]])
    cached = birkhoff_split(E)
    assert birkhoff_split(E) is cached  # served from the memo
    _birkhoff_cached.cache_clear()
    fresh = birkhoff_split(E)
    assert fresh is not cached and fresh == cached


def test_split_memo_is_keyed_by_the_transition():
    # a bundle reads the memo entry of its transition, and so does a second
    # bundle built on an equal transition
    s = Sampler(68)
    E = gauge_transform(split_bundle([2, 0, -1]), s.unimodular_z(3), s.unimodular_w(3))
    assert birkhoff_split(E) is _birkhoff_cached(E.transition)
    T = s.unimodular_z(3) @ split_bundle([1, 0, -1]).transition @ s.unimodular_w(3)
    record = birkhoff_split(P1Bundle(T))
    assert record is _birkhoff_cached(T)
    fresh = LaurentMatrix.parse(T.to_strings())
    assert fresh is not T and birkhoff_split(P1Bundle(fresh)) is record
    # T^(-1) is formed from the record's frames on each read: equal, not shared
    inv = record.transition_inverse
    assert birkhoff_split(P1Bundle(fresh)).transition_inverse == inv
    assert T @ inv == LaurentMatrix.identity(3)


def test_the_splitting_and_parse_memos_are_the_only_memos():
    import algconn.cli  # noqa: F401  (with the package, loads every algconn module)
    from algconn import exact_core

    memos = set()
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("algconn"):
            continue
        for attr, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for member, obj in members:
                if callable(getattr(obj, "cache_info", None)):
                    memos.add(f"{obj.__module__}.{obj.__qualname__}")
    assert memos == {"algconn.p1_engine._birkhoff_cached", "algconn.exact_core._parsed"}
    # both memos are keyed by outside input, so both must stay bounded
    assert exact_core._parsed.cache_info().maxsize is not None
    assert _birkhoff_cached.cache_info().maxsize is not None


def test_split_memo_evicts_past_its_bound_and_splits_again():
    # 1024 + 8 distinct transitions leave 1024 in the memo; the first one,
    # evicted, is split again on its next read, to an equal record
    s = Sampler(69)
    E = gauge_transform(split_bundle([2, 0, -1]), s.unimodular_z(3), s.unimodular_w(3))
    _birkhoff_cached.cache_clear()
    try:
        first = birkhoff_split(E)
        for a in range(1024 + 7):
            line_bundle(a)
        assert _birkhoff_cached.cache_info().currsize == 1024
        misses = _birkhoff_cached.cache_info().misses
        again = birkhoff_split(P1Bundle(LaurentMatrix.parse(E.transition.to_strings())))
        assert _birkhoff_cached.cache_info().misses == misses + 1
        assert again is not first and again == first
    finally:
        _birkhoff_cached.cache_clear()


def test_equal_bundles_get_equal_transition_inverses():
    # the record keeps no T^(-1): each read forms it from U0 and U1, so
    # equal bundles get equal inverses, but never one shared object
    s = Sampler(61)
    E = gauge_transform(split_bundle([2, 0, -1]), s.unimodular_z(3), s.unimodular_w(3))
    F = p1bundle_from_json(p1bundle_to_json(E))
    assert F is not E and F == E
    t_inv = birkhoff_split(E).transition_inverse
    assert birkhoff_split(F).transition_inverse == t_inv
    assert birkhoff_split(E).transition_inverse is not t_inv
    assert E.transition @ t_inv == LaurentMatrix.identity(3)
    assert not hasattr(birkhoff_split(E), "__dict__")


def test_splitting_inverses_are_two_sided():
    s = Sampler(62)
    for r in range(1, 6):
        exps = s.exponents(max_rank=r, min_rank=r, bound=3)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        d = birkhoff_split(E)
        T, eye = E.transition, LaurentMatrix.identity(r)
        u1_inv = split_diagonal([-a for a in d.type]) @ d.U0 @ T  # D^(-1) U0 T
        for M, inv in ((T, d.transition_inverse), (d.U0, d.u0_inverse), (d.U1, u1_inv)):
            assert M @ inv == eye and inv @ M == eye


def assert_u1_inverse_is_held(d) -> None:
    """The record's u1_inverse is D^(-1) U0 T, by the Fraction reference,
    and inverts U1."""
    r = d.U0.rows
    u0_t = fraction_laurent_product(d.U0, d.transition, [0] * r)
    want = [[{e - a: c for e, c in x.items()} for x in row] for row, a in zip(u0_t, d.type)]
    held = d.u1_inverse
    assert [[held.entry(i, j).coeffs for j in range(r)] for i in range(r)] == want
    eye = [[{0: 1} if i == j else {} for j in range(r)] for i in range(r)]
    assert fraction_laurent_product(held, d.U1, [0] * r) == eye


def test_the_record_holds_u1_inverse_on_both_paths():
    # gauged bundles, on which the reduction takes steps, and monomial
    # diagonals, on which it takes none: each record holds U1^(-1) = D^(-1) U0 T
    s = Sampler(541)
    for r in range(1, 7):
        exps = s.exponents(max_rank=r, min_rank=r, bound=3)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        assert_u1_inverse_is_held(birkhoff_split(E))
    third = Fraction(1, 3)
    for coeffs, exps in (((2, -1, third), (1, 1, 1)), ((1, -3, 5), (-2, 3, 0)),
                         ((third, 7), (4, -4)), ((-2,), (3,))):
        assert_u1_inverse_is_held(birkhoff_split(P1Bundle(monomial_diagonal(coeffs, exps))))


def test_a_yes_forms_no_u0_t_product_of_its_own(monkeypatch):
    # construct_connection reads Y = U1^(-1) off E's record
    s = Sampler(542)
    for r in (2, 3):
        E = gauge_transform(split_bundle([0] * r), s.unimodular_z(r, ops=r * r),
                            s.unimodular_w(r, ops=r * r))
        d = birkhoff_split(E)
        products = count_products(monkeypatch)
        assert construct_connection(E, tangent_anchor()) is not None
        assert products and not any(x is d.U0 and y is E.transition for _, x, y in products)
        monkeypatch.undo()


def test_a_splitting_type_is_a_tuple_of_ints():
    # the record is exported: a type that is no tuple, or holds a float, a
    # bool or a Fraction, is refused as LaurentPoly refuses a non-int
    # exponent, and never builds a record that hash() refuses
    I1, z = LaurentMatrix.identity(1), LaurentMatrix.parse([["z"]])
    for T, bad in ((I1, (0.0,)), (z, (True,)), (I1, [0]), (I1, (Fraction(0),)), (I1, "0")):
        with pytest.raises(TypeError, match="is not a tuple of ints"):
            SplittingData(T, bad, I1, I1)
    d, honest = SplittingData(I1, (0,), I1, I1), birkhoff_split(trivial_bundle(1))
    assert d == honest and hash(d) == hash(honest)


def test_u0_inverse_is_held_for_its_transition():
    s = Sampler(63)
    for r in (4, 5, 6):
        exps = s.exponents(max_rank=r, min_rank=r, bound=2)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        d = birkhoff_split(E)
        T = E.transition
        held = d.u0_inverse
        assert d.u0_inverse is held and d.transition is T
        assert held == T @ d.U1 @ split_diagonal([-a for a in d.type])
        # an equal bundle built afresh gets the memo's splitting and its inverse
        F = p1bundle_from_json(p1bundle_to_json(E))
        assert F.transition is not T and F.transition == T
        assert birkhoff_split(F) is d and birkhoff_split(F).u0_inverse is held


def test_verify_reads_no_held_inverse_of_another_bundle():
    s = Sampler(64)
    for r in (4, 5, 6):
        E = gauge_transform(split_bundle(range(r, 0, -1)), s.unimodular_z(r), s.unimodular_w(r))
        E2 = gauge_transform(split_bundle(range(r, 0, -1)), s.unimodular_z(r), s.unimodular_w(r))
        assert E2 != E and (E2.rank, E2.degree) == (E.rank, E.degree)
        d = birkhoff_split(E)
        assert d.verify(E) and not d.verify(E2) and d.verify(E)


def test_verify_accepts_every_splitting_not_only_the_memos():
    # every automorphism g of the split bundle sum O(a_i) gives another
    # splitting (type, g U0, U1 D^(-1) g^(-1) D) of E: g = I + c z^m E_ij with
    # i < j and 0 <= m <= a_i - a_j, a scaling, or a swap inside a run of
    # equal a_i. Each builds, verifies, and its type sums to deg E
    def unit(r: int, entries: dict) -> LaurentMatrix:  # I plus the (i, j): entry items
        return LaurentMatrix.identity(r) + LaurentMatrix(
            [[entries.get((i, j), LaurentPoly.zero()) for j in range(r)] for i in range(r)]
        )

    one, minus_half = LaurentPoly.one(), LaurentPoly.monomial(Fraction(-1, 2), 0)
    s = Sampler(66)
    checked = 0
    for r in range(2, 6):
        runs = [1] * (r - 1) + [-1], range(r, 0, -1), s.exponents(max_rank=r, min_rank=r, bound=2)
        for exps in runs:
            E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
            d = birkhoff_split(E)
            a = d.type
            D, D_inv = split_diagonal(a), split_diagonal([-x for x in a])
            autos = []
            for i in range(r):
                for j in range(i + 1, r):
                    for m in range(a[i] - a[j] + 1):
                        c = LaurentPoly.monomial(s.coefficient(nonzero=True), m)
                        autos.append((unit(r, {(i, j): c}), unit(r, {(i, j): -c})))
                # I + E_ii doubles frame i, and I - E_ii / 2 halves it back
                autos.append((unit(r, {(i, i): one}), unit(r, {(i, i): minus_half})))
                if i + 1 < r and a[i] == a[i + 1]:
                    swap = LaurentMatrix.identity(r).submatrix(
                        [*range(i), i + 1, i, *range(i + 2, r)], range(r))
                    autos.append((swap, swap))
            for g, g_inv in autos:
                assert g @ g_inv == LaurentMatrix.identity(r)
                other = SplittingData(E.transition, a, g @ d.U0, d.U1 @ D_inv @ g_inv @ D)
                assert other != d and other.verify(E) and verify_by_det(other, E)
                assert sum(other.type) == E.degree
                checked += 1
    assert checked > 100


def count_products(monkeypatch) -> list:
    """Record every matrix product from here on as (kind, left, right):
    "@" for LaurentMatrix.__matmul__, "lifted" for the record's T U1 D^(-1)
    and "inverse" for its decision of U0 U0^(-1) = I."""
    products = []
    matmul = LaurentMatrix.__matmul__
    lifted, inverse = p1_engine._lifted_product, p1_engine._inverse_holds

    def counting_matmul(self, other):
        products.append(("@", self, other))
        return matmul(self, other)

    def counting_lifted(A, B, shifts):
        products.append(("lifted", A, B))
        return lifted(A, B, shifts)

    def counting_inverse(A, B):
        products.append(("inverse", A, B))
        return inverse(A, B)

    monkeypatch.setattr(LaurentMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(p1_engine, "_lifted_product", counting_lifted)
    monkeypatch.setattr(p1_engine, "_inverse_holds", counting_inverse)
    return products


def test_split_verify_and_sections_form_t_u1_once(monkeypatch):
    s = Sampler(65)
    r = 5
    T = s.unimodular_z(r) @ split_bundle([3, 1, 0, -1, -2]).transition @ s.unimodular_w(r)
    _birkhoff_cached.cache_clear()  # so that P1Bundle(T) runs the reduction and verify
    products = count_products(monkeypatch)
    E = P1Bundle(T)
    d = birkhoff_split(E)
    assert d.verify(E)
    assert len(global_sections(E)) == cohomology_dims(E)[0]
    assert [kind for kind, x, y in products if x is T and y is d.U1] == ["lifted"]


def test_verify_forms_no_product_and_a_split_checks_once(monkeypatch):
    # a record splits exactly its own transition, so verify multiplies
    # nothing; the memo's split forms T U1 D^(-1) once, as one lifted
    # product, decides U0 U0^(-1) = I once, without a product, and forms
    # U0 T once, for U1^(-1)
    s = Sampler(67)
    r = 4
    T = s.unimodular_z(r) @ split_bundle([2, 1, -1, -2]).transition @ s.unimodular_w(r)
    _birkhoff_cached.cache_clear()  # so that P1Bundle(T) runs the reduction
    products = count_products(monkeypatch)
    E = P1Bundle(T)
    d = birkhoff_split(E)
    copy, other = p1bundle_from_json(p1bundle_to_json(E)), twist(E, 1)
    split = products[:]
    products.clear()
    assert d.verify(E) and d.verify(copy) and not d.verify(other)
    assert products == []
    assert [kind for kind, x, y in split if x is T and y is d.U1] == ["lifted"]
    assert [kind for kind, x, y in split if x is d.U0 and y is d.u0_inverse] == ["inverse"]
    assert [kind for kind, x, y in split if x is d.U0 and y is T] == ["@"]
    assert [kind for kind, x, _ in split if kind == "@" and x is d.U0] == ["@"]


def verify_by_det(d, E: P1Bundle) -> bool:
    """The definition of a splitting, with the oracle determinant as reference:
    sorted type summing to deg E, U0 polynomial in z and U1 in 1/z, both of
    nonzero constant determinant, and U0 T U1 = diag(z^a). d is a
    SplittingData or a claimed one (a Claim) that its constructor refuses."""
    if list(d.type) != sorted(d.type, reverse=True) or sum(d.type) != E.degree:
        return False
    if not (d.U0.is_poly_in_z and d.U1.is_poly_in_w):
        return False
    if any(monomial_det(U) is None or monomial_det(U)[1] != 0 for U in (d.U0, d.U1)):
        return False
    return d.U0 @ E.transition @ d.U1 == split_diagonal(d.type)


# a claimed splitting, not yet built: SplittingData(*claim) checks it
Claim = namedtuple("Claim", "transition type U0 U1")

# the clause that certifies U1 by its inverse, by its message
NOT_UNIMODULAR = r"U1\^\(-1\) = D\^\(-1\) U0 T must be polynomial in 1/z"

# the constructor's clause that refuses each tamper, by its message
REFUSED_BY = {
    "row_scaled": r"T U1 D\^\(-1\) must be polynomial in z",
    "unsorted": "must descend",
    "degree_sum": NOT_UNIMODULAR,
    "degree_raised": r"T U1 D\^\(-1\) must be polynomial in z",
    "u0_not_poly": "U0 must be polynomial in z",
    "shear": "U0 T U1 must be diag",
    "u1_not_poly": "U1 must be polynomial in 1/z",
    "column_scaled": "U0 T U1 must be diag",
}


def tampered_splittings(E: P1Bundle) -> dict[str, Claim]:
    """Splittings of E, rank >= 2 with distinct exponents, each broken in one way."""
    d = birkhoff_split(E)
    r, T = E.rank, E.transition
    one, z, w = LaurentPoly.one(), LaurentPoly.z(1), LaurentPoly.z(-1)

    def at(i: int, x: LaurentPoly) -> LaurentMatrix:
        return LaurentMatrix.diag([x if k == i else one for k in range(r)])

    def unit_at_01(x: LaurentPoly) -> LaurentMatrix:
        return LaurentMatrix.identity(r) + LaurentMatrix(
            [[x if (i, j) == (0, 1) else LaurentPoly.zero() for j in range(r)] for i in range(r)]
        )

    swap = LaurentMatrix.identity(r).submatrix([1, 0] + list(range(2, r)), range(r))
    shear = unit_at_01(one)
    # G = I + z^k E_01 with k = a_0 - a_1 + 1: D^(-1) G^(-1) D = I - z E_01
    steep = unit_at_01(LaurentPoly.z(d.type[0] - d.type[1] + 1))
    low, high = list(d.type), list(d.type)
    low[-1] -= 1
    high[0] += 1
    return {
        # U0 T U1 = D still holds, but det U0 = z and det U1 = 1/z:
        # U0^(-1) leaves its chart (column 0 times 1/z), and so would
        # U1^(-1) = D^(-1) U0 T (row 0 times z)
        "row_scaled": Claim(T, d.type, at(0, z) @ d.U0, d.U1 @ at(0, w)),
        "unsorted": Claim(T, d.type[1::-1] + d.type[2:], swap @ d.U0, d.U1 @ swap),
        # U0 T U1 = diag(z^low) with det U1 = 1/z: of the record's clauses
        # only U1^(-1) = D^(-1) U0 T polynomial in 1/z sees it (its last
        # row is z times the honest one), and with it the type's sum deg E - 1
        "degree_sum": Claim(T, tuple(low), d.U0, d.U1 @ at(r - 1, w)),
        # U0 T U1 = diag(z^high) with det U0 = z and U1 unimodular: of the
        # record's clauses only U0^(-1) polynomial in z sees it
        "degree_raised": Claim(T, tuple(high), at(0, z) @ d.U0, d.U1),
        "u0_not_poly": Claim(T, d.type, at(0, w) @ d.U0, d.U1 @ at(0, z)),
        "shear": Claim(T, d.type, shear @ d.U0, d.U1),
        # U0 T U1 = D, U0 polynomial and U0^(-1) = T U1 D^(-1) polynomial in
        # z, det U1 = 1: U1 polynomial in 1/z sees it, and so would U1^(-1)
        # = D^(-1) U0 T, whose row 0 gains z times row 1
        "u1_not_poly": Claim(T, d.type, steep @ d.U0, d.U1 @ unit_at_01(-z)),
        # U1's column 1 times 2/3: every chart clause holds, and U0 U0^(-1)
        # has 2/3 on its diagonal, which only the identity sees
        "column_scaled": Claim(T, d.type, d.U0, d.U1 @ at(1, LaurentPoly.const(Fraction(2, 3)))),
    }


def test_verify_matches_det_definition_and_rejects_tampers():
    s = Sampler(59)
    for r in range(1, 6):
        exps = s.exponents(max_rank=r, min_rank=r, bound=2)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        d = birkhoff_split(E)
        assert d.verify(E) and verify_by_det(d, E)
        if r == 1:
            continue
        F = gauge_transform(split_bundle(range(r, 0, -1)), s.unimodular_z(r), s.unimodular_w(r))
        tampers = tampered_splittings(F)
        assert set(tampers) == set(REFUSED_BY)
        for name, claim in tampers.items():
            assert not verify_by_det(claim, F), name
            with pytest.raises(ValueError, match=REFUSED_BY[name]):
                SplittingData(*claim)
        scaled = tampers["row_scaled"]
        assert scaled.U0 @ F.transition @ scaled.U1 == split_diagonal(scaled.type)


def test_verify_rejects_u0_off_its_chart_under_a_wrong_degree():
    # with deg E right, the other clauses imply U0 polynomial in z (det U0^(-1)
    # = c det U1 is then polynomial in z and in 1/z); under a wrong degree
    # only that clause refuses U0 = 1/z. For T = [[1]], of O, the claim of
    # type (-1,) with U0 = 1/z and U1 = 1 satisfies the identity, U0^(-1) =
    # T U1 D^(-1) = z is polynomial in z and U0 U0^(-1) = I: only U0's chart
    # refuses it, when the record is built
    E = trivial_bundle(1)
    U0, U1 = LaurentMatrix.parse([["z^-1"]]), LaurentMatrix.parse([["1"]])
    assert U0 @ E.transition @ U1 == split_diagonal([-1])
    u0_inv = E.transition @ U1 @ split_diagonal([1])
    assert u0_inv.is_poly_in_z and U0 @ u0_inv == LaurentMatrix.identity(1)
    with pytest.raises(ValueError, match="U0 must be polynomial in z"):
        SplittingData(E.transition, (-1,), U0, U1)
    d = birkhoff_split(E)
    assert d.verify(E) and sum(d.type) == E.degree == 0


def test_splits_rejects_a_u1_that_is_not_unimodular(monkeypatch):
    # T = I: each stub has U0 T U1 = D, U0 and U1 on their charts and U0^(-1)
    # = T U1 D^(-1) = I, yet det U1 = w. Only U1^(-1) = D^(-1) U0 T, which
    # holds z, sees it. As an independent oracle, U1's constant term is
    # singular (zero, or nonzero of rank 1) by the Fraction nullspace
    w = LaurentPoly.z(-1)
    I1, I2 = LaurentMatrix.identity(1), LaurentMatrix.identity(2)
    stubs = [
        Claim(I1, (-1,), I1, LaurentMatrix.diag([w])),
        Claim(I2, (0, -1), I2, LaurentMatrix.diag([LaurentPoly.one(), w])),
    ]
    for stub in stubs:
        T = stub.transition
        assert stub.U0 @ T @ stub.U1 == split_diagonal(stub.type)
        assert stub.U0.is_poly_in_z and stub.U1.is_poly_in_w
        assert T @ stub.U1 @ split_diagonal([-a for a in stub.type]) == T
        u1_0 = [[stub.U1.entry(i, j).coeff(0) for j in range(T.rows)] for i in range(T.rows)]
        assert fraction_nullspace(u1_0, T.rows)
        assert not (split_diagonal([-a for a in stub.type]) @ stub.U0 @ T).is_poly_in_w
        with pytest.raises(ValueError, match=NOT_UNIMODULAR):
            SplittingData(*stub)
    # a stub from the reduction is refused before it can enter the memo, and
    # the memo reports the refusal as an internal bug
    monkeypatch.setattr(p1_engine, "_split_reduced", lambda T: SplittingData(*stubs[0]))
    _birkhoff_cached.cache_clear()
    try:
        with pytest.raises(AssertionError, match="internal bug") as refused:
            P1Bundle(I1)
        assert isinstance(refused.value.__cause__, ValueError)
        assert re.search(NOT_UNIMODULAR, str(refused.value.__cause__))
        assert _birkhoff_cached.cache_info().currsize == 0
    finally:
        _birkhoff_cached.cache_clear()


def test_verify_rejects_a_splitting_of_another_rank():
    # a splitting of another rank gives False, not a shape error; a type, U0,
    # U1 or transition of different sizes is no record at all
    assert not birkhoff_split(split_bundle([1, -1])).verify(split_bundle([0, 0, 0]))
    E = split_bundle([0, 0])
    I2, I3 = LaurentMatrix.identity(2), LaurentMatrix.identity(3)
    assert SplittingData(E.transition, (0, 0), I2, I2).verify(E)
    for bad in ((I2, (0, 0), I3, I2), (I2, (0, 0), I2, I3), (I2, (0, 0, 0), I2, I2),
                (I3, (0, 0), I2, I2)):
        with pytest.raises(ValueError, match="for a type of length"):
            SplittingData(*bad)


def test_inverses_refuse_a_splitting_of_another_rank():
    # a type of length 3 with 2x2 frames is no splitting: the constructor
    # refuses it, so no inverse is ever read off the first two exponents
    I2 = LaurentMatrix.identity(2)
    with pytest.raises(ValueError, match=r"frames \(2, 2\), \(2, 2\) for a type of length 3"):
        SplittingData(I2, (1, 0, -1), I2, I2)
    with pytest.raises(ValueError, match=r"frames \(2, 2\), \(2, 2\) for a type of length 1"):
        SplittingData(I2, (0,), I2, I2)


def test_split_and_verify_take_no_det():
    assert not hasattr(LaurentMatrix, "det")
    s = Sampler(60)
    E = gauge_transform(split_bundle([2, 1, 0, -1, -3]), s.unimodular_z(5), s.unimodular_w(5))
    doc = p1bundle_to_json(E)
    _birkhoff_cached.cache_clear()
    assert birkhoff_split(E).verify(E)
    # the whole split/cohomology/sections flow, from JSON, and the jet bundles
    F = p1bundle_from_json(doc)
    assert birkhoff_split(F).verify(F)
    assert cohomology_dims(F) == (6, 2) and serre_dual_check(F)
    assert len(global_sections(F)) == 6
    for J in (jet1_transition(F), jetV_transition(F, tangent_anchor())):
        birkhoff_split(J)


def test_u1_reaches_its_degree_bound():
    # T = N = I + wJ with J the nilpotent 4x4 shift: U0 = I, and U1 = N^-1 =
    # I - wJ + w^2 J^2 - w^3 J^3 has w-degree exactly (r-1) deg_w N = 3
    N = LaurentMatrix.parse(
        [["1", "z^-1", "0", "0"], ["0", "1", "z^-1", "0"], ["0", "0", "1", "z^-1"], ["0", "0", "0", "1"]]
    )
    U1 = birkhoff_split(P1Bundle(N)).U1
    assert N @ U1 == LaurentMatrix.identity(4)
    assert min_exponent(U1) == -3
    assert U1.entry(0, 3) == -LaurentPoly.z(-3)


def test_u1_runs_past_its_zero_terms():
    # T = N = I + w^2 J with J the nilpotent 3x3 shift: U1 = N^-1 = I - w^2 J
    # + w^4 J^2 has terms at w^0, w^2 and w^4 and zero terms between them
    N = LaurentMatrix.parse([["1", "z^-2", "0"], ["0", "1", "z^-2"], ["0", "0", "1"]])
    U1 = birkhoff_split(P1Bundle(N)).U1
    assert N @ U1 == LaurentMatrix.identity(3)
    assert min_exponent(U1) == -4
    assert U1.entry(0, 2) == LaurentPoly.z(-4)


def entries(row: dict, width: int) -> list:
    """A row map {(exponent, column): coefficient} as the coefficient maps of
    its width entries."""
    out = [{} for _ in range(width)]
    for (e, j), c in row.items():
        out[j][e] = c
    return out


def row_map(entry_maps) -> dict:
    """The coefficient maps of a row's entries as one row map."""
    return {(e, j): c for j, x in enumerate(entry_maps) for e, c in x.items()}


@pytest.mark.parametrize("seed", range(60))
def test_row_step_matches_the_fraction_reference(seed):
    # _step, the reduction's row step: entry j of ka a + kb z^s b is the sum
    # of ka a_j and kb z^s b_j, with ka and kb nonzero canonical scalars as
    # the leading coefficients are
    rng = random.Random(seed)
    width = rng.randint(1, 4)

    def scalar():
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        return c.numerator if c.denominator == 1 else c

    def row():
        return [{rng.randint(-3, 3): scalar() for _ in range(rng.randint(0, 3))}
                for _ in range(width)]

    a, b = row(), row()
    ka, kb, s = scalar(), scalar(), rng.randint(-2, 2)
    cancel = seed % 4 == 0
    if cancel:
        b, kb, s = a, -ka, 0
    a_map, b_map = row_map(a), row_map(b)
    before = (dict(a_map), dict(b_map))
    got = p1_engine._step(a_map, ka, b_map, kb, s)
    assert entries(got, width) == [fraction_laurent_sum([(a[j], 0, ka), (b[j], s, kb)])
                                   for j in range(width)]
    assert all(c and (type(c) is int or c.denominator > 1) for c in got.values())
    assert (a_map, b_map) == before  # the rows it reads are left as they were
    if cancel:
        assert got == {}


def test_the_leading_key_is_the_last_column_at_the_row_degree():
    # (d, p) is the row's largest key: the degree d, then the last column
    # whose entry reaches it, whatever the coefficients and lower terms
    assert p1_engine._leading({(1, 0): 5, (1, 2): -1, (0, 3): 7, (-4, 1): 2}) == (1, 2)
    assert p1_engine._leading({(0, 3): 1, (0, 0): 2}) == (0, 3)
    assert p1_engine._leading({(-2, 1): Fraction(1, 2)}) == (-2, 1)
    with pytest.raises(NotAUnit, match="determinant is zero"):
        p1_engine._leading({})


NONCONSTANT_DET = [["1", "z^-1"], ["-1", "1"]]


def test_nonconstant_det_is_not_a_unit(capsys, tmp_path):
    # N = T has N(0) invertible but det N = 1 + w: reflected, R = [[1, z],
    # [-1, 1]] is row-reduced with row degrees 1 and 0, summing to deg det R
    # = 1 > 0, so the bundle being validated is no unit. The rank-3 case has
    # det T = 1 + z^-1 and one w^(10^6) entry.
    with pytest.raises(NotAUnit, match="not a monomial"):
        bundle(NONCONSTANT_DET)
    with pytest.raises(NotAUnit, match="not a monomial"):
        bundle([["1 + z^-1", "z^-1000000", "0"], ["0", "1", "z"], ["0", "0", "1"]])
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"rank": 2, "transition": NONCONSTANT_DET}))
    assert main(["split", "--bundle", str(p)]) == 3
    assert "not a monomial" in capsys.readouterr().err


def test_a_split_that_fails_verify_is_an_internal_bug(monkeypatch):
    # the reduction decides units, so a claimed splitting that fails the
    # identity is a bug, not a verdict on the input
    real = p1_engine._split_reduced

    def tampered(T):
        data = real(T)  # 2 U0 keeps every clause of the record but the identity
        return SplittingData(T, data.type, data.U0.scalar_mul(2), data.U1)

    monkeypatch.setattr(p1_engine, "_split_reduced", tampered)
    _birkhoff_cached.cache_clear()
    try:
        with pytest.raises(AssertionError, match="internal bug") as refused:
            bundle([["z", "1"], ["0", "z^-1"]])
        assert "U0 T U1 must be diag" in str(refused.value.__cause__)
    finally:
        _birkhoff_cached.cache_clear()


# -- the w-chart: simple transformations and one forward substitution ------------


def maps(rows) -> list:
    """Rows of Laurent strings as row maps {(exponent, column): coefficient}."""
    return [row_map([x.coeffs for x in row]) for row in LaurentMatrix.parse(rows)._rows]


def assert_w_inverse(rows):
    """_w_inverse(R) is R^(-1) in canonical row maps: R R^(-1) = I by the
    Fraction product, and a constant R^(-1) is the Fraction Gauss-Jordan
    inverse. Returns R^(-1) as the coefficient maps of its entries."""
    R = maps(rows)
    r = len(R)
    got = p1_engine._w_inverse([dict(row) for row in R])
    assert all(type(c) is int or c.denominator > 1 for row in got for c in row.values())
    got = [entries(row, r) for row in got]
    as_matrix = [[LaurentPoly(x) for x in row] for row in got]
    product = fraction_laurent_product(LaurentMatrix.parse(rows), LaurentMatrix(as_matrix), [0] * r)
    assert product == [[{0: 1} if i == j else {} for j in range(r)] for i in range(r)]
    if all(e == 0 for row in R for e, _ in row):
        want = fraction_inverse([[x.get(0, 0) for x in entries(row, r)] for row in R])
        assert got == [[{0: c} if c else {} for c in row] for row in want]
    return got


def test_w_inverse_of_a_constant_divides_by_pivots_that_are_not_one():
    # C = W R constant at once: the forward substitution alone, each row
    # divided by its pivot, with earlier rows subtracted below the diagonal
    assert assert_w_inverse([["2", "0"], ["3", "5"]]) == [
        [{0: Fraction(1, 2)}, {}], [{0: Fraction(-3, 10)}, {0: Fraction(1, 5)}]
    ]
    assert_w_inverse([["0", "-3", "0"], ["7", "2", "0"], ["1/2", "0", "-4"]])
    assert_w_inverse([["-1", "0"], ["1", "-1"]])


def test_w_inverse_of_rank_one():
    assert assert_w_inverse([["3"]]) == [[{0: Fraction(1, 3)}]]
    assert assert_w_inverse([["-2/5"]]) == [[{0: Fraction(-5, 2)}]]
    assert assert_w_inverse([["1"]]) == [[{0: 1}]]
    with pytest.raises(NotAUnit, match="not a monomial"):
        p1_engine._w_inverse(maps([["1 + 2*z"]]))


def test_w_inverse_reduces_rows_tied_on_a_leading_position():
    # both rows end in column 1: at degree 0 (a dense constant), at equal
    # positive degrees, and at degrees 1 and 0, where the row of higher
    # degree is reduced whichever comes first
    assert_w_inverse([["2", "3"], ["5", "7"]])
    assert_w_inverse([["1", "z"], ["1", "1 + z"]])
    assert_w_inverse([["1", "0"], ["2*z", "3"]])
    assert_w_inverse([["2", "3*z"], ["0", "-1"]])
    assert_w_inverse([["0", "-1"], ["2", "3*z"]])
    # I + zJ, J the nilpotent shift: each step leaves a tie one column left
    assert_w_inverse([["1", "z", "0", "0"], ["0", "1", "z", "0"], ["0", "0", "1", "z"],
                      ["0", "0", "0", "1"]])


@pytest.mark.parametrize("seed", range(40))
def test_w_inverse_inverts_random_units_and_refuses_non_units(seed):
    # R = (product of elementary polynomial row operations) @ C, with C a
    # constant invertible matrix of rational entries, is a unit; R times
    # diag(1 + c z, 1, ...) is not, and the w-chart decides it
    rng = random.Random(seed)
    r = rng.randint(1, 4)
    C = [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(r)] for _ in range(r)]
    while monomial_det(LaurentMatrix([[LaurentPoly({0: c}) for c in row] for row in C])) is None:
        C[rng.randrange(r)][rng.randrange(r)] += 1
    R = LaurentMatrix([[LaurentPoly({0: c}) for c in row] for row in C])
    for _ in range(rng.randint(0, 2 * r)):
        if r == 1:
            break
        i, j = rng.sample(range(r), 2)
        E = [[LaurentPoly.one() if a == b else LaurentPoly() for b in range(r)] for a in range(r)]
        E[i][j] = LaurentPoly({rng.randint(0, 2): rng.choice([-2, -1, 1, Fraction(1, 2), 3])})
        R = LaurentMatrix(E) @ R
    rows = R.to_strings()
    assert_w_inverse(rows)
    bump = LaurentMatrix.diag([LaurentPoly({0: 1, 1: rng.choice([1, -2, Fraction(1, 3)])})]
                              + [LaurentPoly.one()] * (r - 1))
    with pytest.raises(NotAUnit, match="not a monomial"):
        p1_engine._w_inverse(maps((R @ bump).to_strings()))


def test_a_constant_transition_is_inverted_on_the_w_chart():
    # both rows of [[2, 1], [0, 3]] lead in column 1: one z-chart step,
    # row 1 <- 1 row 1 - 3 row 0, gives U0 T = [[2, 1], [-6, 0]], whose
    # positions differ, and the w-chart inverts that constant by forward
    # substitution: U1 = (U0 T)^(-1)
    d = birkhoff_split(bundle([["2", "1"], ["0", "3"]]))
    assert d.type == (0, 0) and d.U0.to_strings() == [["1", "0"], ["-3", "1"]]
    assert d.U1.to_strings() == [["0", "-1/6"], ["1", "1/3"]]
    # a lower triangular T has distinct positions: no step on either chart,
    # then pivots 2 and 5
    d = birkhoff_split(bundle([["2", "0"], ["3", "5"]]))
    assert d.U0 == LaurentMatrix.identity(2)
    assert d.U1.to_strings() == [["1/2", "0"], ["-3/10", "1/5"]]


# -- the one reduction: fraction-free simple transformations on both charts ------


def counting_step(monkeypatch, limit=None) -> list:
    """Wrap _step: each call's output is appended to the returned list, and a
    call past limit raises, so a reduction that would not stop fails at once
    instead of running on."""
    calls, real = [], p1_engine._step

    def counting(a, ka, b, kb, s):
        if limit is not None and len(calls) >= limit:
            raise RuntimeError(f"more than {limit} calls of _step")
        calls.append(real(a, ka, b, kb, s))
        return calls[-1]

    monkeypatch.setattr(p1_engine, "_step", counting)
    _birkhoff_cached.cache_clear()
    return calls


def test_a_quadratic_non_unit_reduces_in_integers(monkeypatch):
    # det T = 2 - z. One z-chart step leaves R = [[2z - 1, 0], [z^(D-2), 1]]
    # on the w-chart, and its weak Popov form, like every reduced form of R,
    # holds z^(D-2) mod (2z - 1) = 2^(2-D): D - 2 steps, each row an integer
    # row, whose largest coefficient is 2^(D-2) and no larger
    D = 1000
    calls = counting_step(monkeypatch)
    with pytest.raises(NotAUnit, match="not a monomial"):
        bundle([["2*z", f"z^{D}"], [f"z^-{D - 1}", "z^-1"]])
    coeffs = [c for row in calls for c in row.values()]
    assert all(type(c) is int for c in coeffs)
    assert max(map(abs, coeffs)) == 2 ** (D - 2)
    assert len(calls) == 2 * (D - 1)  # a row and its transform row per step


def test_a_zero_row_means_the_determinant_is_zero():
    # a zero row on input, and one that a step makes: [1, z] and [2, 2z]
    # share position 1, and 1 row_1 - 2 row_0 = 0
    for rows in ([["z", "1"], ["0", "0"]], [["1", "z"], ["2", "2*z"]],
                 [["1", "z", "0"], ["0", "1", "z^-1"], ["3", "3*z", "0"]]):
        with pytest.raises(NotAUnit, match="determinant is zero"):
            p1_engine._weak_popov(maps(rows))
        with pytest.raises(NotAUnit, match="determinant is zero"):
            bundle(rows)


def test_the_step_budget_ends_a_zero_determinant(monkeypatch):
    # det T = 0 with a w^(10^8) entry: each step lowers row 0's degree by
    # one, and only the budget r (sum(tops) - sum(lows) + r) = 2 (1 + 2) = 6
    # ends the loop, after 6 steps of 2 _step calls each
    calls = counting_step(monkeypatch, limit=100)
    with pytest.raises(NotAUnit, match="determinant is zero"):
        p1_engine._weak_popov(maps([["0", "-z^-2"], ["0", "z^-100000000 + z^-99999999"]]))
    assert len(calls) == 12


@pytest.mark.parametrize("seed", range(12))
def test_a_unit_takes_fewer_steps_than_the_budget_in_primitive_rows(monkeypatch, seed):
    # the docstring's bound: at most r (sum(tops) - sum(lows) + r - 1) steps
    # while det != 0, one short of the budget per row; and each row that
    # took a step holds, with its transform row, integers of gcd 1
    s = Sampler(700 + seed)
    r = 2 + seed % 4
    T = s.unimodular_z(r, ops=r * r) @ split_bundle([s.rng.randint(-2, 2) for _ in range(r)]).transition
    T = T.scalar_mul(Fraction(seed + 1, 2)) @ s.unimodular_w(r, ops=r * r)
    tops = sum(max(x.max_exp for x in row if not x.is_zero) for row in T._rows)
    lows = sum(min(min(x.coeffs) for x in row if not x.is_zero) for row in T._rows)
    rows = maps(T.to_strings())
    calls = counting_step(monkeypatch)
    _, t_rows = p1_engine._weak_popov(rows)
    assert len(calls) <= 2 * r * (tops - lows + r - 1)
    stepped = [i for i in range(r) if t_rows[i] != {(0, i): 1}]
    assert stepped
    for i in stepped:
        coeffs = [*rows[i].values(), *t_rows[i].values()]
        assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1


def test_dense_rank_8_frames_stay_small():
    # the z-chart's rows are divided by their content after each step, so
    # U0 holds integers of at most 14 digits on these three bundles
    # (rational rows reached 34 digits, numerator and denominator together)
    for seed in (8000, 8001, 8002):
        s = Sampler(seed)
        e = [s.rng.randint(-1, 1) for _ in range(8)]
        T = s.unimodular_z(8, ops=64) @ split_bundle(e).transition @ s.unimodular_w(8, ops=64)
        d = p1_engine._split_reduced(T)
        assert sorted(d.type, reverse=True) == sorted(e, reverse=True)
        coeffs = [c for row in d.U0._rows for x in row for c in x.coeffs.values()]
        assert all(type(c) is int for c in coeffs)
        assert max(len(str(abs(c))) for c in coeffs) <= 16, seed


def rationally_scaled(seed: int) -> LaurentMatrix:
    """A gauged bundle of rank 1 + seed % 8 whose rows are scaled by
    rationals, so that the reduction multiplies and sums Fractions, and
    some of those sums are integers."""
    s = Sampler(5600 + seed)
    r = 1 + seed % 8
    e = [s.rng.randint(-2, 2) for _ in range(r)]
    scale = LaurentMatrix.diag([LaurentPoly.const(Fraction(s.rng.choice([-2, -1, 1, 3]),
                                                           s.rng.choice([1, 2, 3, 4, 6])))
                                for _ in range(r)])
    return (scale @ s.unimodular_z(r, ops=2 * r) @ split_bundle(e).transition
            @ s.unimodular_w(r, ops=2 * r))


# sha256 of the JSON records of rationally_scaled(0..23), as splitting_to_json
# prints them: U0 is unique only up to the split bundle's automorphisms, so
# a change to the order of the reduction's steps that moves a printed frame
# shows here
RATIONALLY_SCALED_RECORDS = "bd7d0dcabfff729b0a3ff82d21f3762bed5b3894d4abd549f7b4664db9ca00a8"


def test_rational_rows_keep_canonical_coefficients(monkeypatch):
    # every coefficient the reduction holds is an int or a Fraction that is
    # no integer: equality alone would not show a Fraction(2, 1), which
    # compares and hashes as 2, so each value's type is tested
    def canonical(row):
        return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                   for c in row.values())

    steps = counting_step(monkeypatch)
    popov, w_inverse = p1_engine._weak_popov, p1_engine._w_inverse

    def checked_popov(rows):
        leads, t_rows = popov(rows)
        assert all(map(canonical, rows + t_rows))
        return leads, t_rows

    def checked_w_inverse(rows):
        inverse = w_inverse(rows)
        assert all(map(canonical, inverse))
        return inverse

    monkeypatch.setattr(p1_engine, "_weak_popov", checked_popov)
    monkeypatch.setattr(p1_engine, "_w_inverse", checked_w_inverse)
    records = []
    for seed in range(24):
        T = rationally_scaled(seed)
        d = p1_engine._split_reduced(T)
        r = T.rows
        for U in (d.U0, d.U1):
            assert all(canonical(x._coeffs) for row in U._rows for x in row), seed
        U0T = LaurentMatrix([[LaurentPoly(x) for x in row]
                             for row in fraction_laurent_product(d.U0, T, [0] * r)])
        assert fraction_laurent_product(U0T, d.U1, [0] * r) == [
            [{a: 1} if i == j else {} for j in range(r)] for i, a in enumerate(d.type)
        ], seed
        records.append(splitting_to_json(d))
    assert steps and all(map(canonical, steps))
    assert any(type(c) is Fraction for row in steps for c in row.values())
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == RATIONALLY_SCALED_RECORDS


# -- a monomial diagonal against its closed form ---------------------------------


def monomial_diagonal(coeffs, exps) -> LaurentMatrix:
    return LaurentMatrix.diag([LaurentPoly.monomial(c, a) for c, a in zip(coeffs, exps)])


def typed(rows) -> list:
    """Rows of coefficient maps whose values carry their type, so that an
    int and an equal Fraction differ."""
    return [[{e: (type(c), c) for e, c in x.items()} for x in row] for row in rows]


def assert_the_reduction_gives_the_closed_form(coeffs, exps):
    d = p1_engine._split_reduced(monomial_diagonal(coeffs, exps))
    want = monomial_diagonal_splitting(coeffs, exps)
    assert d.type == want["type"], (coeffs, exps)
    for name in ("U0", "U1", "u0_inverse", "u1_inverse"):
        got = [[x.coeffs for x in row] for row in getattr(d, name)._rows]
        assert typed(got) == typed(want[name]), (coeffs, exps, name)


def test_a_monomial_diagonal_is_split_as_the_reduction_splits_it():
    # every rank <= 3 diagonal with exponents in [-4, 4] and coefficients all
    # 1, all -1, or (2, -3, 1) is split to its closed form, read off by the
    # oracle with no LaurentMatrix arithmetic
    for r in range(1, 4):
        for exps in itertools.product(range(-4, 5), repeat=r):
            for coeffs in ((1,) * r, (-1,) * r, (2, -3, 1)[:r]):
                assert_the_reduction_gives_the_closed_form(coeffs, exps)


def test_a_tied_rational_diagonal_is_split_as_the_reduction_splits_it():
    # ties keep row order; U1 holds each 1/c_i in canonical form
    half, third = Fraction(1, 2), Fraction(1, 3)
    coeff_rows = ((half, -2 * third, 3, Fraction(-7, 5)), (-1, third, -third, 5), (-half,) * 4)
    for r in range(1, 5):
        for exps in itertools.product((-1, 0, 1), repeat=r):
            for coeffs in coeff_rows:
                assert_the_reduction_gives_the_closed_form(coeffs[:r], exps)
    d = birkhoff_split(P1Bundle(monomial_diagonal((2, -1, third), (1, 1, 1))))
    assert d.U0 == LaurentMatrix.identity(3)
    assert d.U1.to_strings() == [["1/2", "0", "0"], ["0", "-1", "0"], ["0", "0", "3"]]
    d = birkhoff_split(P1Bundle(monomial_diagonal((-1, 3, half, -2), (-1, 2, -1, 2))))
    assert d.type == (2, 2, -1, -1)
    assert d.U0.to_strings() == [
        ["0", "1", "0", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "0", "1", "0"]
    ]


def count_reductions(monkeypatch) -> list:
    """Each run of the reduction, _weak_popov, on either chart, as (name,
    rank), in order."""
    runs = []

    def counting(rows, real=p1_engine._weak_popov):
        runs.append(("_weak_popov", len(rows)))
        return real(rows)

    monkeypatch.setattr(p1_engine, "_weak_popov", counting)
    _birkhoff_cached.cache_clear()
    return runs


def test_split_bundles_take_no_reduction_step(monkeypatch):
    # the rows of a monomial diagonal lead in distinct columns, so the
    # reduction runs once on each chart and takes no step on either
    runs = count_reductions(monkeypatch)
    steps = counting_step(monkeypatch)
    monkeypatch.setattr(p1_engine, "_tangent", None)  # so that tangent_bundle() builds it
    E, V = split_bundle([2, 0, -1, 2]), line_bundle(-3, Fraction(2, 3))
    built = [E, V, tangent_bundle(), twist(E, -2), dual_bundle(E), dual_bundle(V),
             tensor_bundle(E, V), tensor_bundle(V, E), hom_bundle(V, E), trivial_bundle(3)]
    assert steps == []
    assert len(runs) == 2 * len({b.transition for b in built})
    assert [b.degree for b in built] == [3, -3, 2, -5, -3, 3, -9, -9, 15, 0]
    # a gauged T, or a monomial diagonal with an entry off it, takes steps
    s = Sampler(50)
    gauge_transform(E, s.unimodular_z(4), s.unimodular_w(4))
    assert steps
    del steps[:]
    bundle([["z", "2"], ["0", "z^-1"]])
    assert steps


@pytest.mark.parametrize("seed", (0, 7, 53))
def test_algconn_fuzz_reaches_the_reduction(monkeypatch, seed):
    # every split bundle that run_fuzz builds misses the cleared memo into the
    # reduction, which runs on both charts and takes no step
    runs = count_reductions(monkeypatch)
    steps = counting_step(monkeypatch)
    assert run_fuzz(25, seed).report["mismatches"] == 0
    misses = _birkhoff_cached.cache_info().misses
    assert misses and len(runs) == 2 * misses and runs[0::2] == runs[1::2]
    assert steps == []


def test_a_zero_or_many_term_diagonal_entry_keeps_its_message():
    for rows, message in (
        ([["z", "0"], ["0", "0"]], "determinant is zero"),
        ([["0", "0"], ["0", "-z"]], "determinant is zero"),
        ([["1 + z", "0"], ["0", "1"]], "not a monomial"),
        ([["1", "0"], ["0", "z^-1 + z"]], "not a monomial"),
    ):
        with pytest.raises(NotAUnit, match=message):
            bundle(rows)


# -- cohomology ------------------------------------------------------------------


def test_cohomology_line_bundles():
    assert cohomology_dims(line_bundle(0)) == (1, 0)
    assert cohomology_dims(line_bundle(-2)) == (0, 1)
    assert cohomology_dims(split_bundle([3, -5])) == (4, 4)


def test_cohomology_against_direct_linear_algebra():
    # rank <= 3, entry exponents within +-4 after gauging
    s = Sampler(19)
    checked = 0
    for _ in range(60):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=3, ops=2, max_deg=1)
        T = E.transition
        top = max(x.max_exp for i in range(T.rows) for x in T.row_list(i) if not x.is_zero)
        if top > 4 or min_exponent(T) < -4:
            continue
        assert cohomology_dims(E)[0] == h0_by_linear_solve(T)
        checked += 1
    assert checked >= 30


def test_riemann_roch_and_serre():
    for exps in [[0], [-2], [5], [3, -5], [2, -1], [1, 1, -3]]:
        E = split_bundle(exps)
        assert riemann_roch_check(E)
        assert serre_dual_check(E)
    s = Sampler(20)
    for _ in range(30):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=4, ops=2, max_deg=1)
        assert riemann_roch_check(E)
        assert serre_dual_check(E)


def test_serre_duality_against_direct_linear_algebra():
    # h^1(E) = h^0(E* (x) K), the right side solved by the oracle on T^(-T),
    # which splits nothing; T^(-1) itself is checked by T T^(-1) = I
    s = Sampler(65)
    for _ in range(12):
        E, _ = s.gauged_p1_bundle(min_rank=2, max_rank=5, bound=2, ops=2, max_deg=1)
        t_inv = birkhoff_split(E).transition_inverse
        assert E.transition @ t_inv == LaurentMatrix.identity(E.rank)
        assert serre_dual_check(E)
        assert cohomology_dims(E)[1] == h0_by_linear_solve(t_inv.transpose(), -2)


def test_cohomology_adds_one_memo_entry_per_bundle():
    # cohomology builds no dual or twist: the memo holds the input bundles only
    s = Sampler(66)
    docs = {}
    while len(docs) < 10:
        E, _ = s.gauged_p1_bundle(min_rank=2, max_rank=5, bound=2, ops=2, max_deg=1)
        docs.setdefault(json.dumps(p1bundle_to_json(E)), E.rank)
    _birkhoff_cached.cache_clear()
    for count, text in enumerate(docs, 1):
        E = p1bundle_from_json(json.loads(text))
        cohomology_dims(E)
        assert riemann_roch_check(E) and serre_dual_check(E)
        assert _birkhoff_cached.cache_info().currsize == count


# -- derived bundles -------------------------------------------------------------


def test_dual_and_twist_types_match_oracle_and_reduction():
    # the dual's type is E's negated and reversed, a twist's is shifted by n;
    # h^0 against the linear-solve oracle on T^(-T), the type against a fresh
    # reduction of T^(-T)
    s = Sampler(63)
    for _ in range(12):
        E, exps = s.gauged_p1_bundle(min_rank=2, max_rank=5, bound=2, ops=2, max_deg=1)
        r = E.rank
        D = dual_bundle(E)
        t_dual = D.transition
        assert E.transition @ t_dual.transpose() == LaurentMatrix.identity(r)
        derived = birkhoff_split(D).type
        assert derived == tuple(-a for a in reversed(exps))
        for n in (-2, 0, 1, 3):
            X = twist(D, n)
            assert birkhoff_split(X).type == tuple(a + n for a in derived)
            assert cohomology_dims(X)[0] == h0_by_linear_solve(t_dual, n)
        _birkhoff_cached.cache_clear()
        assert birkhoff_split(P1Bundle(t_dual)).type == derived


def test_splitting_does_not_depend_on_what_was_split_before():
    # the memo is a pure function of the transition: a dual or twist split
    # first leaves the same U0 and U1 that a fresh reduction of its
    # transition gives
    s = Sampler(67)
    for _ in range(8):
        E, _ = s.gauged_p1_bundle(min_rank=1, max_rank=4, bound=2, ops=2, max_deg=1)
        for derive in (
            lambda: dual_bundle(E),
            lambda: twist(E, 2),
            lambda: twist(dual_bundle(E), -1),
        ):
            X = derive()
            _birkhoff_cached.cache_clear()
            fresh = splitting_to_json(birkhoff_split(P1Bundle(X.transition)))
            _birkhoff_cached.cache_clear()
            X = derive()
            birkhoff_split(X)
            after = splitting_to_json(birkhoff_split(P1Bundle(X.transition)))
            assert after == fresh


# -- sections --------------------------------------------------------------------


def test_sections_of_o1():
    secs = global_sections(line_bundle(1))
    assert [str(s.chart0_rep.entry(0, 0)) for s in secs] == ["1", "z"]


def test_sections_empty_for_negative():
    assert global_sections(line_bundle(-1)) == []


def test_sections_trivial_rank2():
    secs = global_sections(trivial_bundle(2))
    assert len(secs) == 2
    cols = {tuple(str(s.chart0_rep.entry(i, 0)) for i in range(2)) for s in secs}
    assert cols == {("1", "0"), ("0", "1")}


def test_sections_validity_and_count_random():
    s = Sampler(21)
    for _ in range(25):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=3, ops=2, max_deg=1)
        secs = global_sections(E)
        assert len(secs) == cohomology_dims(E)[0]
        for sec in secs:
            assert is_global_hom(trivial_bundle(1), E, sec.chart0_rep)


def test_hom_sections_count_and_validity():
    s = Sampler(22)
    for _ in range(15):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
        F, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
        basis = hom_sections(E, F)
        assert len(basis) == cohomology_dims(hom_bundle(E, F))[0]
        for phi in basis:
            assert is_global_hom(E, F, phi)


def test_vec_convention_ties_hom_to_sections():
    # phi is a global hom iff its row-major vectorization is a global
    # section of hom_bundle: pins the kronecker ordering once and for all
    s = Sampler(23)
    E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
    F, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
    H = hom_bundle(E, F)
    for phi in hom_sections(E, F):
        v = column([phi.entry(i, j) for i in range(F.rank) for j in range(E.rank)])
        assert is_global_hom(trivial_bundle(1), H, v)
        rows = [[v.entry(i * E.rank + j, 0) for j in range(E.rank)] for i in range(F.rank)]
        assert LaurentMatrix(rows) == phi


def _hom_answers_match_the_definition(E, F, rng) -> list[bool]:
    """is_global_hom on each basis hom of Hom(E, F), and on it plus one
    monomial z^(m + 1) at a drawn entry (j, i), with m the largest exponent
    whose chart-1 form there stays polynomial in 1/z. Each answer must be
    the definition's: phi0 polynomial in z and T_F^(-1) phi0 T_E polynomial
    in 1/z, with T_F^(-1) formed by SplittingData.transition_inverse. The
    chart-1 form of z^m E_(j,i) is z^m T_F^(-1)[:, j] T_E[i, :], whose top
    exponent is m plus the tops of that column and that row."""
    t_inv, T = birkhoff_split(F).transition_inverse, E.transition
    answers = []
    for phi0 in hom_sections(E, F):
        j, i = rng.randrange(F.rank), rng.randrange(E.rank)
        column = [t_inv.entry(k, j) for k in range(F.rank)]
        top = max(x.max_exp for x in column if not x.is_zero)
        top += max(x.max_exp for x in T.row_list(i) if not x.is_zero)
        bump = [[LaurentPoly.monomial(int((r, c) == (j, i)), 1 - top) for c in range(E.rank)]
                for r in range(F.rank)]
        for candidate in (phi0, phi0 + LaurentMatrix(bump)):
            chart1 = t_inv @ candidate @ T
            expected = candidate.is_poly_in_z and chart1.is_poly_in_w
            assert is_global_hom(E, F, candidate) == expected
            answers.append(expected)
    return answers


def test_the_split_frame_hom_test_matches_its_definition():
    # is_global_hom reads row j of U0_F phi0 T_E against b_j; the definition
    # reads T_F^(-1) phi0 T_E. Gauged E and F, then a gauged rank-2 V into TX
    s = Sampler(531)
    answers = []
    for _ in range(8):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=2, ops=2, max_deg=1)
        F, _ = s.gauged_p1_bundle(max_rank=3, bound=2, ops=2, max_deg=1)
        answers += _hom_answers_match_the_definition(E, F, s.rng)
    assert set(answers) == {True, False}
    V = gauge_transform(split_bundle([1, -1]), s.unimodular_z(2), s.unimodular_w(2))
    into_tx = _hom_answers_match_the_definition(V, tangent_bundle(), s.rng)
    assert set(into_tx) == {True, False}


# -- endomorphisms -----------------------------------------------------------------


def test_kernel_filtration_rejects_non_sections():
    # on O(1) + O(-1) the (1, 0) slot maps O(1) to O(-1), which has no nonzero
    # map; is_global_hom rejects it, and a matrix of the wrong size
    E = split_bundle([1, -1])
    assert not is_global_hom(E, E, LaurentMatrix.parse([["0", "0"], ["1", "0"]]))
    assert not is_global_hom(E, E, LaurentMatrix.parse([["z^-1"]]))
    assert is_global_hom(E, E, LaurentMatrix.parse([["0", "z^2"], ["0", "0"]]))


def test_trace_pair_filtration_vanishing():
    # block upper-triangular v, strictly upper w on O(2)+O(0): trace(vw) = 0
    E = split_bundle([2, 0])
    v = LaurentMatrix.parse([["3", "z^2 + 1"], ["0", "-2"]])
    w = LaurentMatrix.parse([["0", "z"], ["0", "0"]])
    assert is_global_hom(E, E, v) and is_global_hom(E, E, w)
    assert trace(v @ w) == 0
    assert trace(v @ v) == 3 * 3 + (-2) * (-2)


def gauged(s: Sampler, exps) -> P1Bundle:
    r = len(exps)
    return gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))


def test_derived_degrees_match_det():
    # each degree, the sum of the splitting type, against the exponent of
    # det T of the derived transition and the formula for its construction
    s = Sampler(62)
    bundles = [gauged(s, e) for e in ([3], [2, -1], [1, 1, -3])] + [gauged(s, [1, -3])]
    for E in bundles:
        r, d = E.rank, E.degree
        assert d != 0
        for X, formula in (
            (dual_bundle(E), -d),
            (twist(E, 2), d + 2 * r),
            (twist(E, -3), d - 3 * r),
            (hom_bundle(E, E), 0),
            (jet1_transition(E), 2 * d - 2 * r),
        ):
            assert X.degree == formula == monomial_det(X.transition)[1]
        for F in bundles[:2]:
            for X, formula in (
                (tensor_bundle(E, F), F.rank * d + r * F.degree),
                (hom_bundle(E, F), r * F.degree - F.rank * d),
                (hom_bundle(F, E), F.rank * d - r * F.degree),
            ):
                assert X.degree == formula == monomial_det(X.transition)[1]


def test_derived_bundles_are_split_when_built():
    # each constructor validates what it builds by splitting it, so a
    # following birkhoff_split is a memo hit; the degree is the sum of that
    # type, the formula for the construction and the exponent of det T
    s = Sampler(64)
    E, F, V = gauged(s, [2, -1]), gauged(s, [1, 0, -2]), gauged(s, [1, -2])
    anchor = ConcreteAnchor(V, hom_sections(V, tangent_bundle())[0])
    r, d = E.rank, E.degree
    H = hom_bundle(V, E)
    for X, formula in (
        (dual_bundle(E), -d),
        (twist(E, 3), d + 3 * r),
        (tensor_bundle(E, F), F.rank * d + r * F.degree),
        (H, V.rank * d - r * V.degree),
        (jet1_transition(E), 2 * d - 2 * r),
        (jetV_transition(E, anchor), H.degree + d),
    ):
        misses = _birkhoff_cached.cache_info().misses
        data = birkhoff_split(X)
        assert _birkhoff_cached.cache_info().misses == misses, X
        assert X.degree == sum(data.type) == formula == monomial_det(X.transition)[1]


def test_dual_tensor_end_degrees():
    E = split_bundle([2, -1])
    assert dual_bundle(E).degree == -1
    F = split_bundle([1, 1])
    assert tensor_bundle(E, F).degree == E.degree * F.rank + E.rank * F.degree
    assert hom_bundle(E, E).degree == 0
    assert twist(E, 3).degree == E.degree + 3 * E.rank
