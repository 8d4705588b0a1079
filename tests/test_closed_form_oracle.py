"""Cross-validation of the Cech engine against the genus-0 closed form.

On the projective line the obstruction class is the image of the Atiyah
class of E under phi^*: K -> V^*. For E = (+) O(e_i) the Atiyah class is
diagonal with entries e_i, and by Serre duality it pairs with
H^0(End E (x) V (x) K) only through phi^* on H^0(V(-2)). For split
V = (+) O(v_a) that map is nonzero exactly when some summand with v_a = 2
carries phi_a != 0. So a connection exists iff E is trivial (every e_i = 0)
or no v_a = 2 has phi_a != 0.

The oracle below reads only the hidden integers e_i, v_a and the zero test
of the split anchor row; it never calls the engine. The engine sees E in a
gauged frame, and V either split or gauged as A diag(z^(v_a)) B with the
anchor row carried along as phi_split A^(-1).

The first jet bundle has a closed form too. J1(O(a)) is the extension of
O(a) by K(a) = O(a - 2) whose class is the Atiyah class a: for a != 0 it
is the nonsplit O(a - 1)^2, and for a = 0 the sum O + O(-2). J1 takes
direct sums to direct sums, so the type of J1(E) is read off the integers
e_i alone.

So does the anchored jet bundle J_V(E), the extension of E by E (x) V*
whose class is the Atiyah class pushed along phi^*: on the summand O(e_i)
it is e_i psi_b(0) in H^1(O(e_i - v_b - e_i)) = H^1(O(-v_b)) for each
summand O(v_b) of V (Atiyah 1957). Only v_b = 2 has H^1(O(-v_b)) of rank
one and a constant psi_b, so the class on O(e_i) is nonzero exactly when
e_i != 0 and some v_b = 2 has psi_b(0) != 0. A change of frame among those
summands O(e_i - 2) leaves one of them carrying the class, which glues it
to O(e_i) as O(e_i - 1)^2, as for J1; every other summand splits off.

A third route needs no hidden type at all. A connection exists iff the
anchored jet sequence 0 -> H -> J_V(E) -> E -> 0, H = Hom(V, E), splits
(Atiyah 1957). If J_V(E) is isomorphic to H (+) E, then Hom(E, J_V(E)) ->
Hom(E, E) is onto by a dimension count, since Hom spaces on a curve are
finite-dimensional, so the identity lifts and the sequence splits (Miyata,
Note on direct summands of modules, 1967); the converse is clear. On the
projective line two bundles are isomorphic iff their splitting types agree
(Grothendieck 1957), and H's type is every a_i - v_a. So a connection
exists iff the type of J_V(E) is E's type together with every a_i - v_a,
sorted: the criterion reads only the engine's certified types. It is
checked on drawn jet cases and on the gauged bundles of
scripts/cli_stdout_digest.py with each of that script's three anchors.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from algconn.exact_core import LaurentMatrix, LaurentPoly
from algconn.jet_obstruction import (
    ConcreteAnchor,
    construct_connection,
    jet1_transition,
    anchor_from_json,
    jetV_transition,
)
from algconn.p1_engine import birkhoff_split, gauge_transform, p1bundle_from_json, split_bundle
from algconn.sampling import Sampler


def closed_form_exists(e_type: list[int], v_type: list[int], phi_split: list) -> bool:
    return all(e == 0 for e in e_type) or not any(
        v == 2 and not p.is_zero for v, p in zip(v_type, phi_split)
    )


def _unimodular_with_inverse(s: Sampler, q: int) -> tuple[LaurentMatrix, LaurentMatrix]:
    """A product of elementary matrices over the z-chart ring, and the
    product of their inverses in reverse order."""
    A = A_inv = LaurentMatrix.identity(q)
    for _ in range(2):
        i, j = s.rng.sample(range(q), 2)
        p = s.laurent(0, 1, max_terms=2, nonzero=True)
        elem = [LaurentMatrix.identity(q).row_list(k) for k in range(q)]
        elem_inv = [LaurentMatrix.identity(q).row_list(k) for k in range(q)]
        elem[i][j], elem_inv[i][j] = p, -p
        A, A_inv = LaurentMatrix(elem) @ A, A_inv @ LaurentMatrix(elem_inv)
    assert A @ A_inv == LaurentMatrix.identity(q)
    return A, A_inv


def _cases(count: int, seed: int):
    s = Sampler(seed)
    for index in range(count):
        r = 1 + index % 3
        e_type = [0] * r if index % 5 == 0 else [s.rng.randint(-2, 2) for _ in range(r)]
        E = gauge_transform(split_bundle(e_type), s.unimodular_z(r, ops=2), s.unimodular_w(r, ops=2))
        q = s.rng.choice((1, 2, 2))
        v_type = [s.rng.choice((-2, -1, 0, 1, 2, 2)) for _ in range(q)]
        phi_split = [
            s.laurent(0, 2 - v, max_terms=2, nonzero=True) if s.rng.random() < 0.8
            else LaurentPoly.zero()
            for v in v_type
        ]
        row = LaurentMatrix([phi_split])
        gauged = q == 2 and index % 2 == 0
        if gauged:
            A, A_inv = _unimodular_with_inverse(s, q)
            V = gauge_transform(split_bundle(v_type), A, s.unimodular_w(q, ops=2))
            anchor = ConcreteAnchor(V, row @ A_inv)
        else:
            anchor = ConcreteAnchor(split_bundle(v_type), row)
        yield e_type, v_type, phi_split, gauged, E, anchor


def test_engine_matches_genus0_closed_form():
    mismatches = []
    answers = []
    for e_type, v_type, phi_split, gauged, E, anchor in _cases(120, 71):
        expected = closed_form_exists(e_type, v_type, phi_split)
        got = construct_connection(E, anchor) is not None
        atiyah = any(v == 2 and not p.is_zero for v, p in zip(v_type, phi_split))
        answers.append((E.rank, anchor.V.rank, gauged, expected, not any(e_type), atiyah))
        if got != expected:
            mismatches.append(
                {"E_type": e_type, "V_type": v_type, "phi": [str(p) for p in phi_split],
                 "gauged_V": gauged, "engine": got, "closed_form": expected}
            )
    assert mismatches == []
    # the draw exercises what the closed form distinguishes
    assert {a[3] for a in answers} == {True, False}
    assert any(r == 3 and q == 2 and g and not x for r, q, g, x, _, _ in answers)
    assert sum(not a[3] for a in answers) >= 20
    # a trivial E against a gauged rank-2 V whose degree-2 summand carries
    # the anchor: the integers answer "yes" because every a_i is 0, and the
    # solve runs on y = psi (x) M with q = 2
    assert any(q == 2 and g and trivial and atiyah for _, q, g, _, trivial, atiyah in answers)


def closed_form_jet1_type(e_type: list[int]) -> list[int]:
    pairs = [(e - 1, e - 1) if e else (0, -2) for e in e_type]
    return sorted((b for pair in pairs for b in pair), reverse=True)


def test_jet1_type_matches_closed_form():
    # gauged E of rank 1 to 3 with the type hidden: the engine splits J1(E)
    # from its transition, the oracle reads the hidden type
    checked, ranks, zero_summand = 0, set(), set()
    for seed in range(500, 506):
        s = Sampler(seed)
        for _ in range(15):
            E, e_type = s.gauged_p1_bundle(max_rank=3)
            assert list(birkhoff_split(jet1_transition(E)).type) == closed_form_jet1_type(e_type)
            checked += 1
            ranks.add(E.rank)
            zero_summand.add(0 in e_type)
    # the draw reaches every rank and both rules
    assert checked == 90 and ranks == {1, 2, 3} and zero_summand == {True, False}


def _class_summands(v_type: list[int], phi_split: list) -> int:
    """K: how many summands O(v_b) of V have v_b = 2 and psi_b(0) != 0."""
    return sum(v == 2 and p.coeff(0) != 0 for v, p in zip(v_type, phi_split))


def closed_form_jetV_type(e_type: list[int], v_type: list[int], phi_split: list) -> list[int]:
    k = _class_summands(v_type, phi_split)
    out: list[int] = []
    for e in e_type:
        part = [e - v for v in v_type] + [e]
        if e and k:
            part.remove(e)
            part.remove(e - 2)
            part += [e - 1, e - 1]
        out += part
    return sorted(out, reverse=True)


def test_jetV_type_matches_closed_form():
    # the engine splits J_V(E) from its transition, with E gauged and V
    # split or gauged; the oracle reads the hidden types and phi_split(0)
    checked, seen = 0, set()
    for seed in (71, 72, 73):
        for e_type, v_type, phi_split, gauged, E, anchor in _cases(120, seed):
            expected = closed_form_jetV_type(e_type, v_type, phi_split)
            assert list(birkhoff_split(jetV_transition(E, anchor)).type) == expected, (
                e_type, v_type, [str(p) for p in phi_split], gauged,
            )
            checked += 1
            seen.add((_class_summands(v_type, phi_split), gauged, not any(e_type)))
    # the draw reaches K = 0, 1 and 2, a gauged V whose degree-2 summand
    # carries the class, and a trivial E, where the class is zero however
    # large K is
    assert checked == 360
    assert {k for k, _, _ in seen} == {0, 1, 2}
    assert any(k and g for k, g, _ in seen) and any(k and t for k, _, t in seen)


@st.composite
def jet_inputs(draw):
    """The plain parameters of one case: a seed for the gauges and the
    anchor's coefficients, E's type (rank 1 to 4), V's (rank 1 to 3),
    which anchor entries are nonzero, and whether V is gauged."""
    r, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return (
        draw(st.integers(0, 2**16)),
        draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)),
        draw(st.lists(st.sampled_from((-2, -1, 0, 1, 2, 2)), min_size=q, max_size=q)),
        draw(st.lists(st.booleans(), min_size=q, max_size=q)),
        draw(st.booleans()),
    )


def jet_case(seed: int, e_type: list[int], v_type: list[int], nonzero: list[bool], gauged: bool):
    """E gauged, and V split or gauged as A diag(z^(v_a)) B with the anchor
    row carried along as phi_split A^(-1); a gauged line bundle is scaled."""
    s = Sampler(seed)
    r, q = len(e_type), len(v_type)
    E = gauge_transform(split_bundle(e_type), s.unimodular_z(r, ops=2), s.unimodular_w(r, ops=2))
    row = LaurentMatrix([[s.laurent(0, 2 - v, max_terms=2, nonzero=True) if nz else LaurentPoly.zero()
                          for v, nz in zip(v_type, nonzero)]])
    if not gauged:
        return E, ConcreteAnchor(split_bundle(v_type), row)
    if q == 1:
        c = s.coefficient(3, nonzero=True)
        A, A_inv = LaurentMatrix([[LaurentPoly.const(c)]]), LaurentMatrix([[LaurentPoly.const(Fraction(1, c))]])
    else:
        A, A_inv = _unimodular_with_inverse(s, q)
    V = gauge_transform(split_bundle(v_type), A, s.unimodular_w(q, ops=2))
    return E, ConcreteAnchor(V, row @ A_inv)


@settings(max_examples=150, deadline=None)
@given(jet_inputs())
# a "no" at rank 4 against a gauged V of rank 3, and a trivial E, a "yes"
@example((3, [1, -1, 0, 2], [2, 1, 0], [True, True, False], True))
@example((4, [0, 0, 0], [2, 2], [True, True], True))
def test_a_connection_exists_exactly_when_the_jet_sequence_splits(params):
    # the engine's answer against the jet criterion, which reads the
    # certified types of E, V and J_V(E); J is split by the reduction on
    # both charts, whatever the answer
    E, anchor = jet_case(*params)
    a, v = birkhoff_split(E).type, birkhoff_split(anchor.V).type
    j_type = birkhoff_split(jetV_transition(E, anchor)).type
    splits = list(j_type) == sorted([*a, *(ai - va for ai in a for va in v)], reverse=True)
    assert (construct_connection(E, anchor) is not None) == splits


def load_digest_script():
    """scripts/cli_stdout_digest.py as a module, loaded without writing
    bytecode, for its input generator."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "cli_stdout_digest.py"
    spec = importlib.util.spec_from_file_location("cli_stdout_digest", path)
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def test_the_jet_criterion_holds_on_the_digest_inputs():
    # the digest's first 60 gauged bundles (rank 2-6, half with a rational
    # row scale) against all three of its anchors: every (rank, scale,
    # anchor) twice, both answers among them
    digest = load_digest_script()
    rng = random.Random(0)
    answers = set()
    for index in range(60):
        E = p1bundle_from_json(digest.gauged_bundle(rng, index))
        a = birkhoff_split(E).type
        for doc in digest.ANCHORS:
            anchor = anchor_from_json(doc)
            v = birkhoff_split(anchor.V).type
            j_type = birkhoff_split(jetV_transition(E, anchor)).type
            splits = list(j_type) == sorted([*a, *(ai - va for ai in a for va in v)], reverse=True)
            exists = construct_connection(E, anchor) is not None
            assert exists == splits, (index, doc)
            answers.add(exists)
    assert answers == {True, False}
