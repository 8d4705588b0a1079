"""Jet bundles, the obstruction cocycle, coboundaries, certificates."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from oracles import monomial_det, split_diagonal

from algconn.algebroid_decision import AlgebroidDesc, AnchorDesc, AnchorKind, decide_connection
from algconn.errors import InvalidAnchor, ShapeMismatch
from algconn.exact_core import LaurentMatrix, LaurentPoly, laurent_parse
from algconn.formal_bundles import Atom, CurveContext, FormalBundle
from algconn.jet_obstruction import (
    ConcreteAnchor,
    ConnectionCert,
    ObstructionCocycle,
    anchor_from_json,
    anchor_to_json,
    connection_exists_p1,
    construct_connection,
    jet1_transition,
    jetV_transition,
    obstruction_cocycle,
    split_coboundary,
    tangent_anchor,
    verify_connection,
    verify_witness,
    zero_anchor,
)
from algconn.p1_engine import (
    P1Bundle,
    SplittingData,
    birkhoff_split,
    dual_bundle,
    gauge_transform,
    hom_bundle,
    hom_sections,
    is_global_hom,
    line_bundle,
    split_bundle,
    tangent_bundle,
    tensor_bundle,
    trace_pair,
    trivial_bundle,
    unit_inverse,
)
from algconn.sampling import Sampler


def anchor_line(v: int, poly: str) -> ConcreteAnchor:
    return ConcreteAnchor(line_bundle(v), LaurentMatrix.parse([[poly]]))


# -- anchors -----------------------------------------------------------------


def _gauged_v2() -> P1Bundle:
    # the gauged rank-2 V = O(1) + O(-2) of test_jet_degrees_match_det: the
    # first draw of Sampler(63)
    s = Sampler(63)
    return gauge_transform(split_bundle([1, -2]), s.unimodular_z(2), s.unimodular_w(2))


def test_anchor_validation():
    anchor_line(-3, "z^5 + 1")  # degree <= 5 allowed
    anchor_line(1, "z")  # degree <= 1
    with pytest.raises(InvalidAnchor):
        anchor_line(1, "z^2")  # too high a degree to land in O(2)
    with pytest.raises(InvalidAnchor):
        anchor_line(-1, "z^-1")  # not holomorphic on the z-chart
    with pytest.raises(InvalidAnchor):
        ConcreteAnchor(line_bundle(0), LaurentMatrix.parse([["1", "0"]]))  # shape
    # every global hom V2 -> TX is an anchor; a z^-1 term, or a term whose
    # chart-1 image -z^(k-2) T_V[a, :] has a positive exponent, is not
    V2 = _gauged_v2()
    basis = hom_sections(V2, tangent_bundle())
    assert len(basis) == 7  # h^0(O(1) + O(4))
    for phi in basis:
        assert ConcreteAnchor(V2, phi).phi_row == phi
        for a in range(2):
            top = max(x.max_exp for x in V2.transition.row_list(a) if not x.is_zero)
            for k in (-1, max(0, 3 - top)):
                bump = [LaurentPoly.monomial(int(b == a), k) for b in range(2)]
                with pytest.raises(InvalidAnchor):
                    ConcreteAnchor(V2, phi + LaurentMatrix([bump]))


def test_tangent_anchor_is_identity_in_both_charts():
    a = tangent_anchor()
    assert a.phi_row == LaurentMatrix.parse([["1"]])
    chart1 = birkhoff_split(tangent_bundle()).transition_inverse @ a.phi_row @ a.V.transition
    assert chart1 == LaurentMatrix.parse([["1"]])


def test_rank2_anchor_supported():
    V = split_bundle([-1, -2])
    a = ConcreteAnchor(V, LaurentMatrix.parse([["z^3", "1"]]))
    assert not a.is_zero
    assert is_global_hom(V, tangent_bundle(), a.phi_row)


# -- jet bundles ----------------------------------------------------------------


def test_jet1_types():
    for a in range(-3, 4):
        t = birkhoff_split(jet1_transition(line_bundle(a))).type
        assert t == ((0, -2) if a == 0 else (a - 1, a - 1)), a


def test_jet1_rank_additivity():
    s = Sampler(40)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=2, ops=1, max_deg=1)
        assert jet1_transition(E).rank == 2 * E.rank


def test_jetV_tangent_anchor_is_jet1():
    s = Sampler(41)
    for _ in range(8):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
        assert jetV_transition(E, tangent_anchor()).transition == jet1_transition(E).transition


def test_jetV_zero_anchor_splits_as_sum():
    s = Sampler(42)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
        V = split_bundle(s.exponents(max_rank=2, bound=2))
        J = jetV_transition(E, zero_anchor(V))
        summands = sorted(
            list(birkhoff_split(tensor_bundle(E, dual_bundle(V))).type)
            + list(birkhoff_split(E).type),
            reverse=True,
        )
        assert list(birkhoff_split(J).type) == summands


def test_jetV_degree_additive():
    E = line_bundle(1)
    V = line_bundle(-1)
    J = jetV_transition(E, anchor_line(-1, "z^3 + z"))
    EVdual = tensor_bundle(E, dual_bundle(V))
    assert J.rank == 2
    assert J.degree == EVdual.degree + E.degree == 3
    s = Sampler(50)
    for _ in range(8):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
        v = s.rng.randint(-3, 1)
        phi = s.laurent(0, 2 - v, max_terms=2, nonzero=True)
        a = ConcreteAnchor(line_bundle(v), LaurentMatrix([[phi]]))
        J = jetV_transition(E, a)
        assert J.rank == 2 * E.rank
        assert J.degree == tensor_bundle(E, dual_bundle(a.V)).degree + E.degree


def test_jet_degrees_match_det():
    # the degrees 2 deg E - 2r and deg Hom(V, E) + deg E against the exponent
    # of det T of the jet transitions, V = O(2), O(-1), gauged rank 2; the
    # upper-left block of J_V(E) is the transition of Hom(V, E)
    s = Sampler(63)

    def gauged(exps):
        r = len(exps)
        return gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))

    V2 = gauged([1, -2])
    assert V2 == _gauged_v2()
    anchors = [
        tangent_anchor(),
        anchor_line(-1, "z^3 + z"),
        ConcreteAnchor(V2, hom_sections(V2, tangent_bundle())[0]),
    ]
    assert [a.V.degree for a in anchors] == [2, -1, -1]
    for exps in ([3], [2, -1], [1, 1, -3]):
        E = gauged(exps)
        J = jet1_transition(E)
        assert J.degree == monomial_det(J.transition)[1] == 2 * E.degree - 2 * E.rank
        for a in anchors:
            J = jetV_transition(E, a)
            assert J.degree == monomial_det(J.transition)[1]
            H = hom_bundle(a.V, E)
            assert J.transition.submatrix(range(H.rank), range(H.rank)) == H.transition


# -- obstruction cocycle -----------------------------------------------------------


def test_cocycle_line_bundles_tangent():
    for a in [-2, 0, 1, 3]:
        c = obstruction_cocycle(line_bundle(a), tangent_anchor())
        assert c.overlap_matrix == LaurentMatrix([[LaurentPoly.monomial(a, -1)]])


def test_cocycle_trivial_and_zero_anchor():
    assert obstruction_cocycle(trivial_bundle(3), tangent_anchor()).is_zero
    s = Sampler(43)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=3, ops=1, max_deg=1)
        V = split_bundle(s.exponents(max_rank=2, bound=2))
        assert obstruction_cocycle(E, zero_anchor(V)).is_zero


def _vec_cochain(c: LaurentMatrix, r: int, q: int) -> LaurentMatrix:
    """Flatten the block row [C^(1)|...|C^(q)] to the (i, j, a) row-major
    column matching kron(T, T^(-T), T_V^(-T))."""
    return LaurentMatrix.column(
        [c.entry(i, a * r + j) for i in range(r) for j in range(r) for a in range(q)]
    )


def _unvec_cochain(col: LaurentMatrix, r: int, q: int) -> LaurentMatrix:
    rows = []
    for i in range(r):
        row = [None] * (r * q)
        for j in range(r):
            for a in range(q):
                row[a * r + j] = col.entry((i * r + j) * q + a, 0)
        rows.append(row)
    return LaurentMatrix(rows)


def _transport(b1: LaurentMatrix, E: P1Bundle, V: P1Bundle) -> LaurentMatrix:
    """sum_b (T_V^-T)_ab T b1^(b) T^-1, block by block."""
    r, q = E.rank, V.rank
    T, t_inv, tv_dual = E.transition, unit_inverse(E.transition), dual_bundle(V).transition
    out = None
    for a in range(q):
        acc = LaurentMatrix.zeros(r, r)
        for b in range(q):
            sub = b1.submatrix(range(r), range(b * r, (b + 1) * r))
            acc = acc + (T @ sub @ t_inv).scalar_mul(tv_dual.entry(a, b))
        out = acc if out is None else out.hstack(acc)
    return out


def test_cocycle_transport_matches_kron_flattening():
    # blockwise transport sum_b (T_V^-T)_ab T c1^b T^-1 must equal the
    # kron(T, T^-T, T_V^-T) action on the row-major flattening
    s = Sampler(44)
    E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
    V = split_bundle([-1, 1])
    r, q = E.rank, V.rank
    c1 = LaurentMatrix(
        [[s.laurent(-1, 1, max_terms=2) for _ in range(r * q)] for _ in range(r)]
    )
    W = tensor_bundle(hom_bundle(E, E), dual_bundle(V))
    via_kron = _unvec_cochain(W.transition @ _vec_cochain(c1, r, q), r, q)
    assert _transport(c1, E, V) == via_kron


# -- the split-frame solve against the Kronecker bundle ------------------------------


def _kronecker_reference(c: LaurentMatrix, E: P1Bundle, V: P1Bundle):
    """The window rule on W = End(E) (x) V* built and Birkhoff-split as a
    bundle of its own: the (b0, b1) it gives, or None."""
    r, q = E.rank, V.rank
    W = tensor_bundle(hom_bundle(E, E), dual_bundle(V))
    data = birkhoff_split(W)
    y = data.U0 @ _vec_cochain(c, r, q)
    beta0, beta1 = [], []
    for idx, d in enumerate(data.type):
        hol0, hol1 = {}, {}
        for e, coeff in y.entry(idx, 0).coeffs.items():
            if e >= 0:
                hol0[e] = coeff
            elif e <= min(-1, d):
                hol1[e - d] = -coeff
            else:
                return None
        beta0.append(LaurentPoly(hol0))
        beta1.append(LaurentPoly(hol1))
    b0 = unit_inverse(data.U0) @ LaurentMatrix.column(beta0)
    b1 = data.U1 @ LaurentMatrix.column(beta1)
    return _unvec_cochain(b0, r, q), _unvec_cochain(b1, r, q)


def _solve_cases():
    """Gauged rank-2/3 E against the tangent anchor, a line anchor, a split
    rank-2 anchor with a degree-2 summand, and a gauged rank-2 V."""
    s = Sampler(52)
    A = s.unimodular_z(2)
    V2 = gauge_transform(split_bundle([2, -1]), A, s.unimodular_w(2))
    anchors = [
        tangent_anchor(),
        anchor_line(-1, "z^3 + z"),
        ConcreteAnchor(split_bundle([2, 0]), LaurentMatrix.parse([["1", "z^2"]])),
        ConcreteAnchor(V2, LaurentMatrix.parse([["2", "z^2 + z"]]) @ unit_inverse(A)),
    ]
    for exps in ([1, -1], [0, 0], [2, 1], [1, 0, -1], [0, 0, 0], [1, 1, -1]):
        r = len(exps)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        for anchor in anchors:
            yield E, anchor


def test_split_frame_solve_matches_kronecker_reference():
    # the Kronecker bundle W, built and split as a bundle, is the reference;
    # both must agree on solvability, and both cochain pairs must solve
    # c = b0 - transport(b1) with b0 holomorphic in z and b1 in 1/z
    answers = set()
    for E, anchor in _solve_cases():
        c = obstruction_cocycle(E, anchor)
        got = split_coboundary(c, E, anchor.V)
        ref = _kronecker_reference(c.overlap_matrix, E, anchor.V)
        assert (got is None) == (ref is None)
        answers.add(got is None)
        for pair in (got, ref) if got is not None else ():
            b0, b1 = pair
            assert b0.is_poly_in_z and b1.is_poly_in_w
            assert b0 - _transport(b1, E, anchor.V) == c.overlap_matrix
    assert answers == {True, False}


def test_tampered_splitting_never_gives_a_wrong_answer(monkeypatch):
    # a U0 row scaled by z and a U1 column by 1/z still give U0 T U1 = diag,
    # but det U0 = z, so the solve runs in a frame that is no frame change.
    # Every answer is then the honest one or refused by its certificate
    # check: a false "exists" by verify_connection, a false "no connection"
    # by verify_witness
    import algconn.jet_obstruction as jo

    s = Sampler(53)
    refused = set()
    for exps in ([1, -1], [1, 0], [2, 0], [0, 0], [1, 1]):
        for anchor in (anchor_line(-1, "z^3 + z"), tangent_anchor()):
            E = gauge_transform(split_bundle(exps), s.unimodular_z(2), s.unimodular_w(2))
            honest = birkhoff_split(E)
            expected = construct_connection(E, anchor) is not None
            for k in range(2):
                scale = [LaurentPoly.one()] * 2
                unscale = [LaurentPoly.one()] * 2
                scale[k], unscale[k] = LaurentPoly.z(1), LaurentPoly.z(-1)
                bad = SplittingData(
                    honest.type,
                    LaurentMatrix.diag(scale) @ honest.U0,
                    honest.U1 @ LaurentMatrix.diag(unscale),
                )
                assert bad.U0 @ E.transition @ bad.U1 == split_diagonal(honest.type)
                monkeypatch.setattr(
                    jo, "birkhoff_split", lambda F, E=E, bad=bad: bad if F == E else birkhoff_split(F)
                )
                try:
                    assert (construct_connection(E, anchor) is not None) == expected
                except AssertionError as exc:
                    assert "internal bug" in str(exc)
                    refused.add(str(exc).split()[0])
                monkeypatch.undo()
    assert refused == {"constructed", "Serre-dual"}


# -- Serre-dual witnesses --------------------------------------------------------------


def _witness_case():
    """An obstructed gauged case and the witness split_coboundary certifies."""
    import algconn.jet_obstruction as jo

    s = Sampler(57)
    A = s.unimodular_z(2)
    V = gauge_transform(split_bundle([2, -1]), A, s.unimodular_w(2))
    anchor = ConcreteAnchor(V, LaurentMatrix.parse([["1", "z"]]) @ unit_inverse(A))
    E = gauge_transform(split_bundle([1, 0]), s.unimodular_z(2), s.unimodular_w(2))
    c = obstruction_cocycle(E, anchor)
    seen = []
    original = jo.verify_witness
    jo.verify_witness = lambda *args: seen.append(args[3]) or original(*args)
    try:
        assert split_coboundary(c, E, V) is None
    finally:
        jo.verify_witness = original
    (theta,) = seen
    return E, V, c, theta


def test_every_obstructed_answer_has_a_verified_witness(monkeypatch):
    import algconn.jet_obstruction as jo

    checked = []
    original = jo.verify_witness
    monkeypatch.setattr(jo, "verify_witness", lambda *args: checked.append(original(*args)) or checked[-1])
    negatives = 0
    for E, anchor in _solve_cases():
        if construct_connection(E, anchor) is None:
            negatives += 1
    assert negatives > 0 and checked == [True] * negatives


def test_tangent_anchor_witness_is_an_atiyah_weil_summand(monkeypatch):
    # for V = TX, V (x) K = O and a witness is a global endomorphism of E: the
    # projection u v^T onto a summand O(a_i) with a_i != 0 (v^T u = 1), whose
    # residue pairing with the cocycle is a_i (Weil 1938, Atiyah 1957)
    import algconn.jet_obstruction as jo

    seen = []
    original = jo._witness
    monkeypatch.setattr(
        jo, "_witness", lambda *args: seen.append((args[3:], original(*args))) or seen[-1][1]
    )
    anchor = tangent_anchor()
    s = Sampler(11)
    negatives = 0
    for _ in range(200):
        E, _ = s.gauged_p1_bundle(max_rank=4)
        seen.clear()
        if construct_connection(E, anchor) is not None:
            assert not seen
            continue
        negatives += 1
        [((i, j, a, e), theta)] = seen
        a_i = birkhoff_split(E).type[i]
        assert (i, j, a, e) == (i, i, 0, -1) and a_i != 0
        assert theta @ theta == theta
        assert is_global_hom(E, E, theta)
        assert trace_pair(E, theta, LaurentMatrix.identity(E.rank)) == 1
        c = obstruction_cocycle(E, anchor).overlap_matrix
        assert (theta @ c).trace().coeff(-1) == a_i
    assert negatives > 100


def _first_window_coefficient(c: ObstructionCocycle, E: P1Bundle, V: P1Bundle):
    """(a, i, j, e, width): the first split entry (a, i, j) in loop order
    with a window coefficient, its lowest window exponent e and how many
    window coefficients it has; None if there are none."""
    se, sv = birkhoff_split(E), birkhoff_split(V)
    r = E.rank
    u0_inv, u0v_inv = se.u0_inverse(E.transition), sv.u0_inverse(V.transition)
    conj = [
        se.U0 @ c.overlap_matrix.submatrix(range(r), range(b * r, (b + 1) * r)) @ u0_inv
        for b in range(V.rank)
    ]
    for a, v in enumerate(sv.type):
        y = LaurentMatrix.zeros(r, r)
        for b, block in enumerate(conj):
            y = y + block.scalar_mul(u0v_inv.entry(b, a))  # (U0_V^(-T))_ab
        for i, ai in enumerate(se.type):
            for j, aj in enumerate(se.type):
                window = [e for e in y.entry(i, j).coeffs if ai - aj - v < e < 0]
                if window:
                    return a, i, j, min(window), len(window)
    return None


def test_witness_is_the_first_entry_and_its_lowest_window_exponent(monkeypatch):
    # the witness depends on the cocycle alone, not on the order in which the
    # arithmetic happened to store an entry's coefficients
    import algconn.jet_obstruction as jo

    seen = []
    original = jo._witness
    monkeypatch.setattr(
        jo, "_witness", lambda *args: seen.append(args[3:]) or original(*args)
    )
    # in the anchor cases no obstructed entry has two window coefficients,
    # so random cochains against wide windows are added
    cases = [(obstruction_cocycle(E, anchor), E, anchor.V) for E, anchor in _solve_cases()]
    s = Sampler(58)
    for exps in ([2, -2], [3, 0, -1], [2, 2, -2]):
        r = len(exps)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        for V in (tangent_bundle(), split_bundle([1, -1])):
            M = LaurentMatrix(
                [[s.laurent(-4, 1, max_terms=3) for _ in range(r * V.rank)] for _ in range(r)]
            )
            cases.append((ObstructionCocycle(M), E, V))
    wide = 0
    for c, E, V in cases:
        seen.clear()
        expected = _first_window_coefficient(c, E, V)
        assert (split_coboundary(c, E, V) is None) == (expected is not None)
        if expected is not None:
            a, i, j, e, width = expected
            assert seen == [(i, j, a, e)]
            wide += width > 1
    assert wide > 0


def test_witness_pairs_to_zero_with_coboundaries():
    # Serre duality: a global section of End E (x) V (x) K pairs to zero with
    # every coboundary b0 - transport(b1), so the witness certifies the class
    E, V, c, theta = _witness_case()
    s = Sampler(58)
    r, q = E.rank, V.rank
    b0 = LaurentMatrix([[s.laurent(0, 3) for _ in range(r * q)] for _ in range(r)])
    b1 = LaurentMatrix([[s.laurent(-3, 0) for _ in range(r * q)] for _ in range(r)])
    cob = b0 - _transport(b1, E, V)
    assert not cob.is_zero
    assert verify_witness(E, V, c, theta)
    assert verify_witness(E, V, ObstructionCocycle(c.overlap_matrix + cob), theta)
    # check (iv) alone fails: same section, zero pairing
    assert not verify_witness(E, V, ObstructionCocycle(cob), theta)
    assert not verify_witness(E, V, ObstructionCocycle(LaurentMatrix.zeros(r, r * q)), theta)


def test_witness_rejects_non_polynomial_theta():
    # check (ii) alone fails: a z^-k bump, with k so large that the chart-1
    # form stays polynomial in 1/z and the pairing keeps its residue
    E, V, c, theta = _witness_case()
    bump = LaurentMatrix.parse([["0", "0", "1", "0"], ["0"] * 4]).shift(-40)
    assert not (theta + bump).is_poly_in_z
    assert not verify_witness(E, V, c, theta + bump)


def test_witness_rejects_positive_chart1_exponent():
    # check (iii) alone fails: a z^k bump, polynomial in z, too high to
    # change the residue, whose chart-1 form has positive exponents
    E, V, c, theta = _witness_case()
    bump = LaurentMatrix.parse([["0", "0", "1", "0"], ["0"] * 4]).shift(40)
    assert (theta + bump).is_poly_in_z
    assert not verify_witness(E, V, c, theta + bump)


def test_witness_rejects_tampered_inverse(monkeypatch):
    # check (i) alone fails: the splitting of E or of V hands out a T^-1 off
    # by a z^-k term small enough in the w-chart to keep the chart-1 form
    # polynomial in 1/z
    import algconn.jet_obstruction as jo

    E, V, c, theta = _witness_case()
    original = jo.birkhoff_split
    for victim in (E, V):
        good = original(victim)
        bad = SplittingData(good.type, good.U0, good.U1)
        bump = LaurentMatrix.diag([LaurentPoly.z(-40)] + [LaurentPoly.zero()] * (victim.rank - 1))
        vars(bad)["transition_inverse"] = good.transition_inverse + bump  # the cached value
        monkeypatch.setattr(jo, "birkhoff_split", lambda F, v=victim, b=bad: b if F == v else original(F))
        assert not verify_witness(E, V, c, theta)
    monkeypatch.undo()
    assert verify_witness(E, V, c, theta)


def test_witness_shape_mismatch():
    E, V, c, theta = _witness_case()
    assert not verify_witness(E, V, c, theta.submatrix(range(E.rank), range(E.rank)))


# -- coboundary solving --------------------------------------------------------------


def test_coboundary_window_examples():
    # z^-1 valued in O(-2): the window [-1,-1] is hit
    c = ObstructionCocycle(LaurentMatrix.parse([["z^-1"]]))
    assert split_coboundary(c, line_bundle(0), tangent_bundle()) is None
    # constant in O(0): chart-0 side
    got = split_coboundary(
        ObstructionCocycle(LaurentMatrix.parse([["1"]])), line_bundle(0), line_bundle(0)
    )
    assert got is not None
    b0, b1 = got
    assert str(b0.entry(0, 0)) == "1" and b1.is_zero
    # z^-1 in O(0): the window is empty, the chart-1 side absorbs it
    got2 = split_coboundary(c, line_bundle(0), line_bundle(0))
    assert got2 is not None
    b0, b1 = got2
    assert b0.is_zero and not b1.is_zero


def test_coboundary_shape_mismatch():
    c = ObstructionCocycle(LaurentMatrix.parse([["z^-1"]]))
    with pytest.raises(ShapeMismatch):
        split_coboundary(c, split_bundle([0, 0]), line_bundle(0))


def test_coboundary_reassembles_cocycle():
    # whenever solvable, b0 - transport(b1) equals the input exactly
    s = Sampler(45)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=1, ops=1, max_deg=1)
        V = line_bundle(s.rng.randint(-2, 1))
        phi = s.laurent(0, 2 - V.degree, max_terms=2, nonzero=True)
        anchor = ConcreteAnchor(V, LaurentMatrix([[phi]]))
        c = obstruction_cocycle(E, anchor)
        got = split_coboundary(c, E, V)
        assert got is not None  # line-bundle anchors below degree 2 never obstruct
        b0, b1 = got
        T = E.transition
        transported = (T @ b1 @ unit_inverse(T)).scalar_mul(
            dual_bundle(V).transition.entry(0, 0)
        )
        assert b0 - transported == c.overlap_matrix
        assert b0.is_poly_in_z and b1.is_poly_in_w


# -- certificates -----------------------------------------------------------------------


def test_construct_trivial_tangent_gives_zero_cert():
    cert = construct_connection(trivial_bundle(1), tangent_anchor())
    assert cert is not None and cert.A0.is_zero and cert.A1.is_zero


def test_construct_obstructed_cases():
    assert construct_connection(line_bundle(1), tangent_anchor()) is None
    assert construct_connection(line_bundle(2), tangent_anchor()) is None
    assert not connection_exists_p1(split_bundle([1, -1]), tangent_anchor())


def test_construct_low_degree_anchor_always_succeeds():
    cert = construct_connection(line_bundle(1), anchor_line(-3, "z^5 + 1"))
    assert cert is not None
    assert connection_exists_p1(split_bundle([1, -1]), anchor_line(-1, "z^2 + z"))
    assert connection_exists_p1(split_bundle([0, 0]), tangent_anchor())


def _gauged_certs():
    """Gauged rank-2 E (T is not central, so T X and X T differ) with a split
    rank-2 anchor, and the same anchor in a gauged frame of V (A V B has
    anchor phi0 A^(-1); T_V^(-T) is then not symmetric): E, each anchor with
    its certificate, and constant, hence chart-holomorphic, bumps of one
    block each."""
    s = Sampler(55)
    E = gauge_transform(split_bundle([1, -1]), s.unimodular_z(2), s.unimodular_w(2))
    phi = LaurentMatrix.parse([["z^2 + 1", "z"]])
    A = s.unimodular_z(2)
    V = gauge_transform(split_bundle([0, -1]), A, s.unimodular_w(2))
    anchors = (ConcreteAnchor(split_bundle([0, -1]), phi), ConcreteAnchor(V, phi @ unit_inverse(A)))
    zeros = ["0"] * 4
    bumps = (LaurentMatrix.parse([["1", "0", "0", "0"], zeros]),
             LaurentMatrix.parse([["0", "0", "1", "0"], zeros]))
    return E, [(a, construct_connection(E, a)) for a in anchors], bumps


def _accepts_and_rejects_bumps(E, pairs, bumps):
    for a, cert in pairs:
        assert cert is not None and not cert.A0.is_zero and not cert.A1.is_zero
        assert verify_connection(E, a, cert)
        for bump in bumps:
            assert not verify_connection(E, a, ConnectionCert(A0=cert.A0 + bump, A1=cert.A1))
            assert not verify_connection(E, a, ConnectionCert(A0=cert.A0, A1=cert.A1 + bump))


def test_verify_rejects_perturbed_certs():
    E = trivial_bundle(1)
    a = tangent_anchor()
    cert = construct_connection(E, a)
    bad0 = ConnectionCert(
        A0=cert.A0 + LaurentMatrix.parse([["z^-1"]]), A1=cert.A1
    )
    assert not verify_connection(E, a, bad0)  # chart-0 holomorphy broken
    bad1 = ConnectionCert(A0=cert.A0 + LaurentMatrix.parse([["1"]]), A1=cert.A1)
    assert not verify_connection(E, a, bad1)  # overlap identity broken
    # bumps that keep the overlap identity (T_V (x) T = -z^2 here), each
    # breaking the holomorphy of one chart only
    one, minus_z2 = LaurentMatrix.parse([["1"]]), LaurentMatrix.parse([["-z^2"]])
    for A0, A1 in (
        (cert.A0 + LaurentMatrix.parse([["-z^-2"]]), cert.A1 + one),
        (cert.A0 + one, cert.A1 + minus_z2),
    ):
        assert A0 @ minus_z2 == A1 - (a.phi_row @ a.V.transition).kron(E.transition.derivative())
        assert not verify_connection(E, a, ConnectionCert(A0=A0, A1=A1))
    # a certificate of the wrong shape is rejected, not a shape error
    wide = LaurentMatrix.zeros(1, 2)
    assert not verify_connection(E, a, ConnectionCert(A0=wide, A1=wide))
    # a bump in any one block of A0 or A1 breaks the overlap identity
    _accepts_and_rejects_bumps(*_gauged_certs())


def test_verify_connection_reads_no_splitting(monkeypatch):
    # the certificate check reads the input transitions and the certificate
    # alone: with every splitting unavailable, it still accepts the good
    # certificates and rejects each bumped one
    import algconn.jet_obstruction as jo
    import algconn.p1_engine as pe

    cases = _gauged_certs()

    def no_splitting(F):
        raise AssertionError("verify_connection asked for a splitting")

    monkeypatch.setattr(jo, "birkhoff_split", no_splitting)
    monkeypatch.setattr(pe, "_birkhoff_cached", no_splitting)
    _accepts_and_rejects_bumps(*cases)


def test_zero_anchor_does_not_split_e(monkeypatch):
    import algconn.jet_obstruction as jo

    s = Sampler(56)
    E = gauge_transform(split_bundle([2, 0, -1]), s.unimodular_z(3), s.unimodular_w(3))
    anchor = zero_anchor(split_bundle([1, -1]))
    # from here on, every splitting the connection path asks for is recorded
    split = []
    original = jo.birkhoff_split
    monkeypatch.setattr(jo, "birkhoff_split", lambda F: split.append(F) or original(F))
    cert = construct_connection(E, anchor)
    assert cert is not None and cert.A0.is_zero and cert.A1.is_zero
    assert E not in split


def test_verify_constant_cert_with_gauge_partner():
    # on trivial E with the anchor O(0) -> TX given by z^2, the constant
    # matrices A0 = A1 = 1 satisfy the overlap identity (transport is the
    # identity there)
    E = trivial_bundle(1)
    a = anchor_line(0, "z^2")
    cert = ConnectionCert(
        A0=LaurentMatrix.parse([["1"]]), A1=LaurentMatrix.parse([["1"]])
    )
    assert verify_connection(E, a, cert)


def test_round_trip_soundness_random():
    s = Sampler(46)
    for _ in range(15):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
        v = s.rng.randint(-3, 1)
        phi = s.laurent(0, 2 - v, max_terms=2, nonzero=True)
        anchor = ConcreteAnchor(line_bundle(v), LaurentMatrix([[phi]]))
        cert = construct_connection(E, anchor)
        assert cert is not None
        assert verify_connection(E, anchor, cert)


def test_exists_gauge_invariant():
    s = Sampler(47)
    for _ in range(8):
        exps = s.exponents(max_rank=2, bound=2)
        E = split_bundle(exps)
        verdict = connection_exists_p1(E, tangent_anchor())
        for _ in range(3):
            A = s.unimodular_z(E.rank, ops=1, max_deg=1)
            B = s.unimodular_w(E.rank, ops=1, max_deg=1)
            G = gauge_transform(E, A, B)
            assert connection_exists_p1(G, tangent_anchor()) == verdict


def test_block_diagonal_functoriality():
    # for E = E1 (+) E2 the cocycle is block diagonal and existence is
    # existence for both summands
    s = Sampler(48)
    for _ in range(10):
        e1 = s.exponents(max_rank=2, bound=2)
        e2 = s.exponents(max_rank=1, bound=2)
        E1, E2 = split_bundle(e1), split_bundle(e2)
        A1 = s.unimodular_z(E1.rank, ops=1, max_deg=1)
        B1 = s.unimodular_w(E1.rank, ops=1, max_deg=1)
        E1g = gauge_transform(E1, A1, B1)
        T = E1g.transition
        zero_ul = LaurentMatrix.zeros(E1g.rank, E2.rank)
        block = (T.hstack(zero_ul)).vstack(
            LaurentMatrix.zeros(E2.rank, E1g.rank).hstack(E2.transition)
        )
        E = P1Bundle(E1g.rank + E2.rank, block)
        anchor = tangent_anchor()
        c = obstruction_cocycle(E, anchor).overlap_matrix
        for i in range(E1g.rank):
            for j in range(E1g.rank, E.rank):
                assert c.entry(i, j).is_zero and c.entry(j, i).is_zero
        assert connection_exists_p1(E, anchor) == (
            connection_exists_p1(E1g, anchor) and connection_exists_p1(E2, anchor)
        )


def test_zero_anchor_total():
    s = Sampler(49)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=3, ops=1, max_deg=1)
        V = split_bundle(s.exponents(max_rank=2, bound=3))
        assert connection_exists_p1(E, zero_anchor(V))


def test_rank2_anchor_connection():
    # beyond the rank-1 theory: a rank-2 anchor bundle still runs through
    # the same coboundary machinery
    E = split_bundle([1, -1])
    V = split_bundle([-2, -3])
    a = ConcreteAnchor(V, LaurentMatrix.parse([["z^3", "z^4 + 1"]]))
    cert = construct_connection(E, a)
    assert cert is not None
    assert verify_connection(E, a, cert)


def test_gauged_high_rank_connections():
    # rank 3 and 4 E in a gauged frame; rank-1 anchors are cross-checked
    # against the formal criterion, the rank-2 anchor against the diagonal
    # frame of the same bundle
    tangent_desc = AlgebroidDesc(
        FormalBundle(CurveContext(0), (Atom(1, 2, is_tangent=True),)),
        AnchorDesc(AnchorKind.ISOMORPHISM, (LaurentPoly.one(),)),
    )
    line = anchor_line(-1, "z^3 + z")
    line_desc = AlgebroidDesc(
        FormalBundle(CurveContext(0), (Atom(1, -1),)),
        AnchorDesc(AnchorKind.NONZERO, (laurent_parse("z^3 + z"),)),
    )
    split2 = ConcreteAnchor(split_bundle([0, -1]), LaurentMatrix.parse([["z^2 + 1", "z"]]))
    s = Sampler(54)
    for exps in ([0, 0, 0], [1, 0, -1], [0, 0, 0, 0], [1, 1, 0, -2]):
        r = len(exps)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        E_formal = FormalBundle(CurveContext(0), tuple(Atom(1, a) for a in exps))
        for anchor, desc in ((tangent_anchor(), tangent_desc), (line, line_desc), (split2, None)):
            cert = construct_connection(E, anchor)
            if cert is not None:
                assert verify_connection(E, anchor, cert)
            if desc is not None:
                assert decide_connection(desc, E_formal).as_bool() == (cert is not None)
            else:
                assert connection_exists_p1(split_bundle(exps), anchor) == (cert is not None)


def test_anchor_json_round_trip():
    a = anchor_line(-3, "z^5 + 1")
    assert anchor_from_json(anchor_to_json(a)) == a


def _jet_splitting(cert: ConnectionCert, r: int, q: int) -> LaurentMatrix:
    """Phi0 = [[M], [I_r]] with M[i q + a][j] = -A0[i][a r + j]: the chart-0
    map E -> J_V(E) that a connection gives, in J's frame (Hom(V, E) slot,
    value) with Hom(V, E) = E (x) V* vectorized row-major."""
    neg = -cert.A0
    M = [[neg.entry(i, a * r + j) for j in range(r)] for i in range(r) for a in range(q)]
    return LaurentMatrix(M).vstack(LaurentMatrix.identity(r))


def test_every_certificate_splits_the_anchored_jet_sequence():
    # a connection is a splitting E -> J_V(E) of 0 -> E (x) V* -> J_V(E) ->
    # E -> 0: Phi0 built from A0 alone must be a global hom, checked on J's
    # transition and not through verify_connection; z^40 in M breaks it
    s = Sampler(69)
    tangent = tangent_anchor()
    anchors = (tangent, anchor_line(-1, "z^2 + 1"),
               ConcreteAnchor(split_bundle([1, 0]), LaurentMatrix.parse([["1", "z"]])))
    checked = 0
    for anchor in anchors:
        for _ in range(6):
            r = s.rng.randint(1, 3)
            # the tangent anchor has connections on trivial E only
            exps = [0] * r if anchor is tangent else s.exponents(max_rank=r, min_rank=r, bound=2)
            E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
            cert = construct_connection(E, anchor)
            assert cert is not None
            J = jetV_transition(E, anchor)
            phi0 = _jet_splitting(cert, r, anchor.V.rank)
            assert is_global_hom(E, J, phi0)
            bump = LaurentMatrix([[LaurentPoly.z(40) if (i, j) == (0, 0) else LaurentPoly.zero()
                                   for j in range(r)] for i in range(J.rank)])
            assert not is_global_hom(E, J, phi0 + bump)
            checked += 1
    assert checked == 18
