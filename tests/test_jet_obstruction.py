"""Jet bundles, the obstruction cocycle, coboundaries, certificates."""

import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from oracles import (
    cocycle_identity,
    column,
    connection_identity,
    is_global_witness,
    monomial_det,
    residue_pairing,
    serre_witness,
    split_diagonal,
    trace,
)

from algconn.algebroid_decision import AlgebroidDesc, AnchorDesc, AnchorKind, decide_connection
from algconn.errors import InvalidAnchor
from algconn.exact_core import LaurentMatrix, LaurentPoly, laurent_parse
from algconn.formal_bundles import Atom, CurveContext, FormalBundle
from algconn.jet_obstruction import (
    ConcreteAnchor,
    ConnectionCert,
    ObstructionCocycle,
    _cocycle_and_connection,
    _overlap_holds,
    anchor_from_json,
    anchor_to_json,
    construct_connection,
    jet1_transition,
    jetV_transition,
    obstruction_cocycle,
    tangent_anchor,
    verify_connection,
    verify_witness,
    zero_anchor,
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
    split_bundle,
    tangent_bundle,
    tensor_bundle,
    trivial_bundle,
)
from algconn.sampling import Sampler, run_fuzz


def unit_inv(M: LaurentMatrix) -> LaurentMatrix:
    """M^(-1) over the Laurent ring, read off the certified splitting of
    the bundle with transition M."""
    return birkhoff_split(P1Bundle(M)).transition_inverse


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


def test_a_jet_bundle_adds_one_memo_entry():
    # the upper-left block of J_V(E) is read off V's splitting, so J is the
    # one bundle a jets call builds: with E and V split on a cleared memo,
    # each jet bundle adds its own entry and no other
    s = Sampler(64)
    E = gauge_transform(split_bundle([2, 0, 0, -1, -3]), s.unimodular_z(5), s.unimodular_w(5))
    V2 = _gauged_v2()
    anchors = [tangent_anchor(), ConcreteAnchor(V2, hom_sections(V2, tangent_bundle())[0])]
    for jet in [jet1_transition] + [lambda E, a=a: jetV_transition(E, a) for a in anchors]:
        try:
            _birkhoff_cached.cache_clear()
            for F in (E, tangent_bundle(), V2):
                birkhoff_split(F)
            J = jet(E)
            assert _birkhoff_cached.cache_info().currsize == 4
            assert birkhoff_split(J).verify(J)
        finally:
            _birkhoff_cached.cache_clear()


# -- obstruction cocycle -----------------------------------------------------------


def test_cocycle_line_bundles_tangent():
    for a in [-2, 0, 1, 3]:
        c = obstruction_cocycle(line_bundle(a), tangent_anchor())
        assert c.overlap_matrix == LaurentMatrix([[LaurentPoly.monomial(a, -1)]])


def test_cocycle_trivial_and_zero_anchor():
    assert obstruction_cocycle(trivial_bundle(3), tangent_anchor()).overlap_matrix.is_zero
    s = Sampler(43)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=3, ops=1, max_deg=1)
        V = split_bundle(s.exponents(max_rank=2, bound=2))
        assert obstruction_cocycle(E, zero_anchor(V)).overlap_matrix.is_zero


def _vec_cochain(c: LaurentMatrix, r: int, q: int) -> LaurentMatrix:
    """Flatten the block row [C^(1)|...|C^(q)] to the (i, j, a) row-major
    column matching kron(T, T^(-T), T_V^(-T))."""
    return column(
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
    T, t_inv, tv_dual = E.transition, unit_inv(E.transition), dual_bundle(V).transition
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
    b0 = unit_inv(data.U0) @ column(beta0)
    b1 = data.U1 @ column(beta1)
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
        ConcreteAnchor(V2, LaurentMatrix.parse([["2", "z^2 + z"]]) @ unit_inv(A)),
    ]
    for exps in ([1, -1], [0, 0], [2, 1], [1, 0, -1], [0, 0, 0], [1, 1, -1]):
        r = len(exps)
        E = gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))
        for anchor in anchors:
            yield E, anchor


def _cochains(E: P1Bundle, anchor: ConcreteAnchor):
    """The cochains (b0, b1) = (-A0, -A1) of construct_connection's
    certificate, which solve c = b0 - transport(b1) for the anchor's
    cocycle c, or None when it answers "no"."""
    cert = construct_connection(E, anchor)
    return None if cert is None else (-cert.A0, -cert.A1)


def test_split_frame_solve_matches_kronecker_reference():
    # the Kronecker bundle W, built and split as a bundle, is the reference;
    # both must agree on solvability, and both cochain pairs must solve
    # c = b0 - transport(b1) with b0 holomorphic in z and b1 in 1/z
    answers = set()
    for E, anchor in _solve_cases():
        c = obstruction_cocycle(E, anchor)
        got = _cochains(E, anchor)
        ref = _kronecker_reference(c.overlap_matrix, E, anchor.V)
        assert (got is None) == (ref is None)
        answers.add(got is None)
        for pair in (got, ref) if got is not None else ():
            b0, b1 = pair
            assert b0.is_poly_in_z and b1.is_poly_in_w
            assert b0 - _transport(b1, E, anchor.V) == c.overlap_matrix
    assert answers == {True, False}


def test_closed_form_is_the_unique_certificate_on_trivial_type():
    # gauged trivial E with the tangent anchor: End(E) (x) V* is O(-2)^(r^2),
    # so every split entry has d = -2 and End E (x) K has no sections. The
    # coboundary solution is then unique, and the closed form must be the
    # Kronecker reference's pair, negated, exactly
    s = Sampler(61)
    anchor = tangent_anchor()
    for r in (2, 3, 3):
        E = gauge_transform(split_bundle([0] * r), s.unimodular_z(r, ops=r * r),
                            s.unimodular_w(r, ops=r * r))
        cert = construct_connection(E, anchor)
        b0, b1 = _kronecker_reference(obstruction_cocycle(E, anchor).overlap_matrix, E, anchor.V)
        assert not b0.is_zero and not b1.is_zero  # so the sign shows
        assert (cert.A0, cert.A1) == (-b0, -b1)


def _forged_splitting(**slots) -> SplittingData:
    """A SplittingData with its slots set directly, past the constructor's
    checks: what an engine bug could hand out to the certificate checks."""
    forged = object.__new__(SplittingData)
    for name, value in slots.items():
        getattr(SplittingData, name).__set__(forged, value)
    return forged


def test_tampered_splitting_never_gives_a_wrong_answer(monkeypatch):
    # U0's row 0 scaled by z^m under a type with a_0 raised by m still gives
    # U0 T U1 = diag, but det U0 = z^m: of the record's clauses only U0^(-1)
    # polynomial in z sees it, and the constructor refuses it. Forged past
    # the constructor, the answer is built in a frame that is no frame
    # change. Every answer is then the honest one or refused as an internal
    # bug: a false "no connection" by verify_witness, a false "exists" by
    # verify_connection. The line anchors have v = -1 and v = 0, so the
    # integers say "yes" under any type. Then U0^(-1) U0' carries m z^(-1)
    # from the forged row, times phi0: z + 1 leaves a z^(-1) term in A0,
    # which verify_connection refuses, while z^3 + z cancels it and the
    # closed form is a valid certificate in the forged frame
    import algconn.jet_obstruction as jo

    s = Sampler(53)
    refused = set()
    for exps in ([1, -1], [1, 0], [2, 0], [0, 0], [1, 1]):
        for anchor in (anchor_line(-1, "z^3 + z"), anchor_line(0, "z + 1"), tangent_anchor()):
            E = gauge_transform(split_bundle(exps), s.unimodular_z(2), s.unimodular_w(2))
            honest = birkhoff_split(E)
            expected = construct_connection(E, anchor) is not None
            for m in (1, 2):
                raised = (honest.type[0] + m,) + honest.type[1:]
                scale = LaurentMatrix.diag([LaurentPoly.z(m), LaurentPoly.one()])
                claim = (E.transition, raised, scale @ honest.U0, honest.U1)
                with pytest.raises(ValueError, match="must be polynomial in z"):
                    SplittingData(*claim)
                bad = _forged_splitting(
                    **dict(zip(SplittingData._fields, claim)),
                    u0_inverse=E.transition @ honest.U1 @ split_diagonal([-a for a in raised]),
                )
                assert bad.U0 @ E.transition @ bad.U1 == split_diagonal(raised)
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


def _witness_anchor():
    """An obstructed gauged case: E and a gauged rank-2 anchor."""
    s = Sampler(57)
    A = s.unimodular_z(2)
    V = gauge_transform(split_bundle([2, -1]), A, s.unimodular_w(2))
    anchor = ConcreteAnchor(V, LaurentMatrix.parse([["1", "z"]]) @ unit_inv(A))
    E = gauge_transform(split_bundle([1, 0]), s.unimodular_z(2), s.unimodular_w(2))
    return E, anchor


def _checked_witnesses(cases):
    """construct_connection on each (E, anchor), with the vector witness
    (a_i, v_a, u, v, x, w0, w1) it hands verify_witness for each "no", and
    None for each "yes"."""
    import algconn.jet_obstruction as jo

    seen = []
    original = jo.verify_witness
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jo, "verify_witness", lambda *args: seen.append(args[2:]) or original(*args))
        answers = [construct_connection(E, anchor) for E, anchor in cases]
    witnesses = iter(seen)
    return [next(witnesses) if answer is None else None for answer in answers]


def _witness_case():
    """The obstructed case and the witness construct_connection checks for it."""
    E, anchor = _witness_anchor()
    [witness] = _checked_witnesses([(E, anchor)])
    return E, anchor, witness


def _vector_checks(E: P1Bundle, anchor: ConcreteAnchor, witness) -> tuple[bool, ...]:
    """The five checks (i)-(v) of verify_witness, restated here, so that a
    tamper can show which one it breaks."""
    a_i, v_a, u, v, x, w0, w1 = witness
    T = E.transition
    pairing = (anchor.phi_row @ w0) @ (v @ T.derivative() @ x)
    return (
        u.is_poly_in_z and v.is_poly_in_z and w0.is_poly_in_z,
        x.is_poly_in_w and w1.is_poly_in_w and (v @ T).shift(2 - v_a - a_i).is_poly_in_w,
        T @ x == u.shift(a_i),
        anchor.V.transition @ w1 == w0.shift(v_a),
        pairing.entry(0, 0).coeff(a_i - 1) != 0,
    )


def _certifies(E: P1Bundle, anchor: ConcreteAnchor, witness) -> bool:
    """Does the rank-one section the witness names certify the class, judged
    by the oracles: a global section that pairs nonzero with the cocycle?"""
    _, _, u, v, _, w0, _ = witness
    theta0 = serre_witness(u, v, w0)
    T, T_V = E.transition, anchor.V.transition
    if not is_global_witness(theta0, T, unit_inv(T), T_V, unit_inv(T_V)):
        return False
    return residue_pairing(theta0, obstruction_cocycle(E, anchor).overlap_matrix) != 0


def _tampered(E: P1Bundle, anchor: ConcreteAnchor, witness, check: int):
    """The witness changed so that check `check` of (i)-(v) fails and the
    other four hold: u moves by z^-40 e_1 for (i) or z^40 e_1 for (ii), with
    x moved along so that T x = z^(a_i) u stays; u alone moves by z^40 e_1
    for (iii), and w0 by z^40 f_1 for (iv), each too far to touch the
    residue; (v) takes the vectors of E's summand with a_i = 0, which name
    a global section that pairs to zero."""
    a_i, v_a, u, v, x, w0, w1 = witness
    r, q = E.rank, anchor.V.rank
    e1 = column([LaurentPoly.one()] + [LaurentPoly.zero()] * (r - 1))
    if check in (0, 1):
        bump = e1.shift(-40 if check == 0 else 40)
        return a_i, v_a, u + bump, v, x + (unit_inv(E.transition) @ bump).shift(a_i), w0, w1
    if check == 2:
        return a_i, v_a, u + e1.shift(40), v, x, w0, w1
    if check == 3:
        f1 = column([LaurentPoly.one()] + [LaurentPoly.zero()] * (q - 1))
        return a_i, v_a, u, v, x, w0 + f1.shift(40), w1
    se = birkhoff_split(E)
    k = se.type.index(0)
    return (0, v_a, se.u0_inverse.submatrix(range(r), [k]), se.U0.submatrix([k], range(r)),
            se.U1.submatrix(range(r), [k]), w0, w1)


def test_every_obstructed_answer_has_a_verified_witness():
    # each "no" hands verify_witness five vectors that pass every check and
    # name a section the oracles accept
    cases = list(_solve_cases())
    checked = [(*case, w) for case, w in zip(cases, _checked_witnesses(cases)) if w is not None]
    assert checked
    for E, anchor, witness in checked:
        assert _vector_checks(E, anchor, witness) == (True,) * 5
        assert _certifies(E, anchor, witness)


def test_tangent_anchor_witness_is_an_atiyah_weil_summand():
    # for V = TX, V (x) K = O and a witness is a global endomorphism of E: the
    # projection u v onto a summand O(a_i) with a_i != 0 (v u = 1), whose
    # residue pairing with the cocycle is a_i (Weil 1938, Atiyah 1957)
    anchor = tangent_anchor()
    s = Sampler(11)
    bundles = [s.gauged_p1_bundle(max_rank=4)[0] for _ in range(200)]
    negatives = 0
    for E, witness in zip(bundles, _checked_witnesses([(E, anchor) for E in bundles])):
        if witness is None:
            continue
        negatives += 1
        a_i, v_a, u, v, x, w0, w1 = witness
        theta = serre_witness(u, v, w0)
        assert v_a == 2 and a_i == next(a for a in birkhoff_split(E).type if a != 0)
        assert theta @ theta == theta
        assert is_global_hom(E, E, theta)
        assert trace(theta) == 1
        c = obstruction_cocycle(E, anchor).overlap_matrix
        product = theta @ c
        residue = sum(product.entry(k, k).coeff(-1) for k in range(E.rank))
        assert residue == a_i == residue_pairing(theta, c)
    assert negatives > 100


def _first_window_coefficient(c: ObstructionCocycle, E: P1Bundle, V: P1Bundle):
    """(a, i, j, e): the first split entry (a, i, j) in loop order with a
    window coefficient, and its lowest window exponent e; None if there
    are none."""
    se, sv = birkhoff_split(E), birkhoff_split(V)
    r = E.rank
    u0_inv, u0v_inv = se.u0_inverse, sv.u0_inverse
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
                    return a, i, j, min(window)
    return None


def test_witness_is_the_first_entry_and_its_lowest_window_exponent():
    # on an anchor's cocycle the first window hit of the split frames is
    # (a, i, i, -1) at the integers' first a and i, where
    # construct_connection takes its witness, and there is none exactly
    # when it answers "yes"
    anchor_cases = list(_solve_cases())
    for (E, anchor), witness in zip(anchor_cases, _checked_witnesses(anchor_cases)):
        hit = _first_window_coefficient(obstruction_cocycle(E, anchor), E, anchor.V)
        assert (witness is None) == (hit is None)
        if witness is not None:
            a, i, j, e = hit
            se, sv = birkhoff_split(E), birkhoff_split(anchor.V)
            assert (j, e, sv.type[a], witness[0]) == (i, -1, 2, se.type[i])
            assert witness[2] == se.u0_inverse.submatrix(range(E.rank), [i])
            assert witness[5] == sv.u0_inverse.submatrix(range(anchor.V.rank), [a])


def test_witness_pairs_to_zero_with_coboundaries():
    # Serre duality: a global section of End E (x) V (x) K pairs to zero with
    # every coboundary b0 - transport(b1), so the witness certifies the
    # class; the residue that verify_witness reads off the vectors is the
    # pairing of the section they name
    E, anchor, witness = _witness_case()
    a_i, v_a, u, v, x, w0, w1 = witness
    V = anchor.V
    s = Sampler(58)
    r, q = E.rank, V.rank
    b0 = LaurentMatrix([[s.laurent(0, 3) for _ in range(r * q)] for _ in range(r)])
    b1 = LaurentMatrix([[s.laurent(-3, 0) for _ in range(r * q)] for _ in range(r)])
    cob = b0 - _transport(b1, E, V)
    assert not cob.is_zero
    theta0 = serre_witness(u, v, w0)
    T = E.transition
    assert is_global_witness(theta0, T, unit_inv(T), V.transition, unit_inv(V.transition))
    c = obstruction_cocycle(E, anchor).overlap_matrix
    residue = ((anchor.phi_row @ w0) @ (v @ T.derivative() @ x)).entry(0, 0).coeff(a_i - 1)
    assert residue_pairing(theta0, c) == residue != 0
    assert residue_pairing(theta0, c + cob) == residue
    assert residue_pairing(theta0, cob) == 0


def _assert_tamper_fails_alone(check: int):
    E, anchor, witness = _witness_case()
    assert verify_witness(E, anchor, *witness)
    bad = _tampered(E, anchor, witness, check)
    assert _vector_checks(E, anchor, bad) == tuple(k != check for k in range(5))
    assert not _certifies(E, anchor, bad)  # the bump really breaks the witness
    assert not verify_witness(E, anchor, *bad)


def test_witness_rejects_non_polynomial_theta():
    # check (i) alone fails: u + z^-40 e_1, with x moved so that T x = z^(a_i) u
    # still holds; Theta0 is then no polynomial in z
    _assert_tamper_fails_alone(0)


def test_witness_rejects_positive_chart1_exponent():
    # check (ii) alone fails: u + z^40 e_1 and x with it, so x has positive
    # exponents and the chart-1 form of Theta0 is no polynomial in 1/z
    _assert_tamper_fails_alone(1)


def test_witness_rejects_a_broken_identity_of_e():
    # check (iii) alone fails: u + z^40 e_1 with x kept; the residue reads x,
    # so without (iii) the checks would pass a section that is not global
    _assert_tamper_fails_alone(2)


def test_witness_rejects_a_broken_identity_of_v():
    # check (iv) alone fails: w0 + z^40 f_1 with w1 kept
    _assert_tamper_fails_alone(3)


def test_witness_rejects_a_zero_pairing():
    # check (v) alone fails: the vectors of the summand O(0) of E name a
    # global section, which pairs to a_i psi_a(0) = 0
    _assert_tamper_fails_alone(4)


def test_forged_inverse_never_reaches_an_answer(monkeypatch):
    # construct_connection reads no T^(-1) and no cocycle: with the printed
    # cocycle's factor T' U1 D^(-1) = T' T^(-1) U0^(-1) forged for E or for
    # V, both answers stay the honest ones. The cocycle algconn connect
    # prints does read E's, so _cocycle_and_connection checks it, whatever
    # the answer, and refuses a forged one; V's is read by neither
    import algconn.jet_obstruction as jo

    E0, anchor0 = _witness_anchor()
    s = Sampler(59)
    E1 = gauge_transform(split_bundle([0, 0]), s.unimodular_z(2), s.unimodular_w(2))
    cases = ((E0, anchor0, False), (E1, tangent_anchor(), True))
    original = jo._lifted_product
    refused = 0
    for E, anchor, exists in cases:
        assert (construct_connection(E, anchor) is not None) == exists
        for victim in (E, anchor.V):
            derivative = victim.transition.derivative()
            zeros = [LaurentPoly.zero()] * (victim.rank - 1)
            for k in (-40, -1, 0, 1):
                bump = LaurentMatrix.diag([LaurentPoly.z(k)] + zeros)

                def forged(A, B, shifts, d=derivative, bump=bump):
                    honest = original(A, B, shifts)
                    return honest + bump if A == d else honest

                monkeypatch.setattr(jo, "_lifted_product", forged)
                assert (construct_connection(E, anchor) is not None) == exists
                if victim is E:
                    with pytest.raises(AssertionError, match="cocycle failed its check"):
                        _cocycle_and_connection(E, anchor)
                    refused += 1
                else:
                    assert (_cocycle_and_connection(E, anchor)[1] is not None) == exists
                monkeypatch.undo()
    assert refused == 8


def test_witness_shape_mismatch():
    E, anchor, witness = _witness_case()
    for k in range(2, 7):
        wrong = list(witness)
        wrong[k] = wrong[k].transpose()
        assert not verify_witness(E, anchor, *wrong)


def test_an_answer_builds_no_cocycle_and_reads_no_inverse(monkeypatch):
    # construct_connection answers from the two splittings: a "no" checks
    # five vectors and a "yes" is the closed form in the frames, so neither
    # builds the cocycle or reads a T^(-1)
    import algconn.jet_obstruction as jo

    cases = [(E, a, construct_connection(E, a) is not None) for E, a in _solve_cases()]

    def refuse(*args):
        raise AssertionError("an answer read the cocycle or a T^(-1)")

    monkeypatch.setattr(jo, "obstruction_cocycle", refuse)
    monkeypatch.setattr(SplittingData, "transition_inverse", property(refuse))
    for E, anchor, exists in cases:
        assert (construct_connection(E, anchor) is not None) == exists
    assert {exists for _, _, exists in cases} == {True, False}


def test_the_workload_paths_form_no_transition_inverse(monkeypatch):
    # only dual_bundle and jetV_transition form T^(-1) = U1 D^(-1) U0; anchor
    # checks, connect with its printed cocycle, cohomology, sections and the
    # fuzz read the record's frames, so all of them run with the read refused
    E0, anchor0 = _witness_anchor()
    s = Sampler(60)
    E1 = gauge_transform(split_bundle([0, 0]), s.unimodular_z(2), s.unimodular_w(2))
    V2 = _gauged_v2()
    phi2 = hom_sections(V2, tangent_bundle())[0]

    def refuse(*args):
        raise AssertionError("T^(-1) was formed")

    monkeypatch.setattr(SplittingData, "transition_inverse", property(refuse))
    with pytest.raises(AssertionError, match="was formed"):
        dual_bundle(E1)
    assert tangent_anchor().phi_row == LaurentMatrix.parse([["1"]])
    assert anchor_line(-1, "z^3 + z").V == line_bundle(-1)
    assert ConcreteAnchor(V2, phi2).phi_row == phi2
    with pytest.raises(InvalidAnchor):
        anchor_line(1, "z^2")
    for E, anchor, exists in ((E0, anchor0, False), (E1, tangent_anchor(), True)):
        cocycle, cert = _cocycle_and_connection(E, anchor)
        assert (cert is not None) == exists and not cocycle.overlap_matrix.is_zero
    assert cohomology_dims(E0) == (3, 0)
    assert len(global_sections(E0)) == 3
    assert run_fuzz(25, 53).report["mismatches"] == 0


# -- coboundary solving --------------------------------------------------------------


def test_coboundary_window_examples():
    # z^-1 valued in O(-2): the window [-1,-1] is hit
    c = LaurentMatrix.parse([["z^-1"]])
    assert _kronecker_reference(c, line_bundle(0), tangent_bundle()) is None
    # constant in O(0): chart-0 side
    got = _kronecker_reference(LaurentMatrix.parse([["1"]]), line_bundle(0), line_bundle(0))
    assert got is not None
    b0, b1 = got
    assert str(b0.entry(0, 0)) == "1" and b1.is_zero
    # z^-1 in O(0): the window is empty, the chart-1 side absorbs it
    got2 = _kronecker_reference(c, line_bundle(0), line_bundle(0))
    assert got2 is not None
    b0, b1 = got2
    assert b0.is_zero and not b1.is_zero


def test_coboundary_reassembles_cocycle():
    # whenever solvable, b0 - transport(b1) equals the input exactly
    s = Sampler(45)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=2, bound=1, ops=1, max_deg=1)
        V = line_bundle(s.rng.randint(-2, 1))
        phi = s.laurent(0, 2 - V.degree, max_terms=2, nonzero=True)
        anchor = ConcreteAnchor(V, LaurentMatrix([[phi]]))
        c = obstruction_cocycle(E, anchor)
        got = _cochains(E, anchor)
        assert got is not None  # line-bundle anchors below degree 2 never obstruct
        b0, b1 = got
        T = E.transition
        transported = (T @ b1 @ unit_inv(T)).scalar_mul(
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
    assert construct_connection(split_bundle([1, -1]), tangent_anchor()) is None


def test_construct_low_degree_anchor_always_succeeds():
    cert = construct_connection(line_bundle(1), anchor_line(-3, "z^5 + 1"))
    assert cert is not None
    assert construct_connection(split_bundle([1, -1]), anchor_line(-1, "z^2 + z")) is not None
    assert construct_connection(split_bundle([0, 0]), tangent_anchor()) is not None


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
    anchors = (ConcreteAnchor(split_bundle([0, -1]), phi), ConcreteAnchor(V, phi @ unit_inv(A)))
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


def _bump(M: LaurentMatrix, i: int, j: int, exp: int, c) -> LaurentMatrix:
    """M with c z^exp added to entry (i, j)."""
    rows = [M.row_list(k) for k in range(M.rows)]
    rows[i][j] = rows[i][j] + LaurentPoly.monomial(c, exp)
    return LaurentMatrix(rows)


def _forged_anchor(V: P1Bundle, phi_row: LaurentMatrix) -> ConcreteAnchor:
    """A ConcreteAnchor with its slots set directly, past the global-hom
    check: verify_connection reads V's transition and the row alone, so a
    tampered row need not be a valid anchor."""
    forged = object.__new__(ConcreteAnchor)
    ConcreteAnchor.V.__set__(forged, V)
    ConcreteAnchor.phi_row.__set__(forged, phi_row)
    return forged


def test_overlap_checks_agree_with_the_matrix_identities():
    # verify_connection and the printed cocycle's check decide their
    # identities entry by entry over coefficient maps; on every certificate
    # and cocycle of the solve cases, and on one-coefficient tampers of A0,
    # A1, phi0 and c with Fraction coefficients, they answer as the matrix
    # forms of tests/oracles.py do
    rng = random.Random(83)
    ranks, rejected, tampers, row_tampers = set(), 0, 0, set()
    for E, anchor in _solve_cases():
        T, T_V, phi0 = E.transition, anchor.V.transition, anchor.phi_row
        r, q = E.rank, anchor.V.rank
        I_q, zero = LaurentMatrix.identity(q), LaurentMatrix.zeros(r, r * q)
        c = obstruction_cocycle(E, anchor).overlap_matrix
        assert _overlap_holds(T, I_q, c, zero, -phi0) and cocycle_identity(T, phi0, c)
        cert = construct_connection(E, anchor)
        if cert is None:
            continue
        ranks.add(q)
        assert verify_connection(E, anchor, cert)
        assert connection_identity(T, T_V, phi0, cert.A0, cert.A1)
        for _ in range(3):
            coeff = Fraction(rng.choice((-1, 1)) * (2 * rng.randint(0, 4) + 1), 2 * rng.randint(1, 3))
            i, col, a = rng.randrange(r), rng.randrange(r * q), rng.randrange(q)
            A0 = _bump(cert.A0, i, col, rng.randint(0, 2), coeff)
            A1 = _bump(cert.A1, i, col, -rng.randint(0, 2), coeff)
            phi = _bump(phi0, 0, a, rng.randint(0, 2), coeff)
            for A0_, A1_, phi_ in ((A0, cert.A1, phi0), (cert.A0, A1, phi0), (cert.A0, cert.A1, phi)):
                expected = connection_identity(T, T_V, phi_, A0_, A1_)
                cert_ = ConnectionCert(A0_, A1_)
                assert verify_connection(E, _forged_anchor(anchor.V, phi_), cert_) == expected
                rejected += not expected
                tampers += 1
            bad_c = _bump(c, i, col, rng.randint(-2, 2), coeff)
            assert not _overlap_holds(T, I_q, bad_c, zero, -phi0)
            assert not cocycle_identity(T, phi0, bad_c)
            assert _overlap_holds(T, I_q, c, zero, -phi) == cocycle_identity(T, phi, c)
        if q == 2 and not T_V.entry(0, 1).is_zero:
            # K = T_V mixes the V-blocks, and a tamper of A0 in one row
            # changes that row of the difference only: the check runs row by
            # row, and must refuse a tamper of the first row alone and of
            # the last row alone (here in block 1, at entry (i, i))
            for i in (0, r - 1):
                A0 = _bump(cert.A0, i, r + i, 1, Fraction(3, 2))
                assert not connection_identity(T, T_V, phi0, A0, cert.A1)
                assert not verify_connection(E, anchor, ConnectionCert(A0, cert.A1))
                row_tampers.add((r, i))
    assert ranks == {1, 2}
    assert row_tampers == {(2, 0), (2, 1), (3, 0), (3, 2)}
    # every tamper breaks the identity: T_V (x) T and T are invertible, and
    # no T of the solve cases is constant, so a tamper of phi0 shows in T'
    assert rejected == tampers >= 60


def test_overlap_check_reads_every_coefficient_of_an_entry():
    # a tamper spread over the A0 and the A1 term of one entry, in split
    # frames with a_0 = 1 and v_0 = 0: c at z^0 of A0^(0)_00 adds c z to the
    # left side, and c + d z^(-1) at A1^(0)_00 adds c z + d to the right, so
    # the difference cancels at z but keeps -d at z^0; each half alone
    # leaves a coefficient at z
    E = split_bundle([1, -1])
    anchor = ConcreteAnchor(split_bundle([0, -1]), LaurentMatrix.parse([["z^2 + 1", "z"]]))
    cert = construct_connection(E, anchor)
    T, T_V, phi0 = E.transition, anchor.V.transition, anchor.phi_row
    c, d = Fraction(3, 2), Fraction(-5, 7)
    A0 = _bump(cert.A0, 0, 0, 0, c)
    A1 = _bump(_bump(cert.A1, 0, 0, 0, c), 0, 0, -1, d)
    diff = A0 @ T_V.kron(T) - T @ A1 + (phi0 @ T_V).kron(T.derivative())
    assert diff == _bump(LaurentMatrix.zeros(2, 4), 0, 0, 0, -d)
    assert not connection_identity(T, T_V, phi0, A0, A1)
    assert not verify_connection(E, anchor, ConnectionCert(A0, A1))
    for half in (ConnectionCert(A0, cert.A1), ConnectionCert(cert.A0, _bump(cert.A1, 0, 0, 0, c))):
        assert not verify_connection(E, anchor, half)
    assert verify_connection(E, anchor, cert)


def test_no_certificate_check_reads_the_engine(monkeypatch):
    # each check reads the input transitions, phi0 and the answer alone:
    # with every splitting unavailable, verify_connection still accepts the
    # good certificates and rejects a one-term bump of any one of A0 and A1,
    # and verify_witness accepts the good witness and rejects each tamper
    # that breaks one of its checks
    import algconn.jet_obstruction as jo
    import algconn.p1_engine as pe

    certs = _gauged_certs()
    E, anchor, witness = _witness_case()
    tampered = [_tampered(E, anchor, witness, check) for check in range(5)]

    def no_splitting(F):
        raise AssertionError("a certificate check asked for a splitting")

    monkeypatch.setattr(jo, "birkhoff_split", no_splitting)
    monkeypatch.setattr(pe, "_birkhoff_cached", no_splitting)
    _accepts_and_rejects_bumps(*certs)
    assert verify_witness(E, anchor, *witness)
    assert not any(verify_witness(E, anchor, *bad) for bad in tampered)


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
        verdict = construct_connection(E, tangent_anchor()) is not None
        for _ in range(3):
            A = s.unimodular_z(E.rank, ops=1, max_deg=1)
            B = s.unimodular_w(E.rank, ops=1, max_deg=1)
            G = gauge_transform(E, A, B)
            assert (construct_connection(G, tangent_anchor()) is not None) == verdict


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
        E = P1Bundle(block)
        anchor = tangent_anchor()
        c = obstruction_cocycle(E, anchor).overlap_matrix
        for i in range(E1g.rank):
            for j in range(E1g.rank, E.rank):
                assert c.entry(i, j).is_zero and c.entry(j, i).is_zero
        assert (construct_connection(E, anchor) is not None) == (
            construct_connection(E1g, anchor) is not None
            and construct_connection(E2, anchor) is not None
        )


def test_zero_anchor_total():
    s = Sampler(49)
    for _ in range(10):
        E, _ = s.gauged_p1_bundle(max_rank=3, bound=3, ops=1, max_deg=1)
        V = split_bundle(s.exponents(max_rank=2, bound=3))
        assert construct_connection(E, zero_anchor(V)) is not None


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
                assert (construct_connection(split_bundle(exps), anchor) is not None) == (cert is not None)


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
