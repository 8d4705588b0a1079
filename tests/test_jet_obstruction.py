"""Jet bundles, the obstruction cocycle, coboundaries, certificates."""

import pytest

from algconn.algebroid_decision import AlgebroidDesc, AnchorDesc, AnchorKind, decide_connection
from algconn.errors import InvalidAnchor, ShapeMismatch
from algconn.exact_core import LaurentMatrix, LaurentPoly, laurent_parse, monomial_parts
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
    zero_anchor,
)
from algconn.p1_engine import (
    P1Bundle,
    SplittingData,
    _twisted_end_splitting,
    birkhoff_split,
    dual_bundle,
    end_bundle,
    gauge_transform,
    hom_sections,
    line_bundle,
    split_bundle,
    tangent_bundle,
    tensor_bundle,
    trivial_bundle,
    unit_inverse,
)
from algconn.sampling import Sampler


def anchor_line(v: int, poly: str) -> ConcreteAnchor:
    return ConcreteAnchor(line_bundle(v), LaurentMatrix.parse([[poly]]))


# -- anchors -----------------------------------------------------------------


def test_anchor_validation():
    anchor_line(-3, "z^5 + 1")  # degree <= 5 allowed
    anchor_line(1, "z")  # degree <= 1
    with pytest.raises(InvalidAnchor):
        anchor_line(1, "z^2")  # too high a degree to land in O(2)
    with pytest.raises(InvalidAnchor):
        anchor_line(-1, "z^-1")  # not holomorphic on the z-chart
    with pytest.raises(InvalidAnchor):
        ConcreteAnchor(line_bundle(0), LaurentMatrix.parse([["1", "0"]]))  # shape


def test_tangent_anchor_is_identity_in_both_charts():
    a = tangent_anchor()
    assert a.phi_row == LaurentMatrix.parse([["1"]])
    assert a.chart1_row() == LaurentMatrix.parse([["1"]])


def test_rank2_anchor_supported():
    V = split_bundle([-1, -2])
    a = ConcreteAnchor(V, LaurentMatrix.parse([["z^3", "1"]]))
    assert not a.is_zero
    assert a.chart1_row().is_poly_in_w


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
    # the formula degrees 2 deg E - 2r and (q+1) deg E - r deg V against the
    # exponent of det T of the jet transitions, V = O(2), O(-1), gauged rank 2
    s = Sampler(63)

    def gauged(exps):
        r = len(exps)
        return gauge_transform(split_bundle(exps), s.unimodular_z(r), s.unimodular_w(r))

    V2 = gauged([1, -2])
    anchors = [
        tangent_anchor(),
        anchor_line(-1, "z^3 + z"),
        ConcreteAnchor(V2, hom_sections(V2, tangent_bundle())[0]),
    ]
    assert [a.V.degree for a in anchors] == [2, -1, -1]
    for exps in ([3], [2, -1], [1, 1, -3]):
        E = gauged(exps)
        J = jet1_transition(E)
        assert J.degree == monomial_parts(J.transition.det())[1] == 2 * E.degree - 2 * E.rank
        for a in anchors:
            J = jetV_transition(E, a)
            assert J.degree == monomial_parts(J.transition.det())[1]


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


def test_cocycle_transport_matches_kron_flattening():
    # blockwise transport sum_b (T_V^-T)_ab T c1^b T^-1 must equal the
    # kron(T, T^-T, T_V^-T) action on the row-major flattening
    from algconn.jet_obstruction import _unvec_cochain, _vec_cochain

    s = Sampler(44)
    E, _ = s.gauged_p1_bundle(max_rank=2, bound=2, ops=1, max_deg=1)
    V = split_bundle([-1, 1])
    r, q = E.rank, V.rank
    c1 = LaurentMatrix(
        [[s.laurent(-1, 1, max_terms=2) for _ in range(r * q)] for _ in range(r)]
    )
    T = E.transition
    t_inv = unit_inverse(T)
    tv_dual = dual_bundle(V).transition
    blocks = []
    for a in range(q):
        acc = LaurentMatrix.zeros(r, r)
        for b in range(q):
            sub = c1.submatrix(range(r), range(b * r, (b + 1) * r))
            acc = acc + (T @ sub @ t_inv).scalar_mul(tv_dual.entry(a, b))
        blocks.append(acc)
    direct = blocks[0]
    for a in range(1, q):
        direct = direct.hstack(blocks[a])
    W = tensor_bundle(end_bundle(E), dual_bundle(V))
    via_kron = _unvec_cochain(W.transition @ _vec_cochain(c1, r, q), r, q)
    assert direct == via_kron


# -- closed-form splitting of End(E) (x) V* ---------------------------------------


def _twisted_end_cases():
    s = Sampler(52)
    for rank in (2, 3):
        for V in (line_bundle(-1), split_bundle([1, -1])):
            E, _ = s.gauged_p1_bundle(max_rank=rank, min_rank=rank, bound=1, ops=2, max_deg=1)
            yield E, V


def test_twisted_end_splitting_matches_direct_split():
    # the old path (build the bundle, Birkhoff-split it) is the reference
    for E, V in _twisted_end_cases():
        data, u0_inv = _twisted_end_splitting(E, birkhoff_split(E), V, birkhoff_split(V))
        W = tensor_bundle(end_bundle(E), dual_bundle(V))
        assert data.verify(W)
        assert data.type == birkhoff_split(W).type
        assert data.U0 @ u0_inv == LaurentMatrix.identity(W.rank)


def test_twisted_end_factors_are_kron_of_factor_splittings():
    for E, V in _twisted_end_cases():
        se, sv = birkhoff_split(E), birkhoff_split(V)
        data, _ = _twisted_end_splitting(E, se, V, sv)
        exps = [a - b - v for a in se.type for b in se.type for v in sv.type]
        order = sorted(range(len(exps)), key=lambda i: -exps[i])
        every = range(len(exps))
        f0 = (se.U0, unit_inverse(se.U0).transpose(), unit_inverse(sv.U0).transpose())
        f1 = (se.U1, unit_inverse(se.U1).transpose(), unit_inverse(sv.U1).transpose())
        assert data.U0 == f0[0].kron(f0[1]).kron(f0[2]).submatrix(order, every)
        assert data.U1 == f1[0].kron(f1[1]).kron(f1[2]).submatrix(every, order)


def test_twisted_end_splitting_rejects_tampered_factors():
    E, _ = next(_twisted_end_cases())
    se = birkhoff_split(E)
    # a U0 row scaled by z, a U1 column by 1/z: still U0 T U1 = diag, but
    # det U0 = z, so U0^(-1) has a pole at z = 0
    scale = LaurentMatrix.diag([LaurentPoly.z(1)] + [LaurentPoly.one()] * (E.rank - 1))
    unscale = LaurentMatrix.diag([LaurentPoly.z(-1)] + [LaurentPoly.one()] * (E.rank - 1))
    bad_e = SplittingData(se.type, scale @ se.U0, se.U1 @ unscale)
    assert bad_e.U0 @ E.transition @ bad_e.U1 == se.diagonal()
    V = line_bundle(-1)
    with pytest.raises(AssertionError, match="unverified"):
        _twisted_end_splitting(E, bad_e, V, birkhoff_split(V))
    # the same on V: U0_V = 1/z is not polynomial in z, although the kron
    # factor U0_V^(-T) = z is
    bad_v = SplittingData((-1,), LaurentMatrix.parse([["z^-1"]]), LaurentMatrix.parse([["z"]]))
    with pytest.raises(AssertionError, match="unverified"):
        _twisted_end_splitting(E, se, V, bad_v)
    # a splitting of V = O(-1) claiming type O(0)
    one = LaurentMatrix.identity(1)
    with pytest.raises(AssertionError, match="unverified"):
        _twisted_end_splitting(E, se, V, SplittingData((0,), one, one))
    # unimodular, chart-holomorphic factors that do not split T
    E2 = split_bundle([1, 0])
    shear = LaurentMatrix.parse([["1", "1"], ["0", "1"]])
    bad_split = SplittingData((1, 0), shear, LaurentMatrix.identity(2))
    with pytest.raises(AssertionError, match="unverified"):
        _twisted_end_splitting(E2, bad_split, V, birkhoff_split(V))


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
    # gauged rank-2 E (T is not central, so T X and X T differ) with a split
    # rank-2 anchor, and the same anchor in a gauged frame of V (A V B has
    # anchor phi0 A^(-1); T_V^(-T) is then not symmetric): a constant, hence
    # chart-holomorphic, bump in any one block of A0 or A1 breaks the overlap
    # identity
    s = Sampler(55)
    E = gauge_transform(split_bundle([1, -1]), s.unimodular_z(2), s.unimodular_w(2))
    phi = LaurentMatrix.parse([["z^2 + 1", "z"]])
    A = s.unimodular_z(2)
    V = gauge_transform(split_bundle([0, -1]), A, s.unimodular_w(2))
    zeros = ["0"] * 4
    for a in (ConcreteAnchor(split_bundle([0, -1]), phi), ConcreteAnchor(V, phi @ unit_inverse(A))):
        cert = construct_connection(E, a)
        assert cert is not None and not cert.A0.is_zero and not cert.A1.is_zero
        assert verify_connection(E, a, cert)
        for bump in (LaurentMatrix.parse([["1", "0", "0", "0"], zeros]),
                     LaurentMatrix.parse([["0", "0", "1", "0"], zeros])):
            assert not verify_connection(E, a, ConnectionCert(A0=cert.A0 + bump, A1=cert.A1))
            assert not verify_connection(E, a, ConnectionCert(A0=cert.A0, A1=cert.A1 + bump))


def test_zero_anchor_does_not_split_e(monkeypatch):
    import algconn.p1_engine as p1

    split = []
    cached = p1._birkhoff_cached
    monkeypatch.setattr(p1, "_birkhoff_cached", lambda F: split.append(F) or cached(F))
    s = Sampler(56)
    E = gauge_transform(split_bundle([2, 0, -1]), s.unimodular_z(3), s.unimodular_w(3))
    anchor = zero_anchor(split_bundle([1, -1]))
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
