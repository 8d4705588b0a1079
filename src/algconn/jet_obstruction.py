"""Jets, the obstruction cocycle, and explicit connection certificates.

Conventions, fixed once and used everywhere below. An anchor phi: V -> TX
is given by its chart-0 row phi0, a 1 x rank(V) matrix over the V-frame,
and it is valid exactly when is_global_hom(V, tangent_bundle(), phi0): the
hom algebra of p1_engine owns that test, as it owns Hom(V, E).

The first jet bundle of E, in the frame (derivative slot, value slot), has
transition

    [[-z^(-2) T,  T'],
     [0,          T ]]

with T' = dT/dz: differentiate s0 = T(z) s1(1/z) and the chain rule
produces exactly these blocks. The anchored jet bundle, the pushout of the
jet sequence along -phi^* with frame (Hom(V, E)-slot, value slot), comes out
block upper triangular as well:

    [[T_H,  T' (x) phi0^T],
     [0,    T            ]]

with T_H = T (x) T_V^(-T) the transition of H = Hom(V, E) = E (x) V*, read
off the splitting of V; H itself is never built. It exhibits the extension
0 -> Hom(V, E) -> J -> E -> 0, so deg J = deg H + deg E, a fact about the
bundle: like every bundle, J takes its degree from the splitting type of
the reduction that validates it. For the tangent anchor (phi0 = 1)
this is the first jet bundle on the nose.

A connection is a pair of local operators  phi^* d + A0  and  phi^* d + A1
(A0 polynomial in z, A1 in 1/z) agreeing on the overlap. Each A, like every
cochain of End(E) (x) V* here, is an r x rq block row [X^(1) | ... | X^(q)]
over the V*-frame (r = rank E, q = rank V, entry (i, a*r + j) is entry
(i, j) of block a), and the V-index acts on it through one Kronecker
factor, by the block identity (X (A (x) B))^(a) = sum_b A_ba * X^(b) B.
Eliminating A1 shows existence is the coboundary problem for the
V*-twisted discrepancy cocycle c = phi0 (x) T' T^(-1). It is read in the
split frames U0 T U1 = D = diag(z^(a_i)) of E and U0_V T_V U1_V = D_V =
diag(z^(v_a)) of V, where End(E) (x) V* is the sum of the line bundles
O(a_i - a_j - v_a), without building that bundle: a cochain valued in O(d)
misses being a coboundary exactly on the coefficient window
z^(d+1) ... z^(-1). Since T^(-1) U0^(-1) = U1 D^(-1), the cocycle in split
frames is y = psi (x) M, with psi = phi0 U0_V^(-1) the anchor in V's split
frame (psi_a of degree <= 2 - v_a) and M = U0 T' U1 D^(-1). Differentiating
U0 T U1 = D gives M = D' D^(-1) - U0' U0^(-1) - D U1^(-1) U1' D^(-1): the
middle term is polynomial in z, and the last has exponents <= a_i - a_j - 2
at (i, j). So the one coefficient of y that can fall in a window is
a_i psi_a(0), at z^(-1) of entry (i, a*r + i) with v_a = 2: the Atiyah class
of E pushed along phi^*. The answer is read off integers: no connection
exactly when some v_a = 2 has psi_a(0) != 0 and some a_i != 0.

A "yes" comes from the three terms of M, with no window scan. With
Delta = diag(a_i) and psi = psi(0) + z psi~, D' D^(-1) = z^(-1) Delta is
the split bundle's own connection, and psi (x) z^(-1) Delta = psi~ (x)
Delta + z^(-1) psi(0) (x) Delta shares it between the charts. The U0' term
is the z-chart's frame change, and the U1' term the w-chart's: with
Y = U1^(-1) = D^(-1) U0 T, -U1' U1^(-1) = U1 Y'. In E's frames

    A0 = U0^(-1) [phi0 (x) U0' - (psi~ U0_V) (x) Delta U0]
    A1 = U1 [(z^(-1) psi(0) U0_V T_V) (x) Delta Y + (phi0 T_V) (x) Y'],

which satisfy verify_connection's identity by phi0 = psi U0_V, T U1 =
U0^(-1) D and D Y' = U0' T + U0 T' - z^(-1) Delta U0 T. A0 is polynomial
in z. In A1, Y' has exponents <= -2 and phi0 T_V = -z^2 phi1 (phi1 the
chart-1 row), and the Delta term carries psi_a(0) z^(v_a - 1), as
U0_V T_V = D_V U1_V^(-1): polynomial in 1/z unless v_a = 2 and
psi_a(0) != 0, where a "yes" has Delta = 0. For V = TX this is Atiyah's
construction (Complex analytic connections in fibre bundles, 1957). Two
certificates differ by a section of End(E) (x) V*, so where every
a_i - a_j - v_a < 0 this one is the only one.

A "no" is certified by five vectors of the two splittings, a Serre-dual
rank-one section that pairs to a_i psi_a(0) with the cocycle
(verify_witness), and verify_connection checks every "yes". Both checks
read the input transitions, phi0 and the answer alone, inverse-free, with
no splitting and no cocycle; construct_connection computes no cocycle. The
CLI prints the cocycle, checked as c (I_q (x) T) = phi0 (x) T'
(_cocycle_and_connection). That check and verify_connection's identity go
through one helper, _overlap_holds, which decides X (K (x) T) = T Z - s (x)
T' row by row on exact_core's row kernel _row_sums, by the block identity
above: no Kronecker product, neither side and no difference is built as a
matrix, and T' is read only for s != 0, so the zero certificate of a zero
anchor is checked without one coefficient product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckFailed, InvalidAnchor, SchemaError, naming
from .exact_core import (
    LaurentMatrix,
    LaurentPoly,
    _accumulate,
    _lifted_product,
    _listed,
    _matrix,
    _nonzero,
    _parse_entries,
    _poly,
    _row_sums,
    _Value,
    _ZERO,
)
from .p1_engine import (
    P1Bundle,
    birkhoff_split,
    is_global_hom,
    p1bundle_from_json,
    p1bundle_to_json,
    tangent_bundle,
)


class ConcreteAnchor(_Value):
    """An anchor map V -> TX on the projective line, as its chart-0 row."""

    __slots__ = _fields = ("V", "phi_row")

    def __init__(self, V: P1Bundle, phi_row: LaurentMatrix) -> None:  # phi_row 1 x rank(V)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "phi_row", phi_row)
        if phi_row.shape != (1, V.rank):
            raise InvalidAnchor(f"anchor row must be 1x{V.rank}, got {phi_row.shape}")
        if not is_global_hom(V, tangent_bundle(), phi_row):
            raise InvalidAnchor(
                "anchor is not a global homomorphism into the tangent bundle: its row "
                "must be polynomial in z, and its chart-1 row polynomial in 1/z"
            )

    @property
    def is_zero(self) -> bool:
        return self.phi_row.is_zero


def tangent_anchor() -> ConcreteAnchor:
    """V = TX with the identity anchor (chart-0 and chart-1 rows both 1)."""
    return ConcreteAnchor(tangent_bundle(), LaurentMatrix([[LaurentPoly.one()]]))


def zero_anchor(V: P1Bundle) -> ConcreteAnchor:
    return ConcreteAnchor(V, LaurentMatrix.zeros(1, V.rank))


class ObstructionCocycle(_Value):
    """Chart-0 overlap representative of the obstruction class, the block
    row phi0 (x) T' T^(-1) = [C^(1) | ... | C^(q)], C^(a) = phi0_a * T' T^(-1)."""

    __slots__ = _fields = ("overlap_matrix",)

    def __init__(self, overlap_matrix: LaurentMatrix) -> None:  # r x (r * rank V)
        object.__setattr__(self, "overlap_matrix", overlap_matrix)


class ConnectionCert(_Value):
    """Local connection matrices: chart-0 operator phi^* d + A0 and chart-1
    operator phi^* d + A1, in the same block-row layout as the cocycle."""

    __slots__ = _fields = ("A0", "A1")

    def __init__(self, A0: LaurentMatrix, A1: LaurentMatrix) -> None:
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A1", A1)


def jet1_transition(E: P1Bundle) -> P1Bundle:
    """First jet bundle, rank 2r, frame (derivative, value): the anchored jet
    bundle of the tangent anchor, with blocks -z^(-2) T, T', 0, T. Its
    degree is 2 deg E - 2r."""
    return jetV_transition(E, tangent_anchor())


def jetV_transition(E: P1Bundle, anchor: ConcreteAnchor) -> P1Bundle:
    """Anchored jet bundle, rank r(1 + rank V), frame (Hom(V, E) slot, value):
    the extension of E by H = Hom(V, E) = E (x) V*, with transition
    [[T_H, T' (x) phi0^T], [0, T]] and T_H = T (x) T_V^(-T), the transition
    of hom_bundle(V, E), built from V's splitting without that bundle. J is
    the one bundle built, validated and split; its degree is deg H + deg E."""
    T = E.transition
    T_H = T.kron(birkhoff_split(anchor.V).transition_inverse.transpose())
    top = T_H.hstack(T.derivative().kron(anchor.phi_row.transpose()))
    bottom = LaurentMatrix.zeros(E.rank, T_H.rows).hstack(T)
    return P1Bundle(top.vstack(bottom))


def obstruction_cocycle(E: P1Bundle, anchor: ConcreteAnchor) -> ObstructionCocycle:
    """The V*-twisted discrepancy cocycle phi0 (x) T' T^(-1), with T' T^(-1)
    = (T' U1 D^(-1)) U0 read off E's frames, the bracket on the record's
    kernel _lifted_product; zero for the zero anchor, with no frame read."""
    if anchor.is_zero:
        return ObstructionCocycle(LaurentMatrix.zeros(E.rank, E.rank * anchor.V.rank))
    se = birkhoff_split(E)
    disc = _lifted_product(E.transition.derivative(), se.U1, [-a for a in se.type]) @ se.U0
    return ObstructionCocycle(anchor.phi_row.kron(disc))


def _bracket(
    p: LaurentMatrix, m: LaurentMatrix, M: LaurentMatrix, delta: tuple[int, ...]
) -> LaurentMatrix:
    """The r x rq block row p (x) M' + m (x) Delta M, p and m 1 x q, M r x r
    and Delta = diag(delta): entry (i, a*r + j) is p_a M_ij' + m_a a_i M_ij,
    summed in one _accumulate map per entry, as _overlap_holds sums its
    entries. M' is formed entry by entry and a_i M_ij row by row, and a zero
    factor is skipped: a constant frame costs no derivative term and a
    trivial type no Delta term."""
    r, q = M.rows, p.cols
    p_listed = [(a * r, x._coeffs) for a, x in enumerate(p._rows[0]) if x._coeffs]
    m_listed = [(a * r, x._coeffs) for a, x in enumerate(m._rows[0]) if x._coeffs]
    out = []
    for row, ai in zip(M._rows, delta):
        accs: dict[int, dict[int, int | Fraction]] = {}
        for j, x in enumerate(row):
            if not (x := x._coeffs):
                continue
            if p_listed and (dx := {e - 1: e * c for e, c in x.items() if e}):
                for ar, pa in p_listed:
                    _accumulate(accs.setdefault(ar + j, {}), pa, dx)
            if ai and m_listed:
                ax = {e: ai * c for e, c in x.items()}
                for ar, ma in m_listed:
                    _accumulate(accs.setdefault(ar + j, {}), ma, ax)
        new = [_ZERO] * (r * q)
        for col, acc in accs.items():
            new[col] = _poly(_nonzero(acc))
        out.append(tuple(new))
    return _matrix(tuple(out))


def construct_connection(E: P1Bundle, anchor: ConcreteAnchor) -> ConnectionCert | None:
    """A verified certificate when the obstruction class vanishes, else None
    with a verified witness, decided by the integer rule of the module
    docstring with no cocycle and no inverse but the records' held U0^(-1)
    and U1^(-1). A "no" at the first V-index a with v_a = 2 and psi_a(0) !=
    0 and the first i with a_i != 0 is the Serre dual of the window
    coefficient a_i psi_a(0): Theta0 = w0^T (x) u v with u = U0^(-1)[:, i],
    v = U0[i, :] and w0 = U0_V^(-1)[:, a], its chart-1 form read off x =
    U1[:, i] and w1 = U1_V[:, a]; verify_witness checks the five vectors. A
    "yes" is the closed form of the module docstring, each bracket one
    _bracket, with Y = U1^(-1) read off E's record. A failed check of
    either answer is an internal bug."""
    r, q = E.rank, anchor.V.rank
    if anchor.is_zero:
        zero = LaurentMatrix.zeros(r, r * q)
        cert = ConnectionCert(zero, zero)
    else:
        se, sv = birkhoff_split(E), birkhoff_split(anchor.V)
        psi = anchor.phi_row @ sv.u0_inverse
        a = next((a for a, v in enumerate(sv.type) if v == 2 and psi.entry(0, a).coeff(0)), None)
        i = next((i for i, ai in enumerate(se.type) if ai != 0), None)
        if a is not None and i is not None:
            witness = (
                se.type[i], sv.type[a], se.u0_inverse.submatrix(range(r), [i]),
                se.U0.submatrix([i], range(r)), se.U1.submatrix(range(r), [i]),
                sv.u0_inverse.submatrix(range(q), [a]), sv.U1.submatrix(range(q), [a]),
            )
            if not verify_witness(E, anchor, *witness):
                raise InternalCheckFailed("Serre-dual witness failed verification (internal bug)")
            return None
        U0, T_V, row = se.U0, anchor.V.transition, psi._rows[0]
        psi_0 = _matrix((tuple([_poly({0: x._coeffs[0]}) if 0 in x._coeffs else _ZERO
                                for x in row]),))
        minus_psi_t = _matrix((tuple([_poly({e - 1: -c for e, c in x._coeffs.items() if e})
                                      for x in row]),))
        Y = se.u1_inverse
        A0 = se.u0_inverse @ _bracket(anchor.phi_row, minus_psi_t @ sv.U0, U0, se.type)
        A1 = se.U1 @ _bracket(anchor.phi_row @ T_V, (psi_0 @ sv.U0 @ T_V).shift(-1), Y, se.type)
        cert = ConnectionCert(A0, A1)
    if not verify_connection(E, anchor, cert):
        raise InternalCheckFailed("constructed certificate failed verification (internal bug)")
    return cert


def _cocycle_and_connection(
    E: P1Bundle, anchor: ConcreteAnchor
) -> tuple[ObstructionCocycle, ConnectionCert | None]:
    """The obstruction cocycle that algconn connect prints, with the answer
    of construct_connection, which reads no cocycle. The cocycle, formed
    from the splitting's frames, is checked whatever the answer, on T and
    phi0 alone: c (I_q (x) T) = phi0 (x) T', or an internal bug is raised."""
    cocycle = obstruction_cocycle(E, anchor)
    r, q = E.rank, anchor.V.rank
    I_q, zero = LaurentMatrix.identity(q), LaurentMatrix.zeros(r, r * q)
    if not _overlap_holds(E.transition, I_q, cocycle.overlap_matrix, zero, -anchor.phi_row):
        raise InternalCheckFailed("obstruction cocycle failed its check (internal bug)")
    return cocycle, construct_connection(E, anchor)


def _overlap_holds(
    T: LaurentMatrix, K: LaurentMatrix, X: LaurentMatrix, Z: LaurentMatrix, s: LaurentMatrix
) -> bool:
    """Does X (K (x) T) = T Z - s (x) T' hold? X and Z are r x rq block
    rows, K is q x q and s is 1 x q. Neither side is built: by the block
    identity, block a of the left side is sum_b K_ba Y^(b), where Y^(b) =
    X^(b) T. The check runs row by row. Row i of T Z, and row i of each
    Y^(b) that some K_ba reads, come from exact_core's _row_sums; each entry
    (i, a*r + j) of T Z - s (x) T' - X (K (x) T) sums its terms in one
    coefficient map with _accumulate. K and T' enter negated, so nothing is
    subtracted, and T' is read only when some s_a != 0. The first row that
    keeps a nonzero coefficient answers False."""
    r = T.rows
    t_listed, z_listed = _listed(T), _listed(Z)
    minus_k = [[(a * r, {e: -c for e, c in k_ba._coeffs.items()})
                for a, k_ba in enumerate(k_row) if k_ba._coeffs] for k_row in K._rows]
    s_listed = [(a * r, x._coeffs) for a, x in enumerate(s._rows[0]) if x._coeffs]
    for t_row, x_row in zip(T._rows, X._rows):
        accs = _row_sums({}, t_row, z_listed)  # row i of T Z
        for b, minus_k_b in enumerate(minus_k):  # -sum_b K_ba Y^(b)
            if minus_k_b:
                for j, y in _row_sums({}, x_row[b * r:(b + 1) * r], t_listed).items():
                    for ar, minus_k_ba in minus_k_b:
                        _accumulate(accs.setdefault(ar + j, {}), minus_k_ba, y)
        if s_listed:  # -s (x) T'
            for j, t in enumerate(t_row):
                if t._coeffs and (minus_tp := {e - 1: -e * c for e, c in t._coeffs.items() if e}):
                    for ar, sa in s_listed:
                        _accumulate(accs.setdefault(ar + j, {}), sa, minus_tp)
        for acc in accs.values():
            if any(acc.values()):
                return False
    return True


def verify_connection(E: P1Bundle, anchor: ConcreteAnchor, cert: ConnectionCert) -> bool:
    """Exact symbolic verification of a certificate.

    (i) chart holomorphy: A0 polynomial in z, A1 in 1/z;
    (ii) overlap agreement:

         A0 (T_V (x) T)  =  T A1  -  (phi0 T_V) (x) T'.

         Block by block, "phi^* d + A0 and phi^* d + A1 define the same
         operator on s0 = T s1" unwinds to
         A0^(a) = sum_b (T_V^(-1))_ba * T A1^(b) T^(-1) - phi0_a * T' T^(-1);
         multiplied on the right by T_V (x) T, an invertible factor, it
         becomes the identity above. So the check reads only the input
         transitions, phi0 and the certificate: no inverse, no splitting.
         It is decided row by row (_overlap_holds), on coefficient maps:
         block a of the left side is sum_b (T_V)_ba * A0^(b) T, so
         T_V (x) T, either side and their difference are never built as
         matrices, T' is read only when phi0 T_V != 0, and the first row
         that does not cancel answers False. The zero anchor's certificate
         (0, 0) passes the same check.

    The Leibniz rule needs no check: d0(f s) - f d0(s) = f' s phi0 holds for
    every A0, since A0 acts linearly over functions.
    """
    r, q = E.rank, anchor.V.rank
    if cert.A0.shape != (r, r * q) or cert.A1.shape != (r, r * q):
        return False
    if not cert.A0.is_poly_in_z or not cert.A1.is_poly_in_w:
        return False
    T_V = anchor.V.transition
    return _overlap_holds(E.transition, T_V, cert.A0, cert.A1, anchor.phi_row @ T_V)


def verify_witness(
    E: P1Bundle, anchor: ConcreteAnchor, a_i: int, v_a: int,
    u: LaurentMatrix, v: LaurentMatrix, x: LaurentMatrix, w0: LaurentMatrix, w1: LaurentMatrix,
) -> bool:
    """Exact check that Theta0 = w0^T (x) u v, a section of End E (x) V (x) K
    (dual to End E (x) V* under Serre duality), certifies the obstruction
    class of the anchor nonzero. u and x are r x 1, v is 1 x r, w0 and w1
    are q x 1. Like verify_connection, the checks read T, T', T_V and phi0
    alone, with no inverse, no splitting and no cocycle:

    (i) u, v and w0 polynomial in z;
    (ii) x, w1 and z^(2 - v_a - a_i) v T polynomial in 1/z;
    (iii) T x = z^(a_i) u;
    (iv) T_V w1 = z^(v_a) w0;
    (v) Res_(z=0) (phi0 w0) (v T' x) z^(-a_i) != 0.

    By (iii) and (iv), T^(-1) u = z^(-a_i) x and T_V^(-1) w0 = z^(-v_a) w1,
    so the chart-1 form of Theta0, z^2 T^(-1) Theta0 (T_V^(-T) (x) T) with
    dz = -z^2 dw, is Theta1 = w1^T (x) x (z^(2 - v_a - a_i) v T). By (i)
    and (ii), Theta0 is polynomial in z and Theta1 in 1/z: a global
    section. Its pairing with the cocycle c = phi0 (x) T' T^(-1) is
    Res sum_b tr(Theta0^(b) C^(b)) = Res (phi0 w0) (v T' T^(-1) u), the
    residue of (v) by (iii). A coboundary b0 - transport(b1) pairs to zero:
    its b0 part is holomorphic at 0, and its b1 part pairs through Theta1,
    whose exponents are <= -2. So (i)-(v) prove the class nonzero, at O(r^2)
    polynomial products.
    """
    r, q = E.rank, anchor.V.rank
    if (u.shape, v.shape, x.shape, w0.shape, w1.shape) != ((r, 1), (1, r), (r, 1), (q, 1), (q, 1)):
        return False
    T = E.transition
    if not (u.is_poly_in_z and v.is_poly_in_z and w0.is_poly_in_z):
        return False
    if not (x.is_poly_in_w and w1.is_poly_in_w and (v @ T).shift(2 - v_a - a_i).is_poly_in_w):
        return False
    if T @ x != u.shift(a_i):
        return False
    if anchor.V.transition @ w1 != w0.shift(v_a):
        return False
    pairing = (anchor.phi_row @ w0).entry(0, 0) * (v @ T.derivative() @ x).entry(0, 0)
    return pairing.coeff(a_i - 1) != 0


# -- JSON interface ----------------------------------------------------------


def anchor_from_json(doc) -> ConcreteAnchor:
    if not isinstance(doc, dict):
        raise SchemaError("anchor document must be a JSON object")
    if "V" not in doc or "phi_row" not in doc:
        raise SchemaError("anchor document needs 'V' and 'phi_row'")
    with naming("V"):
        V = p1bundle_from_json(doc["V"])
    raw = doc["phi_row"]
    if not isinstance(raw, list) or len(raw) != V.rank:
        raise SchemaError(f"'phi_row' must be a list of {V.rank} Laurent strings")
    return ConcreteAnchor(V, LaurentMatrix([_parse_entries(raw, "phi_row entry")]))


def anchor_to_json(anchor: ConcreteAnchor) -> dict:
    return {
        "V": p1bundle_to_json(anchor.V),
        "phi_row": [str(anchor.phi_row.entry(0, a)) for a in range(anchor.V.rank)],
    }


def cert_to_json(cert: ConnectionCert) -> dict:
    return {"A0": cert.A0.to_strings(), "A1": cert.A1.to_strings()}
