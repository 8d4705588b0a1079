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
V*-twisted discrepancy cocycle c = phi0 (x) T' T^(-1). It is solved in the
split frames of E and V, where End(E) (x) V* is the sum of the line bundles
O(a_i - a_j - v_a), without building that bundle: a cochain valued in O(d)
misses being a coboundary exactly on the coefficient window
z^(d+1) ... z^(-1). Only the z-side cochain b0 is read off the split frames;
the w-side one follows from the equation c = b0 - transport(b1) itself,

    b1 = T^(-1) (b0 - c) (T_V (x) T).

The solve returns the connection matrices A0 = -b0 and A1 = -b1 themselves,
A1 = T^(-1) (c + A0) (T_V (x) T), so no matrix is negated on the way to a
certificate. A nonzero class returns a Serre-dual witness instead, a global
section of End E (x) V (x) K that pairs nonzero with the cocycle, as its two
chart forms (Theta0, Theta1) read off the split frames.

Both answers are checked by one rule, in one place (_cocycle_and_connection):
from the input transitions, phi0, the cocycle and the answer, in inverse-free
form, with no splitting. verify_connection checks A0 (T_V (x) T) = T A1 -
(phi0 T_V) (x) T' (A1 polynomial in 1/z certifies b1); verify_witness checks
T Theta1 (T_V^T (x) I_r) = z^2 Theta0 (I_q (x) T) and the pairing, against
a cocycle checked as c (I_q (x) T) = phi0 (x) T'.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidAnchor, SchemaError, ShapeMismatch, naming
from .exact_core import LaurentMatrix, LaurentPoly, _matrix, _parse_entries, _poly, _Value
from .p1_engine import (
    P1Bundle,
    SplittingData,
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

    @property
    def is_zero(self) -> bool:
        return self.overlap_matrix.is_zero


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
    return P1Bundle(T_H.rows + E.rank, top.vstack(bottom))


def obstruction_cocycle(E: P1Bundle, anchor: ConcreteAnchor) -> ObstructionCocycle:
    """The V*-twisted discrepancy cocycle phi0 (x) T' T^(-1), zero for the
    zero anchor without inverting T."""
    if anchor.is_zero:
        return ObstructionCocycle(LaurentMatrix.zeros(E.rank, E.rank * anchor.V.rank))
    disc = E.transition.derivative() @ birkhoff_split(E).transition_inverse
    return ObstructionCocycle(anchor.phi_row.kron(disc))


def _connection(
    c: ObstructionCocycle, E: P1Bundle, V: P1Bundle
) -> ConnectionCert | tuple[LaurentMatrix, LaurentMatrix]:
    """Solve c = b0 - transport(b1), with b0 holomorphic on the z-chart and
    b1 on the w-chart, in End(E) (x) V*, for any cochain c of the right
    shape: the connection matrices A0 = -b0 and A1 = -b1 when such cochains
    exist, else a Serre-dual witness pair (Theta0, Theta1). Nothing here is
    checked; _cocycle_and_connection checks either answer.

    With splittings U0 T U1 = diag(z^(a_i)) of E and U0_V T_V U1_V =
    diag(z^(v_a)) of V, the cocycle in split frames is

        y = U0 c (U0_V^(-1) (x) U0^(-1)),

    and entry (i, a*r + j) of y is valued in the line bundle O(d) with
    d = a_i - a_j - v_a. There the equation is scalar: the z-chart side
    covers exponents >= 0, the w-chart side exponents <= d, so it is
    solvable exactly when the coefficients in the window d+1 .. -1 vanish.
    The z-side split cochain beta0 holds the coefficients of exponent >= 0;
    the scan stores -beta0, so that A0 = -b0 comes back to the original
    frames as

        A0 = U0^(-1) (-beta0) (U0_V (x) U0),

    with U0^(-1) the one each splitting's check computed when it was built
    (SplittingData.u0_inverse). This is the Kronecker splitting of End(E)
    (x) V* applied to the block row, so that bundle is never built. Given
    A0, the equation fixes A1: since transport(b1) = T b1 (T_V^(-1) (x)
    T^(-1)) and b1 = T^(-1) (b0 - c) (T_V (x) T),

        A1 = T^(-1) (c + A0) (T_V (x) T),

    with T^(-1) the splitting's cached transition_inverse; no matrix is
    negated.

    When a window coefficient z^e of entry (i, a*r + j) is nonzero, the
    class is nonzero, and the answer is the Serre dual of that coefficient
    (_witness), taken at the first such (a, i, j) in loop order and its
    lowest window exponent e, so that it depends on the cocycle alone.
    """
    r, q = E.rank, V.rank
    if c.overlap_matrix.shape != (r, r * q):
        raise ShapeMismatch(
            f"cochain shape {c.overlap_matrix.shape} does not match rank {r} "
            f"and anchor rank {q}"
        )
    if c.overlap_matrix.is_zero:
        zero = LaurentMatrix.zeros(r, r * q)
        return ConnectionCert(zero, zero)
    se, sv = birkhoff_split(E), birkhoff_split(V)
    y = se.U0 @ c.overlap_matrix @ sv.u0_inverse.kron(se.u0_inverse)
    minus_beta0: list[list[LaurentPoly]] = [[] for _ in range(r)]
    for a, v in enumerate(sv.type):
        for i, ai in enumerate(se.type):
            y_row = y._rows[i]
            for j, aj in enumerate(se.type):
                d = ai - aj - v
                hol0: dict[int, int | Fraction] = {}
                for e, coeff in sorted(y_row[a * r + j]._coeffs.items()):
                    if e >= 0:
                        hol0[e] = -coeff
                    elif e > d:
                        return _witness(se, sv, E.transition, i, j, a, e)
                minus_beta0[i].append(_poly(hol0))
    A0 = se.u0_inverse @ _matrix(tuple(map(tuple, minus_beta0))) @ sv.U0.kron(se.U0)
    A1 = se.transition_inverse @ (c.overlap_matrix + A0) @ V.transition.kron(E.transition)
    return ConnectionCert(A0, A1)


def _witness(
    se: SplittingData, sv: SplittingData, T: LaurentMatrix, i: int, j: int, a: int, e: int
) -> tuple[LaurentMatrix, LaurentMatrix]:
    """The Serre dual of the window coefficient z^e of split entry
    (i, a*r + j), which Theta0 pairs with the cocycle to, in both charts:

        Theta0 = (U0_V^(-1)[:, a])^T (x) U0^(-1)[:, j] U0[i, :] * z^(-e-1),
        Theta1 = (U1_V[:, a])^T (x) U1[:, j] (U0[i, :] T) * z^(1-e-v_a-a_j),

    the chart-1 form z^2 T^(-1) Theta0 (T_V^(-T) (x) T), since U0 T U1 = D
    gives T^(-1) U0^(-1) = U1 D^(-1), and likewise for V."""
    r, q = T.rows, len(sv.type)
    row = se.U0.submatrix([i], range(r))
    outer0 = se.u0_inverse.submatrix(range(r), [j]).shift(-e - 1) @ row
    outer1 = se.U1.submatrix(range(r), [j]).shift(1 - e - sv.type[a] - se.type[j]) @ (row @ T)
    theta0 = sv.u0_inverse.submatrix(range(q), [a]).transpose().kron(outer0)
    theta1 = sv.U1.submatrix(range(q), [a]).transpose().kron(outer1)
    return theta0, theta1


def construct_connection(E: P1Bundle, anchor: ConcreteAnchor) -> ConnectionCert | None:
    """A verified certificate when the obstruction class vanishes, else None
    with a verified witness. The cochains (b0, b1) with cocycle = b0 -
    transport(b1) give A0 = -b0, A1 = -b1, the sign forced by the overlap
    identity that verify_connection checks."""
    return _cocycle_and_connection(E, anchor)[1]


def _cocycle_and_connection(
    E: P1Bundle, anchor: ConcreteAnchor
) -> tuple[ObstructionCocycle, ConnectionCert | None]:
    """The obstruction cocycle, computed once, with the certificate
    construct_connection returns for it, or None. Either answer of
    _connection is checked here, and a failed check is an internal bug. A
    witness certifies the class it pairs with, and the cocycle reads the
    splitting's T^(-1), so the cocycle is checked too, as c (I_q (x) T) =
    phi0 (x) T'; verify_connection never reads the cocycle."""
    cocycle = obstruction_cocycle(E, anchor)
    answer = _connection(cocycle, E, anchor.V)
    if isinstance(answer, ConnectionCert):
        if not verify_connection(E, anchor, answer):
            raise AssertionError("constructed certificate failed verification (internal bug)")
        return cocycle, answer
    T, I_q = E.transition, LaurentMatrix.identity(anchor.V.rank)
    anchors_cocycle = cocycle.overlap_matrix @ I_q.kron(T) == anchor.phi_row.kron(T.derivative())
    if not (anchors_cocycle and verify_witness(E, anchor.V, cocycle, *answer)):
        raise AssertionError("Serre-dual witness failed verification (internal bug)")
    return cocycle, None


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

    The Leibniz rule needs no check: d0(f s) - f d0(s) = f' s phi0 holds for
    every A0, since A0 acts linearly over functions.
    """
    r, q = E.rank, anchor.V.rank
    if cert.A0.shape != (r, r * q) or cert.A1.shape != (r, r * q):
        return False
    if not cert.A0.is_poly_in_z or not cert.A1.is_poly_in_w:
        return False
    T, T_V = E.transition, anchor.V.transition
    return cert.A0 @ T_V.kron(T) == T @ cert.A1 - (anchor.phi_row @ T_V).kron(T.derivative())


def verify_witness(
    E: P1Bundle, V: P1Bundle, cocycle: ObstructionCocycle,
    theta0: LaurentMatrix, theta1: LaurentMatrix,
) -> bool:
    """Exact check that (theta0, theta1) certifies the class of the cocycle
    nonzero. theta0 = [Theta0^(1) | ... | Theta0^(q)] and theta1 are the
    chart-0 and chart-1 forms of a section of End E (x) V (x) K, dual to
    End E (x) V* (x) O under Serre duality. Like verify_connection, the
    checks read no inverse and no splitting:

    (i) chart holomorphy: theta0 polynomial in z, theta1 in 1/z;
    (ii) overlap agreement: with dz = -z^2 dw, theta1 is the chart-1 form
         z^2 T^(-1) theta0 (T_V^(-T) (x) T); multiplied on the left by T
         and on the right by T_V^T (x) I_r, invertible factors, that is

             T theta1 (T_V^T (x) I_r)  =  z^2 theta0 (I_q (x) T);

    (iii) the pairing Res_(z=0) sum_a tr(Theta0^(a) C^(a)) is nonzero, read
          as the one contraction sum_(a,i,j) Theta0^(a)_ij C^(a)_ji.

    A coboundary b0 - transport(b1) pairs to zero: its b0 part is
    holomorphic at 0, and its b1 part pairs through the chart-1 form, whose
    exponents are <= -2. So (i)-(iii) prove the cocycle is no coboundary.
    """
    r, q = E.rank, V.rank
    c = cocycle.overlap_matrix
    if c.shape != (r, r * q) or theta0.shape != (r, r * q) or theta1.shape != (r, r * q):
        return False
    if not theta0.is_poly_in_z or not theta1.is_poly_in_w:
        return False
    T = E.transition
    lhs = T @ theta1 @ V.transition.transpose().kron(LaurentMatrix.identity(r))
    if lhs != (theta0 @ LaurentMatrix.identity(q).kron(T)).shift(2):
        return False
    pairing = sum(
        (theta0.entry(i, a * r + j) * c.entry(j, a * r + i)
         for a in range(q) for i in range(r) for j in range(r)),
        LaurentPoly.zero(),
    )
    return pairing.coeff(-1) != 0


def connection_exists_p1(E: P1Bundle, anchor: ConcreteAnchor) -> bool:
    """Ground truth for genus 0: a connection exists iff the obstruction
    cocycle is a coboundary, in which case a verified certificate exists."""
    return construct_connection(E, anchor) is not None


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
