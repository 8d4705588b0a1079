"""Jets, the obstruction cocycle, and explicit connection certificates.

Conventions, fixed once and used everywhere below. The tangent bundle is
O(2) with transition -z^2, so a global anchor phi: V -> TX with chart-0 row
phi0 (a 1 x rank(V) matrix over the V-frame) has chart-1 row

    phi1 = -z^(-2) * phi0 * T_V,

and validity of an anchor is exactly that phi0 is polynomial in z and phi1
polynomial in 1/z.

The first jet bundle of E, in the frame (derivative slot, value slot), has
transition

    [[-z^(-2) T,  T'],
     [0,          T ]]

with T' = dT/dz: differentiate s0 = T(z) s1(1/z) and the chain rule
produces exactly these blocks. The anchored jet bundle, the pushout of the
jet sequence along -phi^* with frame (E (x) V*-slot, value slot), comes out
block upper triangular as well:

    [[T (x) T_V^(-T),  T' (x) phi0^T],
     [0,               T            ]]

exhibiting the extension  0 -> E (x) V* -> J -> E -> 0. For the tangent
anchor (phi0 = 1) this is the first jet bundle on the nose.

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

Both answers are certified. A solution gives connection matrices, checked
by verify_connection from the input transitions alone, in the inverse-free
form A0 (T_V (x) T) = T A1 - (phi0 T_V) (x) T'; that A1 comes out polynomial
in 1/z is what certifies b1. A nonzero window coefficient gives a Serre-dual
witness, a global section of End E (x) V (x) K that pairs nonzero with the
cocycle, checked by verify_witness.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidAnchor, SchemaError, ShapeMismatch, naming
from .exact_core import LaurentMatrix, LaurentPoly, _matrix, _parse_entries, _poly, _Value
from .p1_engine import (
    P1Bundle,
    _derived_bundle,
    birkhoff_split,
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
        if not phi_row.is_poly_in_z:
            raise InvalidAnchor("anchor row must be polynomial in z")
        if not self.chart1_row().is_poly_in_w:
            raise InvalidAnchor(
                "anchor is not a global homomorphism into the tangent bundle: "
                "its chart-1 representative has positive exponents"
            )

    def _key(self) -> tuple:
        return (self.V, self.phi_row)

    def chart1_row(self) -> LaurentMatrix:
        """-z^(-2) * phi0 * T_V, the anchor row over the w-chart frames."""
        return (self.phi_row @ self.V.transition).shift(-2).scalar_mul(-1)

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

    def _key(self) -> tuple:
        return (self.overlap_matrix,)

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

    def _key(self) -> tuple:
        return (self.A0, self.A1)


def jet1_transition(E: P1Bundle) -> P1Bundle:
    """First jet bundle, rank 2r, frame (derivative, value): the anchored jet
    bundle of the tangent anchor, with blocks -z^(-2) T, T', 0, T and degree
    2 deg E - 2r."""
    return jetV_transition(E, tangent_anchor())


def jetV_transition(E: P1Bundle, anchor: ConcreteAnchor) -> P1Bundle:
    """Anchored jet bundle, rank r(1 + rank V), frame (E (x) V* slot, value),
    an extension of E by E (x) V*, so its degree is (q + 1) deg E - r deg V."""
    T = E.transition
    q = anchor.V.rank
    tv_dual = birkhoff_split(anchor.V).transition_inverse.transpose()  # T_V^(-T)
    upper_left = T.kron(tv_dual)
    upper_right = T.derivative().kron(anchor.phi_row.transpose())
    top = upper_left.hstack(upper_right)
    bottom = LaurentMatrix.zeros(E.rank, E.rank * q).hstack(T)
    degree = (q + 1) * E.degree - E.rank * anchor.V.degree
    return _derived_bundle(E.rank * (q + 1), top.vstack(bottom), degree)


def obstruction_cocycle(E: P1Bundle, anchor: ConcreteAnchor) -> ObstructionCocycle:
    """The V*-twisted discrepancy cocycle phi0 (x) T' T^(-1), zero for the
    zero anchor without inverting T."""
    if anchor.is_zero:
        return ObstructionCocycle(LaurentMatrix.zeros(E.rank, E.rank * anchor.V.rank))
    disc = E.transition.derivative() @ birkhoff_split(E).transition_inverse
    return ObstructionCocycle(anchor.phi_row.kron(disc))


def _blocks_of(M: LaurentMatrix, r: int) -> list[LaurentMatrix]:
    """The r x r blocks [X^(1) | ... | X^(q)] of a block row, one per V-index."""
    return [M.submatrix(range(r), range(a * r, (a + 1) * r)) for a in range(M.cols // r)]


def split_coboundary(
    c: ObstructionCocycle, E: P1Bundle, V: P1Bundle
) -> tuple[LaurentMatrix, LaurentMatrix] | None:
    """Solve c = b0 - transport(b1) with b0 holomorphic on the z-chart and
    b1 on the w-chart, in End(E) (x) V*.

    With splittings U0 T U1 = diag(z^(a_i)) of E and U0_V T_V U1_V =
    diag(z^(v_a)) of V, the cocycle in split frames is

        y = U0 c (U0_V^(-1) (x) U0^(-1)),

    and entry (i, a*r + j) of y is valued in the line bundle O(d) with
    d = a_i - a_j - v_a. There the equation is scalar: the z-chart side
    covers exponents >= 0, the w-chart side exponents <= d, so it is
    solvable exactly when the coefficients in the window d+1 .. -1 vanish.
    The z-side split cochain beta0, the coefficients of exponent >= 0, comes
    back to the original frames as

        b0 = U0^(-1) beta0 (U0_V (x) U0),

    with U0^(-1) read off the splitting (SplittingData.u0_inverse). This is
    the Kronecker splitting of End(E) (x) V* applied to the block row, so
    that bundle is never built. Given b0, the equation fixes b1: since
    transport(b1) = T b1 (T_V^(-1) (x) T^(-1)),

        b1 = T^(-1) (b0 - c) (T_V (x) T),

    with T^(-1) the splitting's cached transition_inverse. That b1 is
    polynomial in 1/z is checked by verify_connection, not assumed here.

    Returns the cochains, or None when a window coefficient z^e of entry
    (i, a*r + j) is nonzero. Then the class is certified nonzero by a
    Serre-dual witness in H^0(End E (x) V (x) K), taken at the first such
    (a, i, j) in loop order and its lowest window exponent e, so that it
    depends on the cocycle alone: the split-frame section z^(-e-1) of that
    summand, which in the original frames is

        theta = (U0_V^(-1)[:, a])^T (x) U0^(-1)[:, j] U0[i, :] * z^(-e-1),

    which pairs with c to that coefficient. verify_witness checks it without
    the splittings, and a witness failing that check is an internal bug.
    """
    r, q = E.rank, V.rank
    if c.overlap_matrix.shape != (r, r * q):
        raise ShapeMismatch(
            f"cochain shape {c.overlap_matrix.shape} does not match rank {r} "
            f"and anchor rank {q}"
        )
    if c.overlap_matrix.is_zero:
        zero = LaurentMatrix.zeros(r, r * q)
        return zero, zero
    se, sv = birkhoff_split(E), birkhoff_split(V)
    u0_inv = se.u0_inverse(E.transition)
    u0v_inv = sv.u0_inverse(V.transition)
    y = se.U0 @ c.overlap_matrix @ u0v_inv.kron(u0_inv)
    beta0: list[list[LaurentPoly]] = [[] for _ in range(r)]
    for a, v in enumerate(sv.type):
        for i, ai in enumerate(se.type):
            for j, aj in enumerate(se.type):
                d = ai - aj - v
                hol0: dict[int, int | Fraction] = {}
                for e, coeff in sorted(y.entry(i, a * r + j).coeffs.items()):
                    if e >= 0:
                        hol0[e] = coeff
                    elif e > d:
                        theta = _witness(se.U0, u0_inv, u0v_inv, i, j, a, e)
                        if not verify_witness(E, V, c, theta):
                            raise AssertionError(
                                "Serre-dual witness failed verification (internal bug)"
                            )
                        return None
                beta0[i].append(_poly(hol0))
    b0 = u0_inv @ _matrix(tuple(map(tuple, beta0))) @ sv.U0.kron(se.U0)
    b1 = se.transition_inverse @ (b0 - c.overlap_matrix) @ V.transition.kron(E.transition)
    return b0, b1


def _witness(
    U0: LaurentMatrix, u0_inv: LaurentMatrix, u0v_inv: LaurentMatrix, i: int, j: int, a: int, e: int
) -> LaurentMatrix:
    """theta = (U0_V^(-1)[:, a])^T (x) U0^(-1)[:, j] U0[i, :] * z^(-e-1): the
    Serre dual of the window coefficient z^e of split entry (i, a*r + j)."""
    outer = (u0_inv.submatrix(range(U0.rows), [j]) @ U0.submatrix([i], range(U0.cols))).shift(-e - 1)
    return u0v_inv.submatrix(range(u0v_inv.rows), [a]).transpose().kron(outer)


def construct_connection(E: P1Bundle, anchor: ConcreteAnchor) -> ConnectionCert | None:
    """Produce a verified certificate when the obstruction class vanishes.

    The cochains (b0, b1) with cocycle = b0 - transport(b1) give connection
    matrices A0 = -b0, A1 = -b1; the sign is forced by the overlap identity
    that verify_connection checks.
    """
    return _cocycle_and_connection(E, anchor)[1]


def _cocycle_and_connection(
    E: P1Bundle, anchor: ConcreteAnchor
) -> tuple[ObstructionCocycle, ConnectionCert | None]:
    """The obstruction cocycle, computed once, with the certificate
    construct_connection returns for it."""
    cocycle = obstruction_cocycle(E, anchor)
    solved = split_coboundary(cocycle, E, anchor.V)
    if solved is None:
        return cocycle, None
    b0, b1 = solved
    cert = ConnectionCert(A0=-b0, A1=-b1)
    if not verify_connection(E, anchor, cert):
        raise AssertionError("constructed certificate failed verification (internal bug)")
    return cocycle, cert


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
    E: P1Bundle, V: P1Bundle, cocycle: ObstructionCocycle, theta: LaurentMatrix
) -> bool:
    """Exact check that theta certifies the class of the cocycle nonzero.

    theta = [Theta^(1) | ... | Theta^(q)] is the chart-0 representative of a
    section of End E (x) V (x) K, dual to End E (x) V* (x) O under Serre
    duality. The checks, none of which uses a splitting:

    (i) the inverses used below are inverses: T T^(-1) = I, T_V T_V^(-1) = I;
    (ii) chart-0 holomorphy: theta polynomial in z;
    (iii) chart-1 holomorphy: with dz = -z^2 dw, the chart-1 representative
          z^2 * T^(-1) theta (T_V^(-T) (x) T) is polynomial in 1/z;
    (iv) the pairing Res_(z=0) sum_a tr(Theta^(a) C^(a)) is nonzero.

    A coboundary b0 - transport(b1) pairs to zero: its b0 part is
    holomorphic at 0, and its b1 part pairs through the chart-1 form, whose
    exponents are <= -2. So (i)-(iv) prove the cocycle is no coboundary.
    """
    r, q = E.rank, V.rank
    c = cocycle.overlap_matrix
    if c.shape != (r, r * q) or theta.shape != (r, r * q):
        return False
    T, T_V = E.transition, V.transition
    t_inv = birkhoff_split(E).transition_inverse
    tv_inv = birkhoff_split(V).transition_inverse
    if T @ t_inv != LaurentMatrix.identity(r) or T_V @ tv_inv != LaurentMatrix.identity(q):
        return False
    if not theta.is_poly_in_z:
        return False
    if not (t_inv @ theta @ tv_inv.transpose().kron(T)).shift(2).is_poly_in_w:
        return False
    pairing = LaurentPoly.zero()
    for block, c_block in zip(_blocks_of(theta, r), _blocks_of(c, r)):
        pairing = pairing + (block @ c_block).trace()
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
