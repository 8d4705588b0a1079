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
(A0 polynomial in z, A1 in 1/z, each an r x r*rank(V) block row over the
V*-frame) agreeing on the overlap. Eliminating A1 shows existence is the
coboundary problem for the V*-twisted discrepancy cocycle with blocks
phi0_a * T' T^(-1), solved per line-bundle summand of End(E) (x) V*: a
cochain valued in O(d) misses being a coboundary exactly on the coefficient
window z^(d+1) ... z^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidAnchor, LaurentSyntaxError, SchemaError, ShapeMismatch
from .exact_core import LaurentMatrix, LaurentPoly, laurent_parse
from .p1_engine import (
    P1Bundle,
    _derived_bundle,
    _transition_inverse,
    _twisted_end_splitting,
    birkhoff_split,
    p1bundle_from_json,
    p1bundle_to_json,
    tangent_bundle,
)


@dataclass(frozen=True)
class ConcreteAnchor:
    """An anchor map V -> TX on the projective line, as its chart-0 row."""

    V: P1Bundle
    phi_row: LaurentMatrix  # 1 x rank(V)

    def __post_init__(self):
        if self.phi_row.shape != (1, self.V.rank):
            raise InvalidAnchor(
                f"anchor row must be 1x{self.V.rank}, got {self.phi_row.shape}"
            )
        if not self.phi_row.is_poly_in_z:
            raise InvalidAnchor("anchor row must be polynomial in z")
        if not self.chart1_row().is_poly_in_w:
            raise InvalidAnchor(
                "anchor is not a global homomorphism into the tangent bundle: "
                "its chart-1 representative has positive exponents"
            )

    def chart1_row(self) -> LaurentMatrix:
        """-z^(-2) * phi0 * T_V, the anchor row over the w-chart frames."""
        return (self.phi_row @ self.V.transition).shift(-2).scalar_mul(-1)

    @property
    def is_zero(self) -> bool:
        return self.phi_row.is_zero

    def component(self, a: int) -> LaurentPoly:
        return self.phi_row.entry(0, a)


def tangent_anchor() -> ConcreteAnchor:
    """V = TX with the identity anchor (chart-0 and chart-1 rows both 1)."""
    return ConcreteAnchor(tangent_bundle(), LaurentMatrix([[LaurentPoly.one()]]))


def zero_anchor(V: P1Bundle) -> ConcreteAnchor:
    return ConcreteAnchor(V, LaurentMatrix.zeros(1, V.rank))


@dataclass(frozen=True)
class ObstructionCocycle:
    """Chart-0 overlap representative of the obstruction class, as the block
    row [C^(1) | ... | C^(q)] with C^(a) = phi0_a * T' T^(-1)."""

    overlap_matrix: LaurentMatrix  # r x (r * rank V)

    @property
    def is_zero(self) -> bool:
        return self.overlap_matrix.is_zero


@dataclass(frozen=True)
class ConnectionCert:
    """Local connection matrices: chart-0 operator phi^* d + A0 and chart-1
    operator phi^* d + A1, in the same block-row layout as the cocycle."""

    A0: LaurentMatrix
    A1: LaurentMatrix


def jet1_transition(E: P1Bundle) -> P1Bundle:
    """First jet bundle, rank 2r, frame (derivative, value). Its transition
    is block triangular with det = (-1)^r z^(-2r) (det T)^2, so its degree is
    2 deg E - 2r."""
    T = E.transition
    tk = T.shift(-2).scalar_mul(-1)
    top = tk.hstack(T.derivative())
    bottom = LaurentMatrix.zeros(E.rank, E.rank).hstack(T)
    return _derived_bundle(2 * E.rank, top.vstack(bottom), 2 * E.degree - 2 * E.rank)


def jetV_transition(E: P1Bundle, anchor: ConcreteAnchor) -> P1Bundle:
    """Anchored jet bundle, rank r(1 + rank V), frame (E (x) V* slot, value),
    an extension of E by E (x) V*, so its degree is (q + 1) deg E - r deg V."""
    T = E.transition
    q = anchor.V.rank
    tv_dual = _transition_inverse(anchor.V).transpose()  # T_V^(-T)
    upper_left = T.kron(tv_dual)
    upper_right = T.derivative().kron(anchor.phi_row.transpose())
    top = upper_left.hstack(upper_right)
    bottom = LaurentMatrix.zeros(E.rank, E.rank * q).hstack(T)
    degree = (q + 1) * E.degree - E.rank * anchor.V.degree
    return _derived_bundle(E.rank * (q + 1), top.vstack(bottom), degree)


def obstruction_cocycle(E: P1Bundle, anchor: ConcreteAnchor) -> ObstructionCocycle:
    """The V*-twisted discrepancy cocycle: blocks phi0_a * T' T^(-1), zero
    for the zero anchor without inverting T."""
    if anchor.is_zero:
        return ObstructionCocycle(LaurentMatrix.zeros(E.rank, E.rank * anchor.V.rank))
    disc = E.transition.derivative() @ _transition_inverse(E)
    blocks = disc.scalar_mul(anchor.component(0))
    for a in range(1, anchor.V.rank):
        blocks = blocks.hstack(disc.scalar_mul(anchor.component(a)))
    return ObstructionCocycle(blocks)


def _vec_cochain(c: LaurentMatrix, r: int, q: int) -> LaurentMatrix:
    """Flatten the block row [C^(1)|...|C^(q)] to the (i, j, a) row-major
    column matching kron(T, T^(-T), T_V^(-T))."""
    entries = []
    for i in range(r):
        for j in range(r):
            for a in range(q):
                entries.append(c.entry(i, a * r + j))
    return LaurentMatrix.column(entries)


def _unvec_cochain(col: LaurentMatrix, r: int, q: int) -> LaurentMatrix:
    rows = []
    for i in range(r):
        row = [None] * (r * q)
        for j in range(r):
            for a in range(q):
                row[a * r + j] = col.entry((i * r + j) * q + a, 0)
        rows.append(row)
    return LaurentMatrix(rows)


def split_coboundary(
    c: ObstructionCocycle, E: P1Bundle, V: P1Bundle
) -> tuple[LaurentMatrix, LaurentMatrix] | None:
    """Solve c = b0 - transport(b1) with b0 holomorphic on the z-chart and
    b1 on the w-chart, in End(E) (x) V*.

    In a split frame of End(E) (x) V* the equation decouples into scalar
    problems valued in line bundles O(d): the z-chart side covers exponents
    >= 0, the w-chart side exponents <= d, so solvability is exactly the
    vanishing of the coefficients in the window d+1 .. -1. Returns the
    cochains in the original frame, or None when a window coefficient is
    nonzero.
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
    data, u0_inv = _twisted_end_splitting(E, birkhoff_split(E), V, birkhoff_split(V))
    y = data.U0 @ _vec_cochain(c.overlap_matrix, r, q)
    beta0 = []
    beta1 = []
    for idx, d in enumerate(data.type):
        entry = y.entry(idx, 0)
        hol0: dict[int, Fraction] = {}
        hol1: dict[int, Fraction] = {}
        for e, coeff in entry.coeffs.items():
            if e >= 0:
                hol0[e] = coeff
            elif e <= min(-1, d):
                hol1[e - d] = -coeff
            else:
                return None  # nonzero coefficient in the obstruction window
        beta0.append(LaurentPoly(hol0))
        beta1.append(LaurentPoly(hol1))
    b0 = u0_inv @ LaurentMatrix.column(beta0)
    b1 = data.U1 @ LaurentMatrix.column(beta1)
    return _unvec_cochain(b0, r, q), _unvec_cochain(b1, r, q)


def construct_connection(E: P1Bundle, anchor: ConcreteAnchor) -> ConnectionCert | None:
    """Produce a verified certificate when the obstruction class vanishes.

    The cochains (b0, b1) with cocycle = b0 - transport(b1) give connection
    matrices A0 = -b0, A1 = -b1; the sign is forced by the overlap identity
    that verify_connection checks.
    """
    cocycle = obstruction_cocycle(E, anchor)
    solved = split_coboundary(cocycle, E, anchor.V)
    if solved is None:
        return None
    b0, b1 = solved
    cert = ConnectionCert(A0=-b0, A1=-b1)
    if not verify_connection(E, anchor, cert):
        raise AssertionError("constructed certificate failed verification (internal bug)")
    return cert


def _block(M: LaurentMatrix, a: int, r: int) -> LaurentMatrix:
    return M.submatrix(range(r), range(a * r, (a + 1) * r))


def verify_connection(E: P1Bundle, anchor: ConcreteAnchor, cert: ConnectionCert) -> bool:
    """Exact symbolic verification of a certificate.

    (i) chart holomorphy: A0 polynomial in z, A1 in 1/z;
    (ii) overlap agreement: for every V*-index a,

         A0^(a)  =  sum_b (T_V^(-T))_(a,b) * T A1^(b) T^(-1)  -  phi0_a * T' T^(-1),

         which is what "phi^* d + A0 and phi^* d + A1 define the same
         operator on s0 = T s1" unwinds to. It is checked multiplied on the
         right by T, as A0^(a) T = sum_b (T_V^(-T))_(a,b) T A1^(b) - phi0_a T',
         so no inverse of T is needed.

    The Leibniz rule needs no check: d0(f s) - f d0(s) = f' s phi0 holds for
    every A0, since A0 acts linearly over functions.
    """
    r, q = E.rank, anchor.V.rank
    if cert.A0.shape != (r, r * q) or cert.A1.shape != (r, r * q):
        return False
    if not cert.A0.is_poly_in_z or not cert.A1.is_poly_in_w:
        return False
    T = E.transition
    t_prime = T.derivative()
    tv_dual = _transition_inverse(anchor.V).transpose()
    transported = [T @ _block(cert.A1, b, r) for b in range(q)]
    for a in range(q):
        rhs = t_prime.scalar_mul(-anchor.component(a))
        for b in range(q):
            rhs = rhs + transported[b].scalar_mul(tv_dual.entry(a, b))
        if _block(cert.A0, a, r) @ T != rhs:
            return False
    return True


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
    V = p1bundle_from_json(doc["V"])
    raw = doc["phi_row"]
    if not isinstance(raw, list) or len(raw) != V.rank:
        raise SchemaError(f"'phi_row' must be a list of {V.rank} Laurent strings")
    try:
        row = LaurentMatrix([[laurent_parse(s) for s in raw]])
    except (TypeError, LaurentSyntaxError) as exc:
        raise SchemaError(f"bad phi_row entry: {exc}") from exc
    return ConcreteAnchor(V, row)


def anchor_to_json(anchor: ConcreteAnchor) -> dict:
    return {
        "V": p1bundle_to_json(anchor.V),
        "phi_row": [str(anchor.phi_row.entry(0, a)) for a in range(anchor.V.rank)],
    }


def cert_to_json(cert: ConnectionCert) -> dict:
    return {"A0": cert.A0.to_strings(), "A1": cert.A1.to_strings()}
