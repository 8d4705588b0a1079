"""Concrete vector bundles on the projective line.

A bundle of rank r is an invertible r x r Laurent transition matrix T(z) on
the overlap of the two standard charts, with the convention

    s0(z) = T(z) * s1(1/z)

for frame representatives s0 (chart with coordinate z) and s1 (chart with
coordinate w = 1/z). Under this convention the line bundle O(a) has
transition z^a, a global section of O(a) is a polynomial of degree <= a in
the z-chart, and the bundle degree is the exponent of the (monomial)
determinant of T. The tangent bundle is O(2) with transition -z^2: the sign
is the honest chain rule d/dz = -z^2... for w = 1/z, and matters once jets
and anchors enter.

Splitting (the decomposition into line bundles) is computed by a two-sided
reduction: polynomial row operations on the left lower the row-degree sum
until the matrix of leading row coefficients is invertible, at which point
T = diag(z^(h_i)) * N with N invertible over the w-chart ring. The exact
factorization identity U0 * T * U1 = diag(z^(a_i)) is asserted on every
output, so the splitting type is certified independently of the strategy
that found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    InvalidSection,
    LaurentSyntaxError,
    NonConstantTrace,
    NotAUnit,
    SchemaError,
)
from .exact_core import (
    LaurentMatrix,
    LaurentPoly,
    Rat,
    _qnullspace,
    generic_rank,
    laurent_parse,
    monomial_parts,
    unit_inverse,
)
from .formal_bundles import Atom, CurveContext, FormalBundle, HNFiltration, hn_filtration

_inverse = lru_cache(maxsize=None)(unit_inverse)


@dataclass(frozen=True)
class P1Bundle:
    """Rank-r bundle on the projective line via its transition matrix."""

    rank: int
    transition: LaurentMatrix

    def __post_init__(self):
        if not self.transition.is_square:
            raise NotAUnit("transition matrix must be square")
        if self.transition.rows != self.rank:
            raise ValueError(
                f"rank {self.rank} does not match a "
                f"{self.transition.rows}x{self.transition.cols} transition"
            )
        det = self.transition.det()
        if det.is_zero or not det.is_monomial():
            raise NotAUnit(
                f"transition determinant must be a nonzero monomial c*z^k, got {det}"
            )
        _, k = monomial_parts(det)
        object.__setattr__(self, "_degree", k)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


def line_bundle(a: int, coeff=1) -> P1Bundle:
    return P1Bundle(1, LaurentMatrix([[LaurentPoly.monomial(coeff, a)]]))


def trivial_bundle(rank: int) -> P1Bundle:
    return P1Bundle(rank, LaurentMatrix.identity(rank))


def split_bundle(exponents: Sequence[int]) -> P1Bundle:
    """Direct sum of line bundles O(a_i) as a diagonal transition."""
    return P1Bundle(
        len(exponents), LaurentMatrix.diag([LaurentPoly.z(a) for a in exponents])
    )


def tangent_bundle() -> P1Bundle:
    """The tangent bundle: O(2) with transition -z^2 (chain-rule sign)."""
    return line_bundle(2, -1)


@lru_cache(maxsize=None)
def dual_bundle(E: P1Bundle) -> P1Bundle:
    return P1Bundle(E.rank, _inverse(E.transition).transpose())


@lru_cache(maxsize=None)
def tensor_bundle(E: P1Bundle, F: P1Bundle) -> P1Bundle:
    """E (x) F with frames ordered row-major, i.e. kron(T_E, T_F)."""
    return P1Bundle(E.rank * F.rank, E.transition.kron(F.transition))


@lru_cache(maxsize=None)
def hom_bundle(E: P1Bundle, F: P1Bundle) -> P1Bundle:
    """Hom(E, F): a local hom is an r_F x r_E matrix Phi with
    Phi0 = T_F * Phi1 * T_E^(-1); vectorized row-major this is
    kron(T_F, T_E^(-T))."""
    return P1Bundle(
        E.rank * F.rank,
        F.transition.kron(_inverse(E.transition).transpose()),
    )


def end_bundle(E: P1Bundle) -> P1Bundle:
    return hom_bundle(E, E)


@lru_cache(maxsize=None)
def twist(E: P1Bundle, n: int) -> P1Bundle:
    """E (x) O(n): shifts every transition entry by z^n."""
    return P1Bundle(E.rank, E.transition.shift(n))


def gauge_transform(E: P1Bundle, A: LaurentMatrix, B: LaurentMatrix) -> P1Bundle:
    """Change frames: T -> A * T * B. A must be polynomial in z and B in
    1/z, both with constant nonzero determinant, for this to be a frame
    change; the constructor re-validates the unit determinant."""
    return P1Bundle(E.rank, A @ E.transition @ B)


def vec_matrix(M: LaurentMatrix) -> LaurentMatrix:
    """Row-major flattening of a matrix into a column vector."""
    return LaurentMatrix.column([M.entry(i, j) for i in range(M.rows) for j in range(M.cols)])


def unvec_matrix(col: LaurentMatrix, rows: int, cols: int) -> LaurentMatrix:
    if col.cols != 1 or col.rows != rows * cols:
        raise ValueError("column of wrong shape for unvec")
    return LaurentMatrix(
        [[col.entry(i * cols + j, 0) for j in range(cols)] for i in range(rows)]
    )


# -- splitting --------------------------------------------------------------


@dataclass(frozen=True)
class SplittingData:
    """U0 * T * U1 = diag(z^(a_1), ..., z^(a_r)) with a_1 >= ... >= a_r,
    U0 polynomial in z, U1 polynomial in 1/z, both of constant nonzero
    determinant."""

    type: tuple[int, ...]
    U0: LaurentMatrix
    U1: LaurentMatrix

    def diagonal(self) -> LaurentMatrix:
        return LaurentMatrix.diag([LaurentPoly.z(a) for a in self.type])

    def verify(self, E: "P1Bundle") -> bool:
        if list(self.type) != sorted(self.type, reverse=True):
            return False
        if sum(self.type) != E.degree:
            return False
        if not (self.U0.is_poly_in_z and self.U1.is_poly_in_w):
            return False
        for U in (self.U0, self.U1):
            d = U.det()
            if d.is_zero or not d.is_constant:
                return False
        return (self.U0 @ E.transition @ self.U1) == self.diagonal()


def _top_coefficient_data(rows: list[list[LaurentPoly]]) -> tuple[list[int], list[list[Fraction]]]:
    tops: list[int] = []
    H: list[list[Fraction]] = []
    for row in rows:
        exps = [x.max_exp for x in row if not x.is_zero]
        if not exps:
            raise AssertionError("zero row in an invertible transition (internal bug)")
        h = max(exps)
        tops.append(h)
        H.append([x.coeff(h) for x in row])
    return tops, H


def _split_connected(T: LaurentMatrix) -> tuple[LaurentMatrix, LaurentMatrix, list[int]]:
    """Core reduction. Returns (U0, U1, exponents), U0 @ T @ U1 diagonal
    with the given (unsorted) exponents."""
    r = T.rows
    rows = [T.row_list(i) for i in range(r)]
    u0_rows = [LaurentMatrix.identity(r).row_list(i) for i in range(r)]

    tops, H = _top_coefficient_data(rows)
    lows = [min(x.min_exp for x in row if not x.is_zero) for row in rows]
    budget = sum(tops) - sum(lows) + 1

    while True:
        null = _qnullspace([[H[j][i] for j in range(r)] for i in range(r)], r)
        if not null:
            break
        if budget <= 0:
            raise AssertionError("splitting reduction failed to terminate (internal bug)")
        budget -= 1
        kappa = null[0]
        support = [i for i in range(r) if kappa[i] != 0]
        i0 = max(support, key=lambda i: tops[i])
        new_row = [LaurentPoly.zero()] * r
        new_u0 = [LaurentPoly.zero()] * r
        for i in support:
            factor = LaurentPoly.monomial(kappa[i], tops[i0] - tops[i])
            for j in range(r):
                new_row[j] = new_row[j] + factor * rows[i][j]
                new_u0[j] = new_u0[j] + factor * u0_rows[i][j]
        rows[i0] = new_row
        u0_rows[i0] = new_u0
        tops, H = _top_coefficient_data(rows)

    # T_reduced = diag(z^h) * N with N(0) = H invertible and det N constant,
    # hence N is invertible over the w-chart polynomial ring.
    N = LaurentMatrix([[rows[i][j].shift(-tops[i]) for j in range(r)] for i in range(r)])
    U1 = _inverse(N)
    if not U1.is_poly_in_w:
        raise AssertionError("chart-1 factor not polynomial in 1/z (internal bug)")
    return LaurentMatrix(u0_rows), U1, tops


def _blocks(T: LaurentMatrix) -> list[list[int]]:
    """Connected components of the symmetric nonzero pattern; a component is
    an index set on which T is block-diagonal."""
    r = T.rows
    parent = list(range(r))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(r):
        for j in range(r):
            if i != j and (not T.entry(i, j).is_zero or not T.entry(j, i).is_zero):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(r):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


@lru_cache(maxsize=None)
def _birkhoff_cached(E: P1Bundle) -> SplittingData:
    T = E.transition
    r = E.rank
    comps = _blocks(T)
    zero = LaurentPoly.zero()
    scatter0 = [[zero] * r for _ in range(r)]
    scatter1 = [[zero] * r for _ in range(r)]
    exps: list[int] = [0] * r
    for comp in comps:
        U0c, U1c, hc = _split_connected(T.submatrix(comp, comp))
        for p, i in enumerate(comp):
            exps[i] = hc[p]
            for q, j in enumerate(comp):
                scatter0[i][j] = U0c.entry(p, q)
                scatter1[i][j] = U1c.entry(p, q)
    order = sorted(range(r), key=lambda i: -exps[i])
    one = LaurentPoly.one()
    P = LaurentMatrix([[one if j == order[i] else zero for j in range(r)] for i in range(r)])
    U0 = P @ LaurentMatrix(scatter0)
    U1 = LaurentMatrix(scatter1) @ P.transpose()
    data = SplittingData(tuple(exps[i] for i in order), U0, U1)
    if not data.verify(E):
        raise AssertionError("splitting failed verification (internal bug)")
    return data


def birkhoff_split(E: P1Bundle) -> SplittingData:
    """Split E into line bundles: exact factorization U0 * T * U1 = diag."""
    return _birkhoff_cached(E)


def _kron_det(factors: Sequence[LaurentMatrix], order: Sequence[int]) -> LaurentPoly:
    """det of kron(*factors) with its rows or columns permuted by order:
    det kron(A, B, C) = det(A)^(bc) det(B)^(ac) det(C)^(ab), times the sign
    of the permutation."""
    n = len(order)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = order[j]
    d = LaurentPoly.const(-1 if (n - cycles) % 2 else 1)
    for F in factors:
        d = d * F.det() ** (n // F.rows)
    return d


@lru_cache(maxsize=None)
def _twisted_end_splitting(
    E: P1Bundle, se: SplittingData, V: P1Bundle, sv: SplittingData
) -> tuple[SplittingData, LaurentMatrix]:
    """Splitting of End(E) (x) V* in closed form from splittings se of E and
    sv of V, with the inverse of its chart-0 factor.

    Its transition is T_W = kron(T, T^(-T), T_V^(-T)) under the row-major
    (i, j, a) flattening. From U0 T U1 = D follow U0^(-1) = T U1 D^(-1),
    U1^(-1) = D^(-1) U0 T and T^(-1) = U1 D^(-1) U0, and transposing the
    inverse gives U0^(-T) T^(-T) U1^(-T) = D^(-1). Kronecker products of
    splittings split the Kronecker product, so with P the permutation
    sorting the exponents a_i - a_j - v_a,

        U0_W = P kron(U0, U0^(-T), U0_V^(-T)),
        U1_W = kron(U1, U1^(-T), U1_V^(-T)) P^T,
        U0_W^(-1) = kron(U0^(-1), U0^T, U0_V^T) P^T.

    The output passes the checks of SplittingData.verify, with unimodularity
    read off the factor determinants (_kron_det) instead of a determinant
    of the r^2 q square matrices.
    """

    def inverses(T: LaurentMatrix, s: SplittingData):
        d_inv = LaurentMatrix.diag([LaurentPoly.z(-a) for a in s.type])
        return T @ s.U1 @ d_inv, d_inv @ s.U0 @ T, s.U1 @ d_inv @ s.U0

    u0_inv, u1_inv, t_inv = inverses(E.transition, se)
    u0v_inv, u1v_inv, tv_inv = inverses(V.transition, sv)
    exps = [a - b - v for a in se.type for b in se.type for v in sv.type]
    n = len(exps)
    order = sorted(range(n), key=lambda i: -exps[i])
    every = range(n)
    f0 = (se.U0, u0_inv.transpose(), u0v_inv.transpose())
    f1 = (se.U1, u1_inv.transpose(), u1v_inv.transpose())
    U0 = f0[0].kron(f0[1]).kron(f0[2]).submatrix(order, every)
    U1 = f1[0].kron(f1[1]).kron(f1[2]).submatrix(every, order)
    U0_inv = u0_inv.kron(se.U0.transpose()).kron(sv.U0.transpose()).submatrix(every, order)
    data = SplittingData(tuple(exps[i] for i in order), U0, U1)

    if sum(data.type) != -E.rank * E.rank * V.degree:
        raise AssertionError("twisted End splitting has the wrong degree (internal bug)")
    if not (U0.is_poly_in_z and U1.is_poly_in_w):
        raise AssertionError("twisted End splitting factors not chart-holomorphic (internal bug)")
    for factors in (f0, f1):
        d = _kron_det(factors, order)
        if d.is_zero or not d.is_constant:
            raise AssertionError("twisted End splitting factor not unimodular (internal bug)")
    T_W = E.transition.kron(t_inv.transpose()).kron(tv_inv.transpose())
    if U0 @ T_W @ U1 != data.diagonal():
        raise AssertionError("twisted End splitting failed U0 T U1 = diag (internal bug)")
    return data, U0_inv


# -- cohomology and sections ------------------------------------------------


def cohomology_dims(E: P1Bundle) -> tuple[int, int]:
    """(h^0, h^1) from the splitting type: a summand O(a) contributes
    max(0, a+1) to h^0 and max(0, -a-1) to h^1."""
    t = birkhoff_split(E).type
    h0 = sum(max(0, a + 1) for a in t)
    h1 = sum(max(0, -a - 1) for a in t)
    return h0, h1


@dataclass(frozen=True)
class GlobalSection:
    """A global section in its chart-0 representative: a polynomial column
    v(z) such that T^(-1) v is polynomial in 1/z."""

    chart0_rep: LaurentMatrix


def is_global_section(E: P1Bundle, v: LaurentMatrix) -> bool:
    if v.cols != 1 or v.rows != E.rank:
        return False
    if not v.is_poly_in_z:
        return False
    return (_inverse(E.transition) @ v).is_poly_in_w


def global_sections(E: P1Bundle) -> list[GlobalSection]:
    """A basis of H^0(E), of size h^0. In the split frame the sections of
    O(a) are 1, z, ..., z^a; pushing through the frame change U0^(-1) gives
    chart-0 representatives in the original frame."""
    data = birkhoff_split(E)
    u0_inv = _inverse(data.U0)
    out: list[GlobalSection] = []
    for idx, a in enumerate(data.type):
        if a < 0:
            continue
        col = LaurentMatrix.column([u0_inv.entry(i, idx) for i in range(E.rank)])
        for m in range(a + 1):
            out.append(GlobalSection(col.shift(m)))
    return out


def is_global_hom(E: P1Bundle, F: P1Bundle, phi0: LaurentMatrix) -> bool:
    """Is the chart-0 matrix phi0 a global homomorphism E -> F? It must be
    polynomial in z and its chart-1 representative T_F^(-1) phi0 T_E
    polynomial in 1/z."""
    if phi0.shape != (F.rank, E.rank):
        return False
    if not phi0.is_poly_in_z:
        return False
    phi1 = _inverse(F.transition) @ phi0 @ E.transition
    return phi1.is_poly_in_w


def hom_sections(E: P1Bundle, F: P1Bundle) -> list[LaurentMatrix]:
    """Basis of H^0(Hom(E, F)) as chart-0 matrices. In split frames the
    basis elements are z^m E_(j,i) with 0 <= m <= b_j - a_i; conjugating by
    the chart-0 frame changes lands them in the original frames."""
    se = birkhoff_split(E)
    sf = birkhoff_split(F)
    f0_inv = _inverse(sf.U0)
    basis: list[LaurentMatrix] = []
    for j, b in enumerate(sf.type):
        for i, a in enumerate(se.type):
            if b - a < 0:
                continue
            for m in range(b - a + 1):
                mat = [[LaurentPoly.zero()] * E.rank for _ in range(F.rank)]
                mat[j][i] = LaurentPoly.z(m)
                basis.append(f0_inv @ LaurentMatrix(mat) @ se.U0)
    return basis


def riemann_roch_check(E: P1Bundle) -> bool:
    h0, h1 = cohomology_dims(E)
    return h0 - h1 == E.degree + E.rank


def serre_dual_check(E: P1Bundle) -> bool:
    """h^1(E) = h^0(E* (x) O(-2))."""
    _, h1 = cohomology_dims(E)
    h0_dual, _ = cohomology_dims(twist(dual_bundle(E), -2))
    return h1 == h0_dual


def hn_p1(E: P1Bundle) -> HNFiltration:
    """Concrete filtration: group the splitting type by equal exponents in
    decreasing order, matching the formal-layer filtration of the split atoms."""
    t = birkhoff_split(E).type
    atoms = tuple(Atom(1, a, label=f"O({a})") for a in t)
    return hn_filtration(FormalBundle(CurveContext(0), atoms))


# -- endomorphism sections ---------------------------------------------------


def _require_end_section(E: P1Bundle, theta: LaurentMatrix) -> None:
    if theta.shape != (E.rank, E.rank):
        raise InvalidSection(
            f"endomorphism section must be {E.rank}x{E.rank}, got {theta.shape}"
        )
    if not is_global_hom(E, E, theta):
        raise InvalidSection("matrix fails the two-chart holomorphy constraint")


def kernel_filtration(E: P1Bundle, theta: LaurentMatrix) -> tuple[tuple[int, ...], bool]:
    """Generic ranks of ker(theta^k), k = 0..rank, plus nilpotency.

    Nilpotency is read off the traces: trace(theta^j) is a global function,
    hence constant, and theta is nilpotent iff those constants vanish for
    j = 1..rank. Kernel ranks are generic ranks over the Laurent fraction
    field, which is the right notion because the quotients by the kernels
    are torsion-free. theta maps each kernel subbundle into the previous one
    by construction of the powers.
    """
    _require_end_section(E, theta)
    r = E.rank
    nilpotent = True
    power = LaurentMatrix.identity(r)
    ranks = [0]
    for k in range(1, r + 1):
        power = power @ theta
        t = power.trace()
        if not t.is_constant:
            raise AssertionError("non-constant trace of a global section (internal bug)")
        if t.coeff(0) != 0:
            nilpotent = False
        ranks.append(r - generic_rank(power))
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        raise AssertionError("kernel ranks decreased (internal bug)")
    return tuple(ranks), nilpotent


def trace_pair(E: P1Bundle, v: LaurentMatrix, w: LaurentMatrix) -> Rat:
    """trace(v o w) for global endomorphism sections: a global function on a
    compact curve, hence an exact rational constant."""
    _require_end_section(E, v)
    _require_end_section(E, w)
    t = (v @ w).trace()
    if not t.is_constant:
        raise NonConstantTrace(f"trace came out non-constant: {t}")
    return t.coeff(0)


# -- JSON interface ----------------------------------------------------------


def p1bundle_from_json(doc) -> P1Bundle:
    if not isinstance(doc, dict):
        raise SchemaError("bundle document must be a JSON object")
    if "rank" not in doc or "transition" not in doc:
        raise SchemaError("bundle document needs 'rank' and 'transition'")
    rank = doc["rank"]
    rows = doc["transition"]
    if not isinstance(rank, int) or rank < 1:
        raise SchemaError("'rank' must be a positive integer")
    if (
        not isinstance(rows, list)
        or len(rows) != rank
        or any(not isinstance(r, list) or len(r) != rank for r in rows)
    ):
        raise SchemaError("'transition' must be a rank x rank grid of Laurent strings")
    try:
        T = LaurentMatrix([[laurent_parse(s) for s in row] for row in rows])
    except (TypeError, LaurentSyntaxError) as exc:
        raise SchemaError(f"bad transition entry: {exc}") from exc
    return P1Bundle(rank, T)


def p1bundle_to_json(E: P1Bundle) -> dict:
    return {"rank": E.rank, "transition": E.transition.to_strings()}


def splitting_to_json(data: SplittingData) -> dict:
    return {
        "type": list(data.type),
        "U0": data.U0.to_strings(),
        "U1": data.U1.to_strings(),
    }
