"""Independent oracles used by the test suite.

These deliberately avoid the library's splitting/inversion machinery so they
can check it: cohomology is computed by brute-force linear algebra on the
two-chart holomorphy constraint (with degree bounds read off the transition
matrix itself via an evaluation determinant), and the filtration oracle
enumerates sub-multisets exhaustively.

The determinant oracle evaluates entries from their coefficient dicts at a
few integer nodes and eliminates over the rationals itself: it uses no
elimination of algconn.exact_core and nothing of algconn.p1_engine. The
Fraction Gauss-Jordan inverse is the reference for the w-chart inverse of
p1_engine, and the Fraction nullspace solves the linear systems of the
h^0 oracle. The Fraction Laurent product is the reference for exact_core's
lifted product, and the Fraction Laurent sum for its sums: LaurentPoly's +
and - and the reduction's row step. split_diagonal
builds the D that a splitting claims, from its type alone, and column a
column vector. monomial_diagonal_splitting reads the record of a monomial
diagonal off in closed form, as coefficient maps: the reference for the
reduction on the transitions of split bundles.
serre_witness, is_global_witness and residue_pairing judge a vector
witness by the rank-one section it names, in both charts, with inverses
they are handed and check, and the trace pairing summed entry by entry.
trace sums a square matrix's diagonal and insists on a constant, which is
what the trace of a product of global endomorphisms must be.
connection_identity and cocycle_identity are the matrix forms of the two
overlap identities that jet_obstruction decides entry by entry: both
sides, the Kronecker products and T' are built as matrices and compared.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from algconn.exact_core import LaurentMatrix, LaurentPoly


def _scalar_det(a: list[list[Fraction]]) -> Fraction:
    """Determinant of a rational matrix by fraction-valued Gaussian elimination."""
    a = [row[:] for row in a]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _det_at(M: LaurentMatrix, x: int) -> Fraction:
    """det M(x), each entry summed from its coefficient dict at z = x."""
    x = Fraction(x)
    return _scalar_det(
        [[sum(c * x**e for e, c in M.entry(i, j).coeffs.items()) for j in range(M.cols)]
         for i in range(M.rows)]
    )


def monomial_det(M: LaurentMatrix) -> tuple[Fraction, int] | None:
    """(c, k) when det M = c*z^k with c != 0, else None; by evaluation only.

    With L the sum of the row-wise lowest exponents and s the sum of the
    row-wise exponent spans, z^(-L) det M is a polynomial of degree <= s. So
    det M = c*z^k needs L <= k <= L + s, and then holds if it holds at the
    s + 1 distinct nodes 1 .. s + 1. Node 1 gives c and node 2 gives k.
    """
    low = span = 0
    for i in range(M.rows):
        exps = [e for j in range(M.cols) for e in M.entry(i, j).coeffs]
        if not exps:
            return None
        low += min(exps)
        span += max(exps) - min(exps)
    c = _det_at(M, 1)
    if c == 0:
        return None
    at2 = _det_at(M, 2)
    k = next((k for k in range(low, low + span + 1) if c * Fraction(2) ** k == at2), None)
    if k is None:
        return None
    if all(_det_at(M, x) == c * Fraction(x) ** k for x in range(3, span + 2)):
        return c, k
    return None


def fraction_laurent_product(
    A: LaurentMatrix, B: LaurentMatrix, shifts
) -> list[list[dict[int, Fraction]]]:
    """A @ B @ diag(z^(s_j)) as coefficient maps, every coefficient a
    Fraction summed over all of its terms, zeros dropped: the reference for
    exact_core._lifted_product."""
    out = []
    for i in range(A.rows):
        row = []
        for j, s in enumerate(shifts):
            acc: dict[int, Fraction] = {}
            for k in range(A.cols):
                for e1, c1 in A.entry(i, k).coeffs.items():
                    for e2, c2 in B.entry(k, j).coeffs.items():
                        e = e1 + e2 + s
                        acc[e] = acc.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
            row.append({e: c for e, c in acc.items() if c != 0})
        out.append(row)
    return out


def fraction_laurent_sum(terms) -> dict[int, Fraction]:
    """The sum of k z^s p over the (p, s, k) in terms, p a coefficient map,
    every coefficient a Fraction summed over all of its terms, zeros dropped:
    the reference for LaurentPoly's + and - and, entry by entry, for
    p1_engine._step."""
    acc: dict[int, Fraction] = {}
    for p, s, k in terms:
        for e, c in p.items():
            acc[e + s] = acc.get(e + s, Fraction(0)) + Fraction(k) * Fraction(c)
    return {e: c for e, c in acc.items() if c != 0}


def fraction_inverse(a: list[list[int | Fraction]]) -> list[list[int | Fraction]]:
    """A^(-1) by Gauss-Jordan on [A | I] in Fraction arithmetic: the
    reference for p1_engine._w_inverse on a constant matrix. Raises
    ZeroDivisionError when A is singular."""
    n = len(a)
    aug = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, aug[col][col])
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_nullspace(a: list[list[int | Fraction]], ncols: int) -> list[list[int | Fraction]]:
    """Right nullspace basis read off the RREF, computed in Fraction
    arithmetic: one vector per non-pivot column, with a 1 there. It solves
    h0_by_linear_solve's constraints, and shows a splitting frame's constant
    term singular where a test needs that."""
    rows = [row[:] for row in a]
    nrows = len(rows)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = Fraction(1, rows[row][col])
        rows[row] = [x * inv for x in rows[row]]
        for r in range(nrows):
            if r != row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def min_exponent(M: LaurentMatrix) -> int | None:
    """The lowest exponent of any entry of M, read off the coefficient
    maps; None for the zero matrix."""
    exps = [e for i in range(M.rows) for x in M.row_list(i) for e in x.coeffs]
    return min(exps) if exps else None


def h0_by_linear_solve(transition: LaurentMatrix, n: int = 0) -> int:
    """dim H^0 of the bundle twisted by O(n), by direct linear algebra.

    A section is a pair (v, u) with v = z^n T u, v polynomial in z and u in
    w = 1/z. Writing u = T^(-1) z^(-n) v bounds the w-degree of u by
    n - min_exponent(T^(-1)), and min_exponent(T^(-1)) >= (r-1) *
    min_exponent(T) - k with k the determinant exponent, read off
    monomial_det. The sections are then the nullspace of "negative
    coefficients of z^n T u vanish".
    """
    r = transition.rows
    unit = monomial_det(transition)
    assert unit is not None, "oracle needs a unit determinant"
    k = unit[1]
    lo_t = min_exponent(transition) or 0
    lo_inv = (r - 1) * min(0, lo_t) - k
    m = n - lo_inv
    if m < 0:
        return 0
    # unknowns: u_{i,t} for i < r, 0 <= t <= m, u_i = sum u_{i,t} z^(-t)
    ncols = r * (m + 1)
    constraints: list[list[Fraction]] = []
    lo_rows = min(0, lo_t) - m + n
    for i in range(r):
        for e in range(lo_rows, 0):
            rowvec = [Fraction(0)] * ncols
            touched = False
            for j in range(r):
                entry = transition.entry(i, j)
                for t in range(m + 1):
                    c = entry.coeff(e - n + t)
                    if c != 0:
                        rowvec[j * (m + 1) + t] += c
                        touched = True
            if touched:
                constraints.append(rowvec)
    return len(fraction_nullspace(constraints, ncols))


def column(entries) -> LaurentMatrix:
    """The column vector with the given LaurentPoly entries."""
    return LaurentMatrix([[e] for e in entries])


def split_diagonal(exponents) -> LaurentMatrix:
    """diag(z^(a_1), ..., z^(a_r)): the right side D of U0 T U1 = D."""
    return LaurentMatrix.diag([LaurentPoly.z(a) for a in exponents])


def monomial_diagonal_splitting(coeffs, exps) -> dict:
    """The splitting record of T = diag(c_i z^(a_i)), read off in closed form
    (T is its own splitting, Grothendieck 1957), as plain coefficient maps:
    the reference for the reduction on a monomial diagonal. The type is the
    a_i sorted descending, ties in row order, by the permutation s. Row k of
    U0 is the unit row of column s(k), and U0^(-1) = T U1 D^(-1) is U0's
    transpose; U1 holds 1/c_s(k) at (s(k), k), and row k of U1^(-1) = D^(-1)
    U0 T holds c_s(k) at column s(k). Each coefficient is canonical: an int
    when it is integral."""
    r = len(exps)
    s = sorted(range(r), key=lambda i: -exps[i])

    def matrix(entries: dict) -> list[list[dict[int, int | Fraction]]]:
        rows = [[{} for _ in range(r)] for _ in range(r)]
        for (i, j), c in entries.items():
            c = Fraction(c)
            rows[i][j] = {0: c.numerator if c.denominator == 1 else c}
        return rows

    return {
        "type": tuple(exps[i] for i in s),
        "U0": matrix({(k, i): 1 for k, i in enumerate(s)}),
        "u0_inverse": matrix({(i, k): 1 for k, i in enumerate(s)}),
        "U1": matrix({(i, k): 1 / Fraction(coeffs[i]) for k, i in enumerate(s)}),
        "u1_inverse": matrix({(k, i): coeffs[i] for k, i in enumerate(s)}),
    }


def serre_witness(u: LaurentMatrix, v: LaurentMatrix, w0: LaurentMatrix) -> LaurentMatrix:
    """Theta0 = w0^T (x) u v: the chart-0 block row [Theta0^(1) | ... |
    Theta0^(q)] of the rank-one section of End E (x) V (x) K that a vector
    witness (u r x 1, v 1 x r, w0 q x 1) names."""
    return w0.transpose().kron(u @ v)


def is_global_witness(
    theta0: LaurentMatrix, T: LaurentMatrix, T_inv: LaurentMatrix,
    T_V: LaurentMatrix, T_V_inv: LaurentMatrix,
) -> bool:
    """Is theta0 a global section: polynomial in z, with its chart-1 form
    z^2 T^(-1) theta0 (T_V^(-T) (x) T) polynomial in 1/z? The inverses are
    checked here, not trusted."""
    assert T @ T_inv == LaurentMatrix.identity(T.rows)
    assert T_V @ T_V_inv == LaurentMatrix.identity(T_V.rows)
    theta1 = (T_inv @ theta0 @ T_V_inv.transpose().kron(T)).shift(2)
    return theta0.is_poly_in_z and theta1.is_poly_in_w


def residue_pairing(theta0: LaurentMatrix, c: LaurentMatrix) -> int | Fraction:
    """Res_(z=0) sum_a tr(Theta0^(a) C^(a)) of two r x rq block rows, as the
    sum over (a, i, j) of Theta0^(a)_ij C^(a)_ji."""
    r = c.rows
    total = LaurentPoly.zero()
    for a in range(c.cols // r):
        for i in range(r):
            for j in range(r):
                total = total + theta0.entry(i, a * r + j) * c.entry(j, a * r + i)
    return total.coeff(-1)


def trace(M: LaurentMatrix) -> int | Fraction:
    """The trace of M, asserted constant: M is a product of global
    endomorphism sections, and their trace is a global function on P^1."""
    assert M.rows == M.cols, M.shape
    total = LaurentPoly.zero()
    for i in range(M.rows):
        total = total + M.entry(i, i)
    assert total.is_zero or set(total.coeffs) == {0}, total
    return total.coeff(0)


def connection_identity(
    T: LaurentMatrix, T_V: LaurentMatrix, phi0: LaurentMatrix, A0: LaurentMatrix, A1: LaurentMatrix
) -> bool:
    """A0 (T_V (x) T) = T A1 - (phi0 T_V) (x) T', verify_connection's overlap
    identity, with both sides built as matrices."""
    return A0 @ T_V.kron(T) == T @ A1 - (phi0 @ T_V).kron(T.derivative())


def cocycle_identity(T: LaurentMatrix, phi0: LaurentMatrix, c: LaurentMatrix) -> bool:
    """c (I_q (x) T) = phi0 (x) T', the check of the cocycle that algconn
    connect prints, with both sides built as matrices."""
    return c @ LaurentMatrix.identity(phi0.cols).kron(T) == phi0.kron(T.derivative())


def hn_first_step_bruteforce(degrees: list[int]) -> tuple[int, ...]:
    """Exhaustive search over sub-multisets of line-bundle atoms for the
    maximal-slope subsheaf of maximal rank; returns its sorted degrees."""
    indices = range(len(degrees))
    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    for size in range(1, len(degrees) + 1):
        for combo in combinations(indices, size):
            degs = tuple(sorted(degrees[i] for i in combo))
            mu = Fraction(sum(degs), size)
            key = (mu, size)
            if best is None or key > (best[0], best[1]):
                best = (mu, size, degs)
    assert best is not None
    return best[2]
