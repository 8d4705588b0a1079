"""Exact rational and Laurent-polynomial arithmetic.

Scalars are `fractions.Fraction` (exported as `Rat`): always in lowest terms
with positive denominator, and no operation here ever rounds. Laurent
polynomials in the chart coordinate z are maps exponent -> nonzero rational;
matrices over them carry the transition data of bundles on the projective
line. "Polynomial in w" below always means w = 1/z, i.e. a Laurent
polynomial whose exponents are all <= 0.

Determinants, adjugates and generic ranks beyond the triangular and small
cases are computed by exact evaluation/interpolation at integer nodes: a
degree-d polynomial is pinned by d+1 exact values, so nothing here depends
on floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import LaurentSyntaxError, NotAUnit, NotSquare

Rat = Fraction


class LaurentPoly:
    """Laurent polynomial in z over the rationals.

    Zero coefficients are never stored; the zero polynomial is the empty map.
    Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(exp)] = c
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: Fraction(1)})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def monomial(cls, c, exp: int) -> "LaurentPoly":
        return cls({exp: Fraction(c)})

    @classmethod
    def z(cls, exp: int = 1) -> "LaurentPoly":
        return cls({exp: Fraction(1)})

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def coeff(self, exp: int) -> Fraction:
        return self._coeffs.get(exp, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int | None:
        return min(self._coeffs) if self._coeffs else None

    @property
    def max_exp(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    @property
    def is_constant(self) -> bool:
        return not self._coeffs or set(self._coeffs) == {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self.coeff(0)

    def is_monomial(self) -> bool:
        return len(self._coeffs) == 1

    @property
    def is_poly_in_z(self) -> bool:
        """Holomorphic on the z-chart: no negative exponents."""
        return all(e >= 0 for e in self._coeffs)

    @property
    def is_poly_in_w(self) -> bool:
        """Holomorphic on the w = 1/z chart: no positive exponents."""
        return all(e <= 0 for e in self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly(out)

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for LaurentPoly")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        """Formal d/dz: the exponent-k term k*c*z^(k-1)."""
        return LaurentPoly({e - 1: c * e for e, c in self._coeffs.items() if e != 0})

    def evaluate(self, x) -> Fraction:
        if x == 0 and any(e < 0 for e in self._coeffs):
            raise ZeroDivisionError("evaluating a pole at z = 0")
        if isinstance(x, int) and all(e >= 0 for e in self._coeffs):
            total = Fraction(0)
            for e, c in self._coeffs.items():
                total += c * x**e
            return total
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * x**e
        return total

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self._coeffs.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs):  # ascending exponents, reproducibly
            c = self._coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                zpart = "z" if e == 1 else f"z^{e}"
                body = zpart if mag == 1 else f"{mag}*{zpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


_TERM_RE = re.compile(
    r"""(?:
        (?P<num>\d+)(?:/(?P<den>\d+))?
        (?:\s*\*\s*z(?:\^(?P<exp1>[+-]?\d+))?)?
        |
        z(?:\^(?P<exp2>[+-]?\d+))?
    )""",
    re.VERBOSE,
)


def laurent_parse(text: str) -> LaurentPoly:
    """Parse the grammar of signed terms c, c*z, c*z^k, z, z^k.

    Coefficients are integers or integer/integer fractions. Raises
    LaurentSyntaxError with the offending position on malformed input, and on
    zero-denominator coefficients. Round-trips with the canonical printer.
    """
    coeffs: dict[int, Fraction] = {}
    pos = 0
    n = len(text)
    first = True
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            if first:
                raise LaurentSyntaxError("empty input", pos)
            break
        sign = 1
        if text[pos] in "+-":
            if first and text[pos] == "+":
                raise LaurentSyntaxError("leading '+' is not part of the grammar", pos)
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
        elif not first:
            raise LaurentSyntaxError("expected '+' or '-' between terms", pos)
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise LaurentSyntaxError("expected a term", pos)
        if m.group("num") is not None:
            den = m.group("den")
            if den is not None and int(den) == 0:
                raise LaurentSyntaxError("zero-denominator coefficient", pos)
            coef = Fraction(int(m.group("num")), int(den) if den else 1)
            exp_s = m.group("exp1")
            has_z = "z" in text[pos : m.end()]
            exp = int(exp_s) if exp_s is not None else (1 if has_z else 0)
        else:
            coef = Fraction(1)
            exp_s = m.group("exp2")
            exp = int(exp_s) if exp_s is not None else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
        pos = m.end()
        first = False
    return LaurentPoly(coeffs)


def laurent_derivative(p: LaurentPoly) -> LaurentPoly:
    """Formal derivative d/dz, term by term."""
    return p.derivative()


class LaurentMatrix:
    """Immutable rectangular matrix with LaurentPoly entries."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, rows: Sequence[Sequence[LaurentPoly]]):
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        frozen = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, LaurentPoly):
                    raise TypeError("entries must be LaurentPoly")
            frozen.append(tuple(row))
        object.__setattr__(self, "_rows", tuple(frozen))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "LaurentMatrix":
        zero = LaurentPoly.zero()
        return cls([[zero] * c for _ in range(r)])

    @classmethod
    def diag(cls, entries: Sequence[LaurentPoly]) -> "LaurentMatrix":
        zero = LaurentPoly.zero()
        n = len(entries)
        return cls([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def parse(cls, rows: Sequence[Sequence[str]]) -> "LaurentMatrix":
        return cls([[laurent_parse(s) for s in row] for row in rows])

    @classmethod
    def column(cls, entries: Sequence[LaurentPoly]) -> "LaurentMatrix":
        return cls([[e] for e in entries])

    # -- inspection --------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._rows[i][j]

    def row_list(self, i: int) -> list[LaurentPoly]:
        return list(self._rows[i])

    def col_list(self, j: int) -> list[LaurentPoly]:
        return [self._rows[i][j] for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for row in self._rows for x in row)

    @property
    def is_poly_in_z(self) -> bool:
        return all(x.is_poly_in_z for row in self._rows for x in row)

    @property
    def is_poly_in_w(self) -> bool:
        return all(x.is_poly_in_w for row in self._rows for x in row)

    def min_exp(self) -> int | None:
        exps = [x.min_exp for row in self._rows for x in row if not x.is_zero]
        return min(exps) if exps else None

    def max_exp(self) -> int | None:
        exps = [x.max_exp for row in self._rows for x in row if not x.is_zero]
        return max(exps) if exps else None

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._require_same_shape(other)
        return LaurentMatrix(
            [
                [self._rows[i][j] + other._rows[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._require_same_shape(other)
        return LaurentMatrix(
            [
                [self._rows[i][j] - other._rows[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self) -> "LaurentMatrix":
        return self.map_entries(lambda x: -x)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        zero = LaurentPoly.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self._rows[i][k]
                    b = other._rows[k][j]
                    if not a.is_zero and not b.is_zero:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return LaurentMatrix(out)

    def scalar_mul(self, s) -> "LaurentMatrix":
        if isinstance(s, (int, Fraction)):
            s = LaurentPoly.const(s)
        return self.map_entries(lambda x: x * s)

    def shift(self, k: int) -> "LaurentMatrix":
        return self.map_entries(lambda x: x.shift(k))

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            [[self._rows[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def map_entries(self, f: Callable[[LaurentPoly], LaurentPoly]) -> "LaurentMatrix":
        return LaurentMatrix([[f(x) for x in row] for row in self._rows])

    def derivative(self) -> "LaurentMatrix":
        return self.map_entries(lambda x: x.derivative())

    def kron(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Kronecker product; index (i,p),(j,q) flattened row-major."""
        zero = LaurentPoly.zero()
        out = []
        for i in range(self.rows):
            for p in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self._rows[i][j]
                    if a.is_zero:
                        row.extend([zero] * other.cols)
                    else:
                        row.extend(zero if b.is_zero else a * b for b in other._rows[p])
                out.append(row)
        return LaurentMatrix(out)

    def hstack(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return LaurentMatrix(
            [list(self._rows[i]) + list(other._rows[i]) for i in range(self.rows)]
        )

    def vstack(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return LaurentMatrix([list(r) for r in self._rows] + [list(r) for r in other._rows])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "LaurentMatrix":
        return LaurentMatrix([[self._rows[i][j] for j in col_idx] for i in row_idx])

    def trace(self) -> LaurentPoly:
        if not self.is_square:
            raise NotSquare("trace needs a square matrix")
        acc = LaurentPoly.zero()
        for i in range(self.rows):
            acc = acc + self._rows[i][i]
        return acc

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _require_same_shape(self, other: "LaurentMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    # -- exact numerics ----------------------------------------------------

    def eval_at(self, x) -> list[list[Fraction]]:
        return [[e.evaluate(x) for e in row] for row in self._rows]

    def is_lower_triangular(self) -> bool:
        return all(
            self._rows[i][j].is_zero
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_upper_triangular(self) -> bool:
        return all(
            self._rows[i][j].is_zero for i in range(self.rows) for j in range(min(i, self.cols))
        )

    def det(self) -> LaurentPoly:
        """Exact determinant: diagonal product for triangular matrices,
        direct expansion up to 3x3, evaluation/interpolation at integer
        nodes beyond that."""
        if not self.is_square:
            raise NotSquare("determinant needs a square matrix")
        if self.is_lower_triangular() or self.is_upper_triangular():
            d = LaurentPoly.one()
            for i in range(self.rows):
                d = d * self._rows[i][i]
            return d
        m = self._rows
        if self.rows == 2:
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if self.rows == 3:
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
        if any(all(x.is_zero for x in row) for row in self._rows):
            return LaurentPoly.zero()
        if any(all(self._rows[i][j].is_zero for i in range(self.rows)) for j in range(self.cols)):
            return LaurentPoly.zero()
        r = self.rows
        s = max(0, -(self.min_exp() or 0))
        poly = self.shift(s)
        bound = _degree_sum_bound(poly)
        nodes = _nodes(bound + 1, allow_zero=True)
        values = [_qdet(poly.eval_at(x)) for x in nodes]
        d = _interpolate(nodes, values)
        return d.shift(-r * s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._rows)
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self._rows) + "]"

    def __repr__(self) -> str:
        return f"LaurentMatrix({str(self)})"

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self._rows]


def monomial_parts(p: LaurentPoly) -> tuple[Fraction, int]:
    """Split a nonzero monomial c*z^k into (c, k); raises NotAUnit otherwise."""
    if len(p._coeffs) != 1:
        raise NotAUnit(f"not a nonzero monomial: {p}")
    ((exp, c),) = p._coeffs.items()
    return c, exp


def _monomial_inverse(p: LaurentPoly) -> LaurentPoly:
    c, k = monomial_parts(p)
    return LaurentPoly.monomial(1 / c, -k)


def _triangular_inverse(M: LaurentMatrix, upper: bool) -> LaurentMatrix:
    """Back-substitution inverse. In a triangular matrix that is invertible
    over the Laurent ring every diagonal entry is itself a monomial (z is
    prime and units are monomials), so the substitutions stay in the ring."""
    r = M.rows
    diag_inv = [_monomial_inverse(M.entry(i, i)) for i in range(r)]
    zero = LaurentPoly.zero()
    X = [[zero] * r for _ in range(r)]
    for j in range(r):
        X[j][j] = diag_inv[j]
        if upper:
            for i in range(j - 1, -1, -1):
                acc = zero
                for k in range(i + 1, j + 1):
                    if not M.entry(i, k).is_zero and not X[k][j].is_zero:
                        acc = acc + M.entry(i, k) * X[k][j]
                if not acc.is_zero:
                    X[i][j] = -(diag_inv[i] * acc)
        else:
            for i in range(j + 1, r):
                acc = zero
                for k in range(j, i):
                    if not M.entry(i, k).is_zero and not X[k][j].is_zero:
                        acc = acc + M.entry(i, k) * X[k][j]
                if not acc.is_zero:
                    X[i][j] = -(diag_inv[i] * acc)
    return LaurentMatrix(X)


def unit_inverse(M: LaurentMatrix) -> LaurentMatrix:
    """Inverse of a matrix whose determinant is a unit c*z^k of the Laurent ring.

    Triangular matrices invert by back-substitution; otherwise the adjugate
    is interpolated from exact evaluations at nonzero integer nodes. The
    product M @ M^-1 is checked to be the identity before returning.
    """
    if not M.is_square:
        raise NotSquare(f"cannot invert a {M.rows}x{M.cols} matrix")
    r = M.rows
    if M.is_upper_triangular() or M.is_lower_triangular():
        # raises NotAUnit on any non-monomial diagonal entry, which for a
        # triangular matrix is exactly the non-unit-determinant case
        inv = _triangular_inverse(M, upper=M.is_upper_triangular())
        if (M @ inv) != LaurentMatrix.identity(r):
            raise AssertionError("unit_inverse produced a wrong inverse (internal bug)")
        return inv
    d = M.det()
    if d.is_zero:
        raise NotAUnit("determinant is zero")
    c, k = monomial_parts(d)
    unit_inv = LaurentPoly.monomial(1 / c, -k)
    if r <= 3:
        m = M._rows
        if r == 2:
            adj = [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
        else:
            def cof(i: int, j: int) -> LaurentPoly:
                ri = [a for a in range(3) if a != i]
                cj = [b for b in range(3) if b != j]
                minor = m[ri[0]][cj[0]] * m[ri[1]][cj[1]] - m[ri[0]][cj[1]] * m[ri[1]][cj[0]]
                return minor if (i + j) % 2 == 0 else -minor

            adj = [[cof(j, i) for j in range(3)] for i in range(3)]
        inv = LaurentMatrix(adj).map_entries(lambda p: p * unit_inv)
        if (M @ inv) != LaurentMatrix.identity(r):
            raise AssertionError("unit_inverse produced a wrong inverse (internal bug)")
        return inv
    s = max(0, -(M.min_exp() or 0))
    poly = M.shift(s)  # det = c * z^(k + r*s)
    bound = _degree_sum_bound(poly)
    nodes = _nodes(bound + 1, allow_zero=False)
    adj_values: list[list[list[Fraction]]] = []
    for x in nodes:
        a = poly.eval_at(x)
        det_x = c * Fraction(x) ** (k + r * s)
        inv_x = _qinverse(a)
        adj_values.append([[det_x * inv_x[i][j] for j in range(r)] for i in range(r)])
    adj_entries = []
    for i in range(r):
        row = []
        for j in range(r):
            vals = [adj_values[t][i][j] for t in range(len(nodes))]
            row.append(_interpolate(nodes, vals))
        adj_entries.append(row)
    adj_m = LaurentMatrix(adj_entries).shift(-s * (r - 1))
    inv = adj_m.map_entries(lambda p: (p * (1 / c)).shift(-k))
    if (M @ inv) != LaurentMatrix.identity(r):
        raise AssertionError("unit_inverse produced a wrong inverse (internal bug)")
    return inv


def generic_rank(M: LaurentMatrix) -> int:
    """Rank of M over the fraction field Q(z).

    A k x k minor of the row-rescaled polynomial matrix has degree at most
    min(rows, cols) * maxdeg, so sampling that many + 1 distinct nodes is
    enough: the generic rank is the maximum of the ranks at the nodes.
    """
    if M.is_zero:
        return 0
    rescaled = []
    for i in range(M.rows):
        row = M.row_list(i)
        exps = [x.min_exp for x in row if not x.is_zero]
        shift = -min(exps) if exps else 0
        rescaled.append([x.shift(shift) for x in row])
    P = LaurentMatrix(rescaled)
    d = P.max_exp() or 0
    npts = min(M.rows, M.cols) * d + 1
    best = 0
    for x in _nodes(npts, allow_zero=True):
        best = max(best, _qrank(P.eval_at(x)))
    return best


# -- exact rational linear algebra helpers ---------------------------------


def _degree_sum_bound(poly_matrix: LaurentMatrix) -> int:
    """Upper bound for deg det and all minors of a polynomial matrix: the
    smaller of the row-wise and column-wise sums of maximal entry degrees."""
    row_sum = 0
    for i in range(poly_matrix.rows):
        degs = [x.max_exp for x in poly_matrix.row_list(i) if not x.is_zero]
        row_sum += max(degs) if degs else 0
    col_sum = 0
    for j in range(poly_matrix.cols):
        degs = [x.max_exp for x in poly_matrix.col_list(j) if not x.is_zero]
        col_sum += max(degs) if degs else 0
    return min(row_sum, col_sum)


def _nodes(count: int, allow_zero: bool) -> list[int]:
    out: list[int] = []
    if allow_zero:
        out.append(0)
    k = 1
    while len(out) < count:
        out.append(k)
        if len(out) < count:
            out.append(-k)
        k += 1
    return out[:count]


def _qdet(a: list[list[Fraction]]) -> Fraction:
    n = len(a)
    a = [row[:] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                for cc in range(col, n):
                    a[r][cc] -= f * a[col][cc]
    return det


def _qinverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix in _qinverse")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _qrank(a: list[list[Fraction]]) -> int:
    rows = [row[:] for row in a]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = 1 / rows[row][col]
        for r in range(row + 1, nrows):
            if rows[r][col] != 0:
                f = rows[r][col] * inv
                for cc in range(col, ncols):
                    rows[r][cc] -= f * rows[row][cc]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _qnullspace(a: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of a (possibly empty) constraint matrix."""
    if not a:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    rows = [row[:] for row in a]
    nrows = len(rows)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        for r in range(nrows):
            if r != row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def _interpolate(nodes: Sequence[int], values: Sequence[Fraction]) -> LaurentPoly:
    """Newton-form interpolation through exact points, expanded to monomials."""
    n = len(nodes)
    coef = [Fraction(v) for v in values]
    xs = [Fraction(x) for x in nodes]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    result = [Fraction(0)] * n
    basis = [Fraction(0)] * n
    basis[0] = Fraction(1)
    blen = 1
    for i, c in enumerate(coef):
        if c != 0:
            for j in range(blen):
                result[j] += c * basis[j]
        if i < n - 1:
            # basis *= (x - nodes[i])
            new = [Fraction(0)] * n
            for j in range(blen):
                new[j + 1] += basis[j]
                new[j] -= xs[i] * basis[j]
            basis = new
            blen += 1
    return LaurentPoly({i: c for i, c in enumerate(result) if c != 0})
