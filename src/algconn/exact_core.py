"""Exact rational and Laurent-polynomial arithmetic.

Scalars are exact rationals in one form: a Python int when the value is
integral, and a `fractions.Fraction` (exported as `Rat`) with denominator > 1
otherwise. So an int means integral and a Fraction is never integral; every
coefficient a LaurentPoly stores or returns is in this form. int and
Fraction mix exactly, compare equal and hash alike (hash(3) ==
hash(Fraction(3))), and _q is the one normaliser that turns an integral
Fraction into its int. No operation here ever rounds, and no helper divides
two ints, which would give a float: a reciprocal is Fraction(1, p).

Laurent polynomials in the chart coordinate z are maps exponent -> nonzero
rational; matrices over them carry the transition data of bundles on the
projective line. "Polynomial in w" below always means w = 1/z, i.e. a
Laurent polynomial whose exponents are all <= 0.

No determinant is computed: a transition's determinant exponent is fixed by
the splitting reduction, and inverses of unit matrices come from that
certified splitting, both in p1_engine.

The scalar kernels _qnullspace and _qinverse eliminate without fractions
(cf. Bareiss, Sylvester's identity and multistep integer-preserving Gaussian
elimination, 1968): each row is scaled to integers by the lcm of its
denominators, Gauss-Jordan runs on integer rows, each new row divided by its
content, and each output entry is one division, in canonical form. The RREF
and the inverse are unique, so they are the values a Fraction elimination
gives (tests/oracles.py keeps that one as the reference).

Canonical form. Every LaurentPoly maps int exponents to nonzero scalars in
the form above and stores no zero; every LaurentMatrix is a nonempty
rectangular tuple of tuples of LaurentPoly. Only the public constructors
LaurentPoly(...) and LaurentMatrix(...) validate (the parser, the JSON
readers and the samplers go through them). The arithmetic kernels build
canonical values by construction and wrap them with the trusted _poly and
_matrix, without a re-check; they call _q only where a Fraction result can be
integral (a sum, a scalar or derivative multiple, an accumulated product).
LaurentPoly.__mul__ and LaurentMatrix.__matmul__ share one product kernel,
_accumulate: a matrix entry sums all its k-terms in one coefficient map and
drops the zeros once. Integer coefficients multiply there as native ints.

Zeros cost nothing. The zero polynomial is one shared object, _ZERO: the
public constructor, _poly and LaurentPoly.zero() all return it for an empty
map, so every zero entry of every matrix is that object. An operation with a
zero operand returns an operand as it is, without a new polynomial: p + 0,
0 + p, p - 0 and p.shift(0) are p, and -0, 0 * p and p * 0 are 0. A matrix
product visits only nonzero entries: it is Gustavson's row-by-row sparse
product (Two fast algorithms for sparse matrices: multiplication and
permuted transposition, ACM TOMS 4(3), 1978), which adds a_ik times the
nonzero entries of row k of the right factor into row i, for the nonzero
a_ik only. Transitions and their splittings are mostly zero, so this is
where products spend less. Returning an operand is safe because a
LaurentPoly is immutable: nothing writes to its coefficient map, and its
lazy hash depends on the coefficients only.

Value classes. LaurentPoly and LaurentMatrix, and every record type of the
package built on _Value (CurveContext, Atom, P1Bundle, SplittingData, the
certificates, ...), are plain classes with __slots__: __init__ sets each
field through object.__setattr__ and then validates (LaurentPoly validates
in __new__, so that it can hand out _ZERO), and __setattr__ and __delattr__
raise AttributeError. A _Value compares, hashes and prints as a frozen dataclass
over its fields would: equal to an object of the same class only, with the
tuple _key() of its fields, in declaration order, as the identity. Copying
an immutable value returns it, and pickling rebuilds it through its
constructor (through _poly and _matrix for the two Laurent types). No
dataclass is used: the dataclasses module and the code it generates with
exec are most of the package's import time, which every CLI command pays.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import LaurentSyntaxError, NotSquare, PreconditionFailed, SchemaError

Rat = Fraction


def _q(c):
    """c in canonical scalar form: an integral Fraction becomes its int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class _Value:
    """Base of the immutable record types. A subclass names its fields in
    _fields, in declaration order, keeps them in __slots__, sets them in
    __init__ through object.__setattr__ and returns them from _key()."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class LaurentPoly:
    """Laurent polynomial in z over the rationals.

    Zero coefficients are never stored; the zero polynomial is the empty map,
    and one shared instance, _ZERO. Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs", "_hash")

    def __new__(cls, coeffs: Mapping[int, int | Fraction] | None = None) -> "LaurentPoly":
        clean: dict[int, int | Fraction] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if isinstance(exp, bool) or not isinstance(exp, int):
                    raise TypeError(f"exponent {exp!r} is not an int")
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coefficient {c!r} of z^{exp} is not exact")
                if type(c) is not int:
                    c = _q(Fraction(c))
                if c != 0:
                    clean[int(exp)] = c
        return _poly(clean)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _poly({0: 1})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, c, exp: int) -> "LaurentPoly":
        return cls({exp: c})

    @classmethod
    def z(cls, exp: int = 1) -> "LaurentPoly":
        return cls({exp: 1})

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int | Fraction]:
        return dict(self._coeffs)

    def coeff(self, exp: int) -> int | Fraction:
        return self._coeffs.get(exp, 0)

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
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            elif s := s + c:
                out[e] = _q(s)
            else:
                del out[e]
        return _poly(out)

    def __neg__(self) -> "LaurentPoly":
        if not self._coeffs:
            return self
        return _poly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other._coeffs:
            return self
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            return _poly({e: _q(c * other) for e, c in self._coeffs.items()})
        if not self._coeffs:
            return self
        if not other._coeffs:
            return other
        out: dict[int, int | Fraction] = {}
        _accumulate(out, self._coeffs, other._coeffs)
        return _poly(_nonzero(out))

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        if not k or not self._coeffs:
            return self
        return _poly({e + k: c for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        """Formal d/dz: the exponent-k term k*c*z^(k-1)."""
        return _poly({e - 1: _q(c * e) for e, c in self._coeffs.items() if e != 0})

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
        try:
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
        except ValueError:
            # str() refuses an int longer than the interpreter's digit limit
            raise PreconditionFailed(
                f"the coefficient of z^{e} is too long to print: a numerator or denominator "
                f"exceeds the integer digit limit of {sys.get_int_max_str_digits()} digits"
            ) from None
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def __reduce__(self):
        return _poly, (self._coeffs,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _poly(coeffs: dict[int, int | Fraction]) -> LaurentPoly:
    """Wrap a coefficient map already in canonical form (int exponents,
    nonzero canonical scalars), without a check or a copy. An empty map is
    the shared _ZERO."""
    if not coeffs:
        return _ZERO
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "_coeffs", coeffs)
    object.__setattr__(p, "_hash", None)
    return p


_ZERO = object.__new__(LaurentPoly)  # the zero polynomial, the one LaurentPoly with no terms
object.__setattr__(_ZERO, "_coeffs", {})
object.__setattr__(_ZERO, "_hash", None)


def _accumulate(
    out: dict[int, int | Fraction], a: dict[int, int | Fraction], b: dict[int, int | Fraction]
) -> None:
    """out += a * b on coefficient maps. Sums that cancel stay in out as
    zeros; the caller drops them once, when the map is complete."""
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2


def _nonzero(acc: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
    """The canonical form of a map _accumulate filled: cancelled zeros
    dropped, integral Fractions made ints (an int passes one type check)."""
    return {e: c if type(c) is int else _q(c) for e, c in acc.items() if c}


_TERM_RE = re.compile(
    r"""(?:
        (?P<num>\d+)(?:/(?P<den>\d+))?
        (?:\s*\*\s*z(?:\^(?P<exp1>[+-]?\d+))?)?
        |
        z(?:\^(?P<exp2>[+-]?\d+))?
    )""",
    re.VERBOSE,
)


def _numeral(m: re.Match, group: str) -> int | None:
    """The int a matched numeral group spells, or None when it is absent.
    int() refuses a numeral longer than the interpreter's digit limit
    (sys.get_int_max_str_digits, 4300 by default) with a ValueError; that
    is a syntax error at the numeral's position."""
    s = m.group(group)
    if s is None:
        return None
    try:
        return int(s)
    except ValueError:
        raise LaurentSyntaxError(
            f"numeral of {len(s.lstrip('+-'))} digits is longer than the integer digit limit",
            m.start(group),
        ) from None


def laurent_parse(text: str) -> LaurentPoly:
    """Parse the grammar of signed terms c, c*z, c*z^k, z, z^k.

    Coefficients are integers or integer/integer fractions. Raises
    LaurentSyntaxError with the offending position on malformed input, on
    zero-denominator coefficients, and on numerals longer than int()'s digit
    limit. Round-trips with the canonical printer.
    """
    coeffs: dict[int, int | Fraction] = {}
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
            den = _numeral(m, "den")
            if den == 0:
                raise LaurentSyntaxError("zero-denominator coefficient", pos)
            num = _numeral(m, "num")
            coef = Fraction(num, den) if den else num
            exp = _numeral(m, "exp1")
            if exp is None:
                exp = 1 if "z" in text[pos : m.end()] else 0
        else:
            coef = 1
            exp = _numeral(m, "exp2")
            if exp is None:
                exp = 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
        pos = m.end()
        first = False
    return LaurentPoly(coeffs)


def _parse_entries(texts: list, what: str) -> list[LaurentPoly]:
    """The Laurent strings parsed; SchemaError "bad <what> k: ..." names the
    position k of the first that does not parse."""
    out = []
    for k, s in enumerate(texts):
        if not isinstance(s, str):
            raise SchemaError(f"bad {what} {k}: expected a Laurent string, got {type(s).__name__}")
        try:
            out.append(laurent_parse(s))
        except LaurentSyntaxError as exc:
            raise SchemaError(f"bad {what} {k}: {exc}") from exc
    return out


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

    def __delattr__(self, name):
        raise AttributeError("LaurentMatrix is immutable")

    # -- constructors ------------------------------------------------------

    # identity, zeros and diag build canonical entries, so they check only
    # the shape and, for diag, the r entries given, not r^2 built ones

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls.diag([LaurentPoly.one()] * n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "LaurentMatrix":
        if r < 1 or c < 1:
            raise ValueError("matrix must have positive dimensions")
        return _matrix(((_ZERO,) * c,) * r)

    @classmethod
    def diag(cls, entries: Sequence[LaurentPoly]) -> "LaurentMatrix":
        n = len(entries)
        if n < 1:
            raise ValueError("matrix must have positive dimensions")
        if not all(isinstance(x, LaurentPoly) for x in entries):
            raise TypeError("entries must be LaurentPoly")
        return _matrix(
            tuple(tuple(entries[i] if i == j else _ZERO for j in range(n)) for i in range(n))
        )

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
        return _matrix(
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self._rows, other._rows))
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._require_same_shape(other)
        return _matrix(
            tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(self._rows, other._rows))
        )

    def __neg__(self) -> "LaurentMatrix":
        return self.map_entries(lambda x: -x)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        # Gustavson's row-by-row product: row i of the result is the sum of
        # a_ik * (row k of the right factor) over the nonzero a_ik, and each
        # right row lists only its nonzero entries, so no zero is ever visited
        b_rows = [[(j, x._coeffs) for j, x in enumerate(row) if x._coeffs] for row in other._rows]
        width = len(other._rows[0])
        out = []
        for row in self._rows:
            accs: dict[int, dict[int, int | Fraction]] = {}
            for x, b_row in zip(row, b_rows):
                a = x._coeffs
                if a:
                    for j, b in b_row:
                        acc = accs.get(j)
                        if acc is None:
                            accs[j] = acc = {}
                        _accumulate(acc, a, b)
            out.append(
                tuple(_poly(_nonzero(accs[j])) if j in accs else _ZERO for j in range(width))
            )
        return _matrix(tuple(out))

    def scalar_mul(self, s) -> "LaurentMatrix":
        if isinstance(s, (int, Fraction)):
            s = LaurentPoly.const(s)
        return self.map_entries(lambda x: x * s)

    def shift(self, k: int) -> "LaurentMatrix":
        return self.map_entries(lambda x: x.shift(k))

    def transpose(self) -> "LaurentMatrix":
        return _matrix(tuple(zip(*self._rows)))

    def map_entries(self, f: Callable[[LaurentPoly], LaurentPoly]) -> "LaurentMatrix":
        """Apply f entrywise; f must return LaurentPoly, which is not re-checked."""
        return _matrix(tuple(tuple(f(x) for x in row) for row in self._rows))

    def derivative(self) -> "LaurentMatrix":
        return self.map_entries(lambda x: x.derivative())

    def kron(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Kronecker product; index (i,p),(j,q) flattened row-major. A left
        entry 1 reuses the right factor's row, so I (x) B costs no products."""
        one = LaurentPoly.one()
        out = []
        for row_a in self._rows:
            for row_b in other._rows:
                row: list[LaurentPoly] = []
                for a in row_a:
                    if a.is_zero:
                        row.extend([_ZERO] * len(row_b))
                    elif a == one:
                        row.extend(row_b)
                    else:
                        row.extend(a * b for b in row_b)
                out.append(tuple(row))
        return _matrix(tuple(out))

    def hstack(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return _matrix(tuple(r + s for r, s in zip(self._rows, other._rows)))

    def vstack(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return _matrix(self._rows + other._rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "LaurentMatrix":
        if not row_idx or not col_idx:
            raise ValueError("matrix must have positive dimensions")
        return _matrix(tuple(tuple(self._rows[i][j] for j in col_idx) for i in row_idx))

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

    # -- identity ----------------------------------------------------------

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

    def __reduce__(self):
        return _matrix, (self._rows,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self._rows]


def _matrix(rows: tuple[tuple[LaurentPoly, ...], ...]) -> LaurentMatrix:
    """Wrap a nonempty rectangular tuple of tuples of LaurentPoly, without a
    check or a copy."""
    m = object.__new__(LaurentMatrix)
    object.__setattr__(m, "_rows", rows)
    object.__setattr__(m, "_hash", None)
    return m


# -- exact rational linear algebra helpers ---------------------------------


def _qinverse(a: list[list[int | Fraction]]) -> list[list[int | Fraction]]:
    """A^(-1) by fraction-free Gauss-Jordan on [A | I]: the left block ends
    diagonal, and row i of the inverse is row i of the right block over its
    pivot. Raises ZeroDivisionError when A is singular."""
    n = len(a)
    aug = [_int_row(list(row) + [int(i == j) for j in range(n)]) for i, row in enumerate(a)]
    if len(_int_gauss_jordan(aug, n)) < n:
        raise ZeroDivisionError("singular matrix in _qinverse")
    return [[_ratio(x, row[i]) for x in row[n:]] for i, row in enumerate(aug)]


def _qmatmul(
    a: list[list[int | Fraction]], b: list[list[int | Fraction]]
) -> list[list[int | Fraction]]:
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _qnullspace(a: list[list[int | Fraction]], ncols: int) -> list[list[int | Fraction]]:
    """Basis of the right nullspace of a constraint matrix: one vector per
    non-pivot column, with a 1 there, read off the RREF. With no rows every
    column is free, so the basis is the unit vectors."""
    rows = [_int_row(row) for row in a]
    pivots = _int_gauss_jordan(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = _ratio(-row[fc], row[pc])
        basis.append(v)
    return basis


def _int_row(row: Sequence[int | Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integers, same span."""
    m = 1
    for x in row:
        if type(x) is not int:
            m = lcm(m, x.denominator)
    return [x * m if type(x) is int else x.numerator * (m // x.denominator) for x in row]


def _int_gauss_jordan(rows: list[list[int]], ncols: int) -> list[int]:
    """Gauss-Jordan over the first ncols columns of integer rows, in place;
    returns the pivot columns, pivot row k holding the k-th. A step replaces
    row r by p*row_r - f*row_pivot (p the pivot, f the entry it clears) and
    divides it by its content, so every row stays a nonzero integer multiple
    of the same row of the rational elimination: the same pivots, and the
    RREF is each pivot row over its pivot."""
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        k = len(pivots)
        if k == nrows:
            break
        pivot = next((r for r in range(k, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        prow = rows[k]
        p = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != k:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return pivots


def _ratio(n: int, d: int) -> int | Fraction:
    """n / d in canonical scalar form, d != 0."""
    q, m = divmod(n, d)
    return Fraction(n, d) if m else q
