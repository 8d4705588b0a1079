"""Exact rational and Laurent-polynomial arithmetic.

Scalars are exact rationals in one form: a Python int when the value is
integral, and a `fractions.Fraction` with denominator > 1 otherwise. So
an int means integral and a Fraction is never integral; every coefficient
a LaurentPoly stores or returns is in this form. int and Fraction mix
exactly, compare equal and hash alike (hash(3) == hash(Fraction(3))), and
_q is the one normaliser that turns an integral Fraction into its int. No
operation here ever rounds, and no helper divides two ints, which would
give a float: a reciprocal is Fraction(1, p).

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
denominators, Gauss-Jordan runs on integer rows up to the first column
without a pivot, each new row divided by its content, and each output entry
is one division, in canonical form. The RREF and the inverse are unique, so
they are the values a Fraction elimination gives (tests/oracles.py keeps
that one as the reference). p1_engine calls them in two places: in the
splitting reduction, _qnullspace gives each step's null vector, the first
vector of the RREF nullspace basis, and _qinverse inverts the constant
matrix its w-chart run ends on; SplittingData's check calls _qnullspace to
see that U1(w = 0) is invertible.

One row kernel, _row_sums, serves the certificate checks and the
splitting's U0^(-1). It is one row of Gustavson's product (see below) over
coefficient maps: the left row times the listed right rows (_listed: each
row's nonzero entries with their columns), summed in one _accumulate map
per output column; the cancelled zeros stay, for the caller to drop or to
test. _lifted_product forms U0^(-1) = T U1 D^(-1) on it: each column of U1
is scaled to integers by the lcm of its denominators, as _int_row scales a
row, and shifted by its -a_j, once; T's rows run on the scaled rows, all in
ints for an integral T, and each output coefficient is divided by its
column's denominator once, so it comes out canonical whatever T holds.
_inverse_holds decides U0 U0^(-1) = I row by row, each row's maps seeded
with -1 at z^0 in the diagonal column: the identity holds when every map
cancels, and neither the product nor I is built. jet_obstruction's
_overlap_holds decides the certificate and cocycle identities row by row
on it too. Every other product (@, T^(-1), the cocycle, a certificate)
runs LaurentMatrix.__matmul__.

Canonical form. Every LaurentPoly maps int exponents to nonzero scalars in
the form above and stores no zero; every LaurentMatrix is a nonempty
rectangular tuple of tuples of LaurentPoly. Only the public constructors
LaurentPoly(...) and LaurentMatrix(...) validate (the parser, the JSON
readers and the samplers go through them). The arithmetic kernels build
canonical values by construction and wrap them with the trusted _poly and
_matrix, without a re-check. A wrap sets its two slots through the slots'
own member-descriptor setters, bound once at import, not through
object.__setattr__, which looks the slot up by name on every call. A
kernel that maps a matrix entry by entry builds each row in one list pass,
tuple([...]), and the rows the same way: a generator expression would make
one generator object per row, a fixed cost on the small matrices here.
LaurentPoly.z and LaurentPoly.monomial wrap int input with _poly too, as it
is canonical already. The kernels call _q only where a Fraction result can
be integral (a sum, a scalar or derivative multiple, a product with a
Fraction in it). LaurentPoly.__mul__, LaurentMatrix.kron and each entry of
LaurentMatrix.__matmul__ that receives one a_ik*b_kj multiply through one
rule, _product. _accumulate, out += a * b on coefficient maps, is the one
loop that sums: a product of two many-term polynomials, a matrix entry
that receives two or more products (in @ and _row_sums), p + q and p - q
(q times {0: 1} or {0: -1} into a copy of p), and the splitting
reduction's row step, p1_engine._combine (row i times {s: k}). Each sum
drops its zeros once, with _nonzero. Integer coefficients multiply as
native ints throughout.

Zeros and ones cost nothing. The zero polynomial is one shared object,
_ZERO: the public constructor, _poly and LaurentPoly.zero() all return it
for an empty map, so every zero entry of every matrix is that object. The
unit polynomial is one shared object too, _ONE: the public constructor,
_poly and LaurentPoly.one() return it for the map {0: 1}, so every entry
equal to 1 is that object, whether an identity's, a parsed "1" or a product
that cancels to one. The frames a splitting keeps (U0, U1 and U0^(-1),
mostly identity entries) thus hold no zeros and no ones of their own, and
_product and kron test a factor 1 by identity. An operation with a zero or
unit operand returns an operand as it is, without a new polynomial: p + 0,
0 + p, p - 0, p.shift(0), p * 1 and 1 * p are p, and -0, 0 * p and p * 0
are 0; so the entries of I @ A, A @ I and 1 (x) A are A's own. A 1 x 1
matrix factor is a scalar, which the kernels read off the operands' shape:
[[1]] @ B and [[1]] (x) B are B itself, A @ [[1]] is A, and a 1 x 1 @ 1 x 1
product is one _product. A one-term factor c*z^e costs one pass: the
product is {e + e2: c * c2}, which cannot cancel, so it needs no zero
filter, and _q runs only on a Fraction product (2 * 1/2 is the int 1). A
matrix product visits only nonzero entries: it is Gustavson's row-by-row
sparse product (Two fast algorithms for sparse matrices: multiplication and
permuted transposition, ACM TOMS 4(3), 1978), which adds a_ik times the
nonzero entries of row k of the right factor into row i, for the nonzero
a_ik only; an output entry that one such product reaches takes it through
_product, with no accumulator. Row k of the right factor is listed (its
nonzero entries with their columns) when a nonzero a_ik first reads it, so
a zero, diagonal or permutation left factor never scans a row it does not
use. Transitions and their splittings are mostly zero and their entries
mostly monomials, so this is where products spend less. Sharing and
returning an operand are safe because both Laurent types are immutable:
nothing writes to a coefficient map or a row tuple, and a lazy hash depends
on the value only. An operand of another type makes +, -, * and @ return
NotImplemented, so Python raises TypeError; the slot is read inside
try/except AttributeError, which costs the common path nothing from Python
3.11 on (an exception costs only when raised).

Parsing. laurent_parse parses one Laurent string and caches nothing. The
JSON readers (p1bundle_from_json, anchor_from_json, algebroid_from_json)
read their entries through _parse_entries, which parses a text of at most
_MEMO_TEXT_MAX (64) characters once, in the memo _parsed, and a longer one
directly. Entry texts repeat, "0" most of all, so most reads are hits.
Equal texts give one shared LaurentPoly, which is safe because it is
immutable, so a transition built from them hashes on cached entry hashes
and compares equal entries by identity. The memo is an lru_cache of 1024
entries, bounded because its keys are outside input: whatever the
documents hold, it keeps at most 1024 texts of at most 64 characters.
lru_cache stores no exception, so a text that does not parse raises afresh
on every read, with the same message and position. It is one of the
package's two bounded memos; the other is p1_engine's splitting memo.

Value classes. Every value type of the package is a plain slotted class on
_Value: the two Laurent types and the record types (CurveContext, Atom,
P1Bundle, SplittingData, the certificates, ...). __init__ sets each field
through object.__setattr__ and then validates (LaurentPoly validates in
__new__, so that it can hand out _ZERO); _Value's __setattr__ and
__delattr__ raise AttributeError, and copying a value returns it. A record
type declares its identity once, in _fields, its field names in declaration
order; _Value builds its _key from them, an operator.attrgetter that returns
the field tuple, and compares, hashes, prints and pickles by that tuple as a
frozen dataclass would: equal to an object of the same class only. The
Laurent types declare no _fields: they compare by their coefficients or
rows, cache their hash, print in Laurent notation and pickle through _poly
and _matrix. No dataclass is used: the dataclasses module and the code it
generates with exec are most of the package's import time, which every CLI
command pays.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter

from .errors import LaurentSyntaxError, PreconditionFailed, SchemaError


def _q(c):
    """c in canonical scalar form: an integral Fraction becomes its int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class _Value:
    """Base of the immutable value types. A record type names its fields
    once, in _fields, in declaration order, keeps them in __slots__ and sets
    them in __init__ through object.__setattr__. When the class is made,
    _Value builds its _key from _fields: _key(x) is the field tuple that
    equality, hashing, repr and pickling read. The two Laurent types declare
    no _fields and define their own identity; they inherit the guards and
    the copying."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields is not None:
            # attrgetter reads the fields at C speed; with one name it returns
            # the value itself, so that one is wrapped in a 1-tuple
            get = attrgetter(*fields)
            cls._key = staticmethod(get if len(fields) > 1 else lambda x: (get(x),))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class LaurentPoly(_Value):
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, c, exp: int) -> "LaurentPoly":
        if type(c) is int and type(exp) is int:  # canonical already: no check
            return _poly({exp: c}) if c else _ZERO
        return cls({exp: c})

    @classmethod
    def z(cls, exp: int = 1) -> "LaurentPoly":
        if type(exp) is int:
            return _poly({exp: 1})
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
    def max_exp(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    @property
    def is_poly_in_z(self) -> bool:
        """Holomorphic on the z-chart: no negative exponents."""
        return not self._coeffs or min(self._coeffs) >= 0

    @property
    def is_poly_in_w(self) -> bool:
        """Holomorphic on the w = 1/z chart: no positive exponents."""
        return not self._coeffs or max(self._coeffs) <= 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        try:
            b = other._coeffs
        except AttributeError:
            return NotImplemented
        if not b:
            return self
        if not self._coeffs:
            return other
        out = dict(self._coeffs)
        _accumulate(out, _ONE_COEFFS, b)
        return _poly(_nonzero(out))

    def __neg__(self) -> "LaurentPoly":
        if not self._coeffs:
            return self
        return _poly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        try:
            b = other._coeffs
        except AttributeError:
            return NotImplemented
        if not b:
            return self
        out = dict(self._coeffs)
        _accumulate(out, {0: -1}, b)
        return _poly(_nonzero(out))

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            return _poly({e: _q(c * other) for e, c in self._coeffs.items()})
        try:
            b = other._coeffs
        except AttributeError:
            return NotImplemented
        if not self._coeffs:
            return self
        if not b:
            return other
        return _product(self, other)

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
            _set_poly_hash(self, h)
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


# The slots' own setters, bound once: the trusted wraps set a slot through
# these, not through object.__setattr__, which looks the name up on each call.
_new = object.__new__
_set_coeffs = LaurentPoly._coeffs.__set__
_set_poly_hash = LaurentPoly._hash.__set__


def _poly(coeffs: dict[int, int | Fraction]) -> LaurentPoly:
    """Wrap a coefficient map already in canonical form (int exponents,
    nonzero canonical scalars), without a check or a copy. An empty map is
    the shared _ZERO, and {0: 1} the shared _ONE."""
    if not coeffs:
        return _ZERO
    if coeffs == _ONE_COEFFS:
        return _ONE
    p = _new(LaurentPoly)
    _set_coeffs(p, coeffs)
    _set_poly_hash(p, None)
    return p


_ZERO = _new(LaurentPoly)  # the zero polynomial, the one LaurentPoly with no terms
_set_coeffs(_ZERO, {})
_set_poly_hash(_ZERO, None)
_ONE_COEFFS = {0: 1}
_ONE = _new(LaurentPoly)  # the unit polynomial, the one LaurentPoly equal to 1
_set_coeffs(_ONE, _ONE_COEFFS)
_set_poly_hash(_ONE, None)


def _product(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    """x * y for two LaurentPolys. A factor 1 returns the other operand
    itself. A one-term factor c*z^e shifts and scales the other in one pass,
    which cannot cancel, so no zero is filtered; _q runs only on a Fraction
    product. Any other pair goes through _accumulate. A zero factor gives
    _ZERO through the same passes, as they run over no term."""
    if x is _ONE:
        return y
    if y is _ONE:
        return x
    a, b = x._coeffs, y._coeffs
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((e1, c1),) = a.items()
        return _poly(
            {e1 + e2: c if type(c := c1 * c2) is int else _q(c) for e2, c2 in b.items()}
        )
    out: dict[int, int | Fraction] = {}
    _accumulate(out, a, b)
    return _poly(_nonzero(out))


def _accumulate(
    out: dict[int, int | Fraction], a: dict[int, int | Fraction], b: dict[int, int | Fraction]
) -> None:
    """out += a * b on coefficient maps. Sums that cancel stay in out as
    zeros; the caller drops them once, when the map is complete, or, as
    jet_obstruction's overlap check does, tests the map for zero."""
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


def _listed(M: "LaurentMatrix") -> list[list[tuple[int, dict[int, int | Fraction]]]]:
    """Each row of M as its nonzero entries, (column, coefficient map) pairs:
    the right factor of _row_sums."""
    return [[(j, y._coeffs) for j, y in enumerate(row) if y._coeffs] for row in M._rows]


def _row_sums(
    accs: dict[int, dict[int, int | Fraction]],
    row: Sequence[LaurentPoly],
    listed: list[list[tuple[int, dict[int, int | Fraction]]]],
) -> dict[int, dict[int, int | Fraction]]:
    """accs[j] += row[k] * b for each nonzero row[k] and each pair (j, b) of
    listed[k], and accs returned: one row of Gustavson's product, summed in
    one _accumulate map per column that a term reaches. Cancelled zeros stay
    in the maps, for the caller to drop or to test."""
    get = accs.get
    for k, x in enumerate(row):
        if a := x._coeffs:
            for j, b in listed[k]:
                acc = get(j)
                if acc is None:
                    accs[j] = acc = {}
                _accumulate(acc, a, b)
    return accs


def _lifted_product(
    A: "LaurentMatrix", B: "LaurentMatrix", shifts: Sequence[int]
) -> "LaurentMatrix":
    """A @ B @ diag(z^(s_j)), with B's columns over one denominator each.
    Column j of B is scaled to integers by the lcm m_j of its denominators,
    as _int_row scales a row, and shifted by z^(s_j), once; a column with
    m_j = 1 and s_j = 0 is used as it is. Each row of A then goes through
    _row_sums on the scaled rows of B, and each output coefficient is
    divided by m_j once, by _ratio, with the cancelled zeros dropped. With A
    integral every sum is an int, so no Fraction is formed before that one
    division; a Fraction of A enters the sums as it is, and such a sum is
    divided as a Fraction and made canonical with _q."""
    dens = [lcm(*[c.denominator for y in col for c in y._coeffs.values() if type(c) is not int])
            for col in zip(*B._rows)]
    lifted = _listed(B)
    for row in lifted:
        for n, (j, b) in enumerate(row):
            s, m = shifts[j], dens[j]
            if m != 1:
                row[n] = j, {e + s: c * m if type(c) is int else c.numerator * (m // c.denominator)
                             for e, c in b.items()}
            elif s:
                row[n] = j, {e + s: c for e, c in b.items()}
    out = []
    for row in A._rows:
        new = [_ZERO] * len(dens)
        for j, acc in _row_sums({}, row, lifted).items():
            m = dens[j]
            new[j] = _poly(_nonzero(acc) if m == 1 else {
                e: _ratio(c, m) if type(c) is int else _q(c / m) for e, c in acc.items() if c})
        out.append(tuple(new))
    return _matrix(tuple(out))


def _inverse_holds(A: "LaurentMatrix", B: "LaurentMatrix") -> bool:
    """Does A @ B = I hold, for r x r A and B? Decided row by row, with
    neither the product nor I built: row i of A @ B is _row_sums on maps
    seeded with -1 at z^0 in column i, so the identity holds exactly when
    every map cancels to zero. An entry no a_ik b_kj reaches is zero, and
    the seeded diagonal map is always there to test. The first row that
    keeps a nonzero coefficient answers False."""
    listed = _listed(B)
    for i, row in enumerate(A._rows):
        for acc in _row_sums({i: {0: -1}}, row, listed).values():
            if any(acc.values()):
                return False
    return True


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


# the longest text that enters the parse memo (see Parsing above)
_MEMO_TEXT_MAX = 64


@lru_cache(maxsize=1024)
def _parsed(text: str) -> LaurentPoly:
    # laurent_parse is looked up at call time, so a wrapper bound to the
    # module name (the bench tracer's span) sees every miss
    return laurent_parse(text)


def _parse_entries(texts: list, what: str) -> list[LaurentPoly]:
    """The Laurent strings parsed, each short text once (see _parsed);
    SchemaError "bad <what> k: ..." names the position k of the first that
    does not parse."""
    out = []
    for k, s in enumerate(texts):
        if not isinstance(s, str):
            raise SchemaError(f"bad {what} {k}: expected a Laurent string, got {type(s).__name__}")
        try:
            out.append(_parsed(s) if len(s) <= _MEMO_TEXT_MAX else laurent_parse(s))
        except LaurentSyntaxError as exc:
            raise SchemaError(f"bad {what} {k}: {exc}") from exc
    return out


class LaurentMatrix(_Value):
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
            tuple([tuple([entries[i] if i == j else _ZERO for j in range(n)]) for i in range(n)])
        )

    @classmethod
    def parse(cls, rows: Sequence[Sequence[str]]) -> "LaurentMatrix":
        return cls([[laurent_parse(s) for s in row] for row in rows])

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
        for row in self._rows:
            for x in row:
                if x._coeffs:
                    return False
        return True

    @property
    def is_poly_in_z(self) -> bool:
        for row in self._rows:
            for x in row:
                if x._coeffs and min(x._coeffs) < 0:
                    return False
        return True

    @property
    def is_poly_in_w(self) -> bool:
        for row in self._rows:
            for x in row:
                if x._coeffs and max(x._coeffs) > 0:
                    return False
        return True

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        try:
            b_rows = other._rows
        except AttributeError:
            return NotImplemented
        self._require_same_shape(other)
        return _matrix(
            tuple([tuple([x + y for x, y in zip(r, s)]) for r, s in zip(self._rows, b_rows)])
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        try:
            b_rows = other._rows
        except AttributeError:
            return NotImplemented
        self._require_same_shape(other)
        return _matrix(
            tuple([tuple([x - y for x, y in zip(r, s)]) for r, s in zip(self._rows, b_rows)])
        )

    def __neg__(self) -> "LaurentMatrix":
        return _matrix(tuple([tuple([-x for x in row]) for row in self._rows]))

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """The matrix product. A 1 x 1 factor is a scalar: [[1]] @ B is B,
        A @ [[1]] is A, and a 1 x 1 @ 1 x 1 product is one _product. Any
        other pair runs Gustavson's sparse product."""
        a_rows = self._rows
        try:
            b_rows = other._rows
        except AttributeError:
            return NotImplemented
        if len(a_rows[0]) != len(b_rows):
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        if len(b_rows) == 1:  # the inner dimension is 1
            if len(a_rows) == 1 and a_rows[0][0] is _ONE:
                return other
            if len(b_rows[0]) == 1:
                y = b_rows[0][0]
                if y is _ONE:
                    return self
                if len(a_rows) == 1:
                    return _matrix(((_product(a_rows[0][0], y),),))
        # Gustavson's row-by-row product: row i of the result is the sum of
        # a_ik * (row k of the right factor) over the nonzero a_ik, and each
        # right row lists only its nonzero entries, so no zero is ever visited.
        # Right row k is listed when a nonzero a_ik first reads it, so a row
        # no a_ik reads is never scanned. An entry holds its first contribution
        # as the pair (a_ik, b_kj), which _product multiplies; a second one
        # turns it into an accumulator.
        width = len(b_rows[0])
        listed: list[list[tuple[int, LaurentPoly]] | None] = [None] * len(b_rows)
        out = []
        for row in a_rows:
            entries: dict[int, tuple[LaurentPoly, LaurentPoly] | dict[int, int | Fraction]] = {}
            get = entries.get
            for k, x in enumerate(row):
                if x._coeffs:
                    b_row = listed[k]
                    if b_row is None:
                        b_row = listed[k] = [(j, y) for j, y in enumerate(b_rows[k]) if y._coeffs]
                    for j, y in b_row:
                        acc = get(j)
                        if acc is None:
                            entries[j] = (x, y)
                            continue
                        if type(acc) is tuple:
                            x0, y0 = acc
                            entries[j] = acc = {}
                            _accumulate(acc, x0._coeffs, y0._coeffs)
                        _accumulate(acc, x._coeffs, y._coeffs)
            new = [_ZERO] * width
            for j, acc in entries.items():
                new[j] = _product(*acc) if type(acc) is tuple else _poly(_nonzero(acc))
            out.append(tuple(new))
        return _matrix(tuple(out))

    def scalar_mul(self, s) -> "LaurentMatrix":
        if isinstance(s, (int, Fraction)):
            s = LaurentPoly.const(s)
        return _matrix(tuple([tuple([x * s for x in row]) for row in self._rows]))

    def shift(self, k: int) -> "LaurentMatrix":
        return _matrix(tuple([tuple([x.shift(k) for x in row]) for row in self._rows]))

    def transpose(self) -> "LaurentMatrix":
        return _matrix(tuple(zip(*self._rows)))

    def derivative(self) -> "LaurentMatrix":
        return _matrix(tuple([tuple([x.derivative() for x in row]) for row in self._rows]))

    def kron(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Kronecker product; index (i,p),(j,q) flattened row-major. A 1 x 1
        left factor is a scalar, and [[1]] (x) B is B itself. A left entry 1
        reuses the right factor's row, so I (x) B costs no products, and a
        right entry 1 is the left entry itself (see _product)."""
        if self._rows == _ONE_ROWS:
            return other
        out = []
        for row_a in self._rows:
            for row_b in other._rows:
                row: list[LaurentPoly] = []
                for a in row_a:
                    if not a._coeffs:
                        row.extend([_ZERO] * len(row_b))
                    elif a is _ONE:
                        row.extend(row_b)
                    else:
                        row += [_product(a, b) if b._coeffs else _ZERO for b in row_b]
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
        rows = self._rows
        return _matrix(tuple([tuple([rows[i][j] for j in col_idx]) for i in row_idx]))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._rows), len(self._rows[0]))

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
            _set_matrix_hash(self, h)
        return h

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self._rows) + "]"

    def __repr__(self) -> str:
        return f"LaurentMatrix({str(self)})"

    def __reduce__(self):
        return _matrix, (self._rows,)

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self._rows]


_set_rows = LaurentMatrix._rows.__set__
_set_matrix_hash = LaurentMatrix._hash.__set__
_ONE_ROWS = ((_ONE,),)  # the rows of the 1 x 1 identity


def _matrix(rows: tuple[tuple[LaurentPoly, ...], ...]) -> LaurentMatrix:
    """Wrap a nonempty rectangular tuple of tuples of LaurentPoly, without a
    check or a copy."""
    m = _new(LaurentMatrix)
    _set_rows(m, rows)
    _set_matrix_hash(m, None)
    return m


# -- exact rational linear algebra helpers ---------------------------------


def _qinverse(a: list[list[int | Fraction]]) -> list[list[int | Fraction]]:
    """A^(-1) by fraction-free Gauss-Jordan on [A | I]: the left block ends
    diagonal, and row i of the inverse is row i of the right block over its
    pivot. Raises ZeroDivisionError when A is singular."""
    n = len(a)
    aug = [_int_row(list(row) + [int(i == j) for j in range(n)]) for i, row in enumerate(a)]
    if _int_gauss_jordan(aug, n) < n:
        raise ZeroDivisionError("singular matrix in _qinverse")
    return [[_ratio(x, row[i]) for x in row[n:]] for i, row in enumerate(aug)]


def _qnullspace(a: Sequence[Sequence[int | Fraction]], ncols: int) -> list[int | Fraction] | None:
    """The first vector of the RREF basis of the right nullspace of a
    constraint matrix, or None when the nullspace is zero: the vector with
    a 1 at the first non-pivot column fc, and zeros past it. Gauss-Jordan
    stops at fc; the pivots after it would not change the vector, as their
    rows are zero in column fc. With no rows fc is 0."""
    rows = [_int_row(row) for row in a]
    fc = _int_gauss_jordan(rows, ncols)
    if fc == ncols:
        return None
    v = [0] * ncols
    v[fc] = 1
    for pc in range(fc):
        v[pc] = _ratio(-rows[pc][fc], rows[pc][pc])
    return v


def _int_row(row: Sequence[int | Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integers, same span."""
    m = 1
    for x in row:
        if type(x) is not int:
            m = lcm(m, x.denominator)
    return [x * m if type(x) is int else x.numerator * (m // x.denominator) for x in row]


def _int_gauss_jordan(rows: list[list[int]], ncols: int) -> int:
    """Gauss-Jordan on integer rows, in place, column by column from column
    0 until a column has no pivot; returns that column, or ncols when each
    of the first ncols has one. Row k then holds the pivot of column k, for
    each k before the returned column. A step replaces row r by p*row_r - f*row_pivot (p the pivot,
    f the entry it clears) and divides it by its content, so every row
    stays a nonzero integer multiple of the same row of the rational
    elimination: the same pivots, and the RREF is each pivot row over its
    pivot."""
    nrows = len(rows)
    for col in range(ncols):
        pivot = next((r for r in range(col, nrows) if rows[r][col]), None)
        if pivot is None:
            return col
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = rows[col]
        p = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
    return ncols


def _ratio(n: int, d: int) -> int | Fraction:
    """n / d in canonical scalar form, d != 0."""
    q, m = divmod(n, d)
    return Fraction(n, d) if m else q
