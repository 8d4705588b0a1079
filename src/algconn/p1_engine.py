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

Splitting (the decomposition into line bundles, Grothendieck, 1957) is
one row reduction, _weak_popov, run on each chart: the simple
transformations of Mulders and Storjohann (2003), kept fraction-free by
dividing each new row and its transform row by their joint content, bring
a matrix to weak Popov form, whose matrix of top row coefficients is
invertible. The reduction holds each row as one coefficient map keyed by
(exponent, column), so a row's largest key is its degree and leading
position, and a step is one pass over two rows' nonzero terms, _step; the
frames become LaurentMatrix entries once, at the end. On the z-chart that
gives U0 with U0 * T = diag(z^(h_i)) * N, N polynomial in w = 1/z with
N(0) invertible. On the w-chart, _w_inverse brings N, reflected to a
polynomial in z, to weak Popov form too, and one forward substitution
gives U1 = N^(-1), which is unique whatever reduction reaches it; U0 is
unique only up to the automorphisms of the split bundle. A monomial
diagonal diag(c_i z^(a_i)), whose rows lead in distinct columns, takes no
step on either chart: U0 is the permutation that sorts the a_i, ties in
row order, and U1 holds the 1/c_i. A SplittingData holds
the T it splits and checks all of U0 * T * U1 = diag(z^(a_i)) once,
when it is built, and every inverse of a unit matrix is read off it. Each
frame is certified by its inverse on its own chart: the check forms
U0^(-1) = T U1 D^(-1), which must be polynomial in z, decides U0 U0^(-1)
= I on exact_core's row kernel, _row_sums, and forms U1^(-1) = D^(-1) U0
T, which must be polynomial in 1/z. So U0 is unimodular over C[z] and U1
over C[1/z], with no determinant and no constant-term test.

No determinant validates a transition either. The reduction is the
validation, and raises NotAUnit exactly when T is not a unit. On the
z-chart it stops on det T = 0 (a row reduces to zero, or its step budget
runs out). Otherwise det N is a nonzero polynomial in w, and the weak Popov
form of the w-chart leaves a row of positive degree exactly when det N is
no constant, that is when det T is no monomial c * z^k. For a unit deg E =
sum a_i (see SplittingData), and a failing identity is an internal bug.
Every bundle, a dual, twist, tensor, hom or jet bundle too, is validated by
the split that builds its record, and its degree is the sum of its
splitting type.

End(E) (x) V*, where the connection obstruction lives, is never split as a
bundle of its own: jet_obstruction answers and builds certificates from
the splittings of E and V. Cohomology builds no bundle at all: h^0 and
h^1 are read off the certified type of E.

The engine has one memo, the splitting memo behind birkhoff_split, keyed
by the transition; the package's only other memo is exact_core's parse
memo _parsed, which p1bundle_from_json reads entry texts through. A
SplittingData keeps only what its check computes, U0^(-1) and U1^(-1); the
hom test reads U0, the printed cocycle U1 and U0, the closed form of a
"yes" U1^(-1), and T^(-1) = U1 D^(-1) U0 is
formed only by dual_bundle and jetV_transition, for the bundle each
builds. The bundle constructors cache nothing, and the memo is a pure
function of the transition: equal bundles get the same type, U0 and U1,
whatever was split before. Both memos keep at most 1024 entries, because
their keys are outside input and nothing else limits how many distinct
ones arrive; an evicted transition is split again, to an equal record.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import InternalCheckFailed, NotAUnit, SchemaError
from .exact_core import (
    LaurentMatrix,
    LaurentPoly,
    _content,
    _inverse_holds,
    _lifted_product,
    _matrix,
    _parse_entries,
    _poly,
    _q,
    _ratio,
    _Value,
)


class P1Bundle(_Value):
    """Rank-r bundle on the projective line via its transition matrix.

    Constructing one validates T by splitting it: NotAUnit unless T is
    invertible over the Laurent ring, and the degree is the sum of the
    splitting type. Duals, twists, tensor, hom and jet bundles are built
    this way too. That splitting is memoised, so birkhoff_split returns it
    with no second split until the memo evicts it. The transition alone
    takes part in equality, hashing and repr: rank and degree are read off
    it.
    """

    _fields = ("transition",)
    __slots__ = _fields + ("rank", "degree")

    def __init__(self, transition: LaurentMatrix) -> None:
        object.__setattr__(self, "transition", transition)
        self.__post_init__()  # its own method, so that bench/tracer.py can time it

    def __post_init__(self):
        if not self.transition.is_square:
            raise NotAUnit("transition matrix must be square")
        object.__setattr__(self, "rank", self.transition.rows)
        object.__setattr__(self, "degree", sum(_birkhoff_cached(self.transition).type))


def line_bundle(a: int, coeff=1) -> P1Bundle:
    return P1Bundle(LaurentMatrix([[LaurentPoly.monomial(coeff, a)]]))


def trivial_bundle(rank: int) -> P1Bundle:
    return P1Bundle(LaurentMatrix.identity(rank))


def split_bundle(exponents: Sequence[int]) -> P1Bundle:
    """Direct sum of line bundles O(a_i) as a diagonal transition."""
    return P1Bundle(LaurentMatrix.diag([LaurentPoly.z(a) for a in exponents]))


_tangent = _trivial = None  # the tangent bundle and O (see global_sections), built on first use


def tangent_bundle() -> P1Bundle:
    """The tangent bundle: O(2) with transition -z^2 (chain-rule sign). One
    value, built and split on first use (importing splits nothing), so each
    anchor check reads the same transition and its cached hash."""
    global _tangent
    if _tangent is None:
        _tangent = line_bundle(2, -1)
    return _tangent


def dual_bundle(E: P1Bundle) -> P1Bundle:
    """E*: transition T^(-T), with T^(-1) read off E's splitting. Its type
    is -a_r >= ... >= -a_1, so its degree is -deg E."""
    return P1Bundle(birkhoff_split(E).transition_inverse.transpose())


def tensor_bundle(E: P1Bundle, F: P1Bundle) -> P1Bundle:
    """E (x) F with frames ordered row-major, i.e. kron(T_E, T_F). Its
    degree is r_F deg E + r_E deg F."""
    return P1Bundle(E.transition.kron(F.transition))


def hom_bundle(E: P1Bundle, F: P1Bundle) -> P1Bundle:
    """Hom(E, F) = F (x) E*: a local hom is an r_F x r_E matrix Phi with
    Phi0 = T_F * Phi1 * T_E^(-1); vectorized row-major this is
    kron(T_F, T_E^(-T)). Its degree is r_E deg F - r_F deg E."""
    return tensor_bundle(F, dual_bundle(E))


def twist(E: P1Bundle, n: int) -> P1Bundle:
    """E (x) O(n): shifts every transition entry by z^n. Its type is E's
    plus n, so its degree is deg E + r n."""
    return P1Bundle(E.transition.shift(n))


def gauge_transform(E: P1Bundle, A: LaurentMatrix, B: LaurentMatrix) -> P1Bundle:
    """Change frames: T -> A * T * B. A must be polynomial in z and B in
    1/z, both with constant nonzero determinant, for this to be a frame
    change; the result is validated like any other transition, by
    splitting it."""
    return P1Bundle(A @ E.transition @ B)


# -- splitting --------------------------------------------------------------


class SplittingData(_Value):
    """U0 * T * U1 = diag(z^(a_1), ..., z^(a_r)) with a_1 >= ... >= a_r,
    U0 polynomial in z, U1 polynomial in 1/z, both of constant nonzero
    determinant: a checked factorization of the transition T it holds. It
    is checked once, when it is built: TypeError unless the type is a tuple
    of ints, not bools; ValueError unless U0 and U1 are r x r for a type of
    length r, the type descends, U0 is polynomial in z, U1 in 1/z, T is r x
    r, the identity holds in the form U0 * U0^(-1) = I with U0^(-1) = T U1
    D^(-1) polynomial in z, and Y = D^(-1) U0 T is polynomial in 1/z.

    Each frame is certified by its inverse. U0 U0^(-1) = I with both
    factors polynomial in z makes U0 unimodular over C[z]. The same
    identity gives Y U1 = D^(-1) (U0 T U1 D^(-1)) D = I, so Y is U1^(-1),
    and with both polynomial in 1/z, U1 is unimodular over C[1/z]. Then
    T = U0^(-1) D Y has det T = c z^(sum a_i), c != 0, so sum a_i = deg E
    whatever built the bundle, and no degree is compared.

    Every inverse the engine needs is read off the identity, and D =
    diag(z^(a_i)) and D^(-1) are never multiplied: they shift rows or
    columns by z^(+-a_i). The check forms U0^(-1) with
    exact_core._lifted_product and decides U0 U0^(-1) = I with
    _inverse_holds, both on the row kernel _row_sums, and forms Y with @,
    which the splitter never calls, and a shift of each row. The record
    keeps what its check computes, U0^(-1) as u0_inverse and U1^(-1) as
    u1_inverse: T^(-1) is formed from U0 and U1 on each read of
    transition_inverse."""

    _fields = ("transition", "type", "U0", "U1")
    __slots__ = _fields + ("u0_inverse", "u1_inverse")

    def __init__(
        self, transition: LaurentMatrix, type: tuple[int, ...], U0: LaurentMatrix, U1: LaurentMatrix
    ) -> None:
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "U0", U0)
        object.__setattr__(self, "U1", U1)
        if not isinstance(type, tuple) or any(isinstance(a, bool) or not isinstance(a, int)
                                               for a in type):
            raise TypeError(f"splitting type {type!r} is not a tuple of ints")
        r = len(type)
        if U0.shape != (r, r) or U1.shape != (r, r):
            raise ValueError(f"frames {U0.shape}, {U1.shape} for a type of length {r}")
        if list(type) != sorted(type, reverse=True):
            raise ValueError(f"splitting type must descend, got {type}")
        if not U0.is_poly_in_z:
            raise ValueError("U0 must be polynomial in z")
        if not U1.is_poly_in_w:
            raise ValueError("U1 must be polynomial in 1/z")
        if transition.shape != (r, r):
            raise ValueError(f"a transition of shape {transition.shape} for a type of length {r}")
        u0_inv = _lifted_product(transition, U1, [-a for a in type])
        if not u0_inv.is_poly_in_z:
            raise ValueError("U0^(-1) = T U1 D^(-1) must be polynomial in z")
        if not _inverse_holds(U0, u0_inv):
            raise ValueError("U0 T U1 must be diag(z^(a_i))")
        u1_inv = _matrix(tuple([tuple([x.shift(-a) for x in row])
                                for row, a in zip((U0 @ transition)._rows, type)]))
        if not u1_inv.is_poly_in_w:
            raise ValueError("U1^(-1) = D^(-1) U0 T must be polynomial in 1/z")
        object.__setattr__(self, "u0_inverse", u0_inv)
        object.__setattr__(self, "u1_inverse", u1_inv)

    def verify(self, E: "P1Bundle") -> bool:
        """Does this split E's transition? Exactly when it is this record's
        own: the identity fixes T = U0^(-1) D U1^(-1). Its type then sums to
        deg E (see above)."""
        return E.transition == self.transition

    @property
    def transition_inverse(self) -> LaurentMatrix:
        """T^(-1) = U1 D^(-1) U0, formed on each read and kept nowhere; only
        dual_bundle and jetV_transition read it, once per bundle they build."""
        shifted = [tuple([x.shift(-a) for x, a in zip(row, self.type)]) for row in self.U1._rows]
        return _matrix(tuple(shifted)) @ self.U0


_NOT_A_UNIT = "transition is not invertible over the Laurent ring"

# a matrix row as one coefficient map, {(exponent, column): coefficient}, in
# canonical form: the nonzero terms of all its entries
_Row = dict[tuple[int, int], int | Fraction]


def _step(a: _Row, ka: int | Fraction, b: _Row, kb: int | Fraction, s: int) -> _Row:
    """ka a + kb z^s b, for rows a and b and nonzero scalars ka and kb, in
    canonical form: one pass over each row's nonzero terms, the cancelled
    zeros dropped and _q applied to each Fraction sum."""
    out = {key: ka * c for key, c in a.items()}
    get = out.get
    for (e, j), c in b.items():
        key = (e + s, j)
        v = get(key)
        out[key] = kb * c if v is None else v + kb * c
    return {key: c if type(c) is int else _q(c) for key, c in out.items() if c}


def _as_matrix(rows: list[_Row], r: int, sign: int) -> LaurentMatrix:
    """The LaurentMatrix of r columns whose rows are the given row maps,
    each exponent e read as sign * e (-1 turns the reflected z back into
    1/z)."""
    out = []
    for row in rows:
        entries: list[dict[int, int | Fraction]] = [{} for _ in range(r)]
        for (e, j), c in row.items():
            entries[j][sign * e] = c
        out.append(tuple([_poly(x) for x in entries]))
    return _matrix(tuple(out))


def _split_reduced(T: LaurentMatrix) -> SplittingData:
    """U0 and U1 with U0 @ T @ U1 diagonal and the type sorted, by one
    reduction, _weak_popov, on each chart; NotAUnit when T is no unit. The
    record checks the factorization when it is built.

    On the z-chart, _weak_popov's transform is U0, and the rows of U0 @ T
    are in weak Popov form, so their matrix H of top coefficients is
    invertible: U0 @ T = diag(z^h) * N, N polynomial in w = 1/z with N(0) =
    H; sorting the rows by h sorts the type. U1 = N^(-1): reflected (w ->
    z), N is a polynomial matrix R with R(0) = H, so det R != 0, and
    _w_inverse reads R^(-1) off R's weak Popov form, or decides that det R,
    hence det T up to a monomial, is not constant. N^(-1) is unique, so the
    z-chart's U0 fixes U1. Each chart works on row maps, and U0 and U1 are
    grouped into LaurentMatrix entries once, at the end."""
    r = T.rows
    rows = [{(e, j): c for j, x in enumerate(row) for e, c in x._coeffs.items()} for row in T._rows]
    leads, u0_rows = _weak_popov(rows)
    tops = [d for d, _ in leads]
    order = sorted(range(r), key=lambda i: -tops[i])
    R = [{(tops[i] - e, j): c for (e, j), c in rows[i].items()} for i in order]
    U1 = _as_matrix(_w_inverse(R), r, -1)
    U0 = _as_matrix([u0_rows[i] for i in order], r, 1)
    return SplittingData(T, tuple(tops[i] for i in order), U0, U1)


def _leading(row: _Row) -> tuple[int, int]:
    """(d, p), the degree d of a row and its leading position p, the last
    column whose entry reaches degree d: the row's largest key. NotAUnit
    for a zero row."""
    if not row:
        raise NotAUnit(f"{_NOT_A_UNIT}: its determinant is zero")
    return max(row)


def _weak_popov(rows: list[_Row]) -> tuple[list[tuple[int, int]], list[_Row]]:
    """Bring a square matrix, its rows given as coefficient maps Laurent in
    z, to weak Popov form in place by polynomial row operations on the
    left, W @ rows_in = rows_out; returns each row's _leading key (deg_i,
    pos_i) and the rows of W. NotAUnit when the determinant is zero. Both
    charts of _split_reduced, which splits every transition, run it.

    Simple transformations (Mulders and Storjohann, On lattice reduction
    for polynomial matrices, J. Symbolic Comput. 35(4), 2003), kept
    fraction-free: while two rows i and k share a leading position with
    deg_i >= deg_k, row i and its row of W become lc_k row_i - lc_i
    z^(deg_i - deg_k) row_k, each by one _step, and both are then divided
    by their joint content, exact_core._content, so a row that has taken a
    step holds integers with no common factor (Beckermann and Labahn,
    Fraction-free computation of matrix rational interpolants and matrix
    GCDs, SIAM J. Matrix Anal. Appl. 22(1), 2000). The step cancels row i's
    leading term, and row k holds less than deg_k to the right of the
    position, so (deg_i, pos_i), the row's largest key, falls
    lexicographically. It multiplies det W by the nonzero constant lc_k /
    content, so W stays unimodular and a zero row means det = 0. With the
    positions distinct, the matrix of the rows' top coefficients is a row
    permutation of a triangular matrix with a nonzero diagonal: it is
    invertible, and the row degrees sum to the top exponent of det.

    The budget. Let phi = sum_i (r deg_i + pos_i), with 0 <= pos_i < r. A
    step lowers one key (deg_i, pos_i): when deg_i falls, r deg_i falls by
    at least r and pos_i rises by at most r - 1; otherwise pos_i falls. So
    phi falls by at least 1 per step, from at most r sum(tops) + r (r - 1),
    with tops the initial row degrees. While det != 0, det = c det(rows_in)
    for a constant c != 0; expanded over the current rows, its top exponent
    is at most sum_i deg_i, and expanded over the initial rows, its lowest
    is at least sum(lows), the sum of their lowest exponents. So sum_i
    deg_i >= sum(lows) and phi >= r sum(lows): a matrix with det != 0 takes
    at most r (sum(tops) - sum(lows) + r - 1) steps. A budget of r
    (sum(tops) - sum(lows) + r) steps that runs out, like a row that
    reaches zero, means det = 0. A polynomial matrix with an invertible
    constant term, as on the w-chart, has det != 0, and never exhausts it."""
    r = len(rows)
    t_rows = [{(0, i): 1} for i in range(r)]
    leads = [_leading(row) for row in rows]
    lows = sum(min(row)[0] for row in rows)
    budget = r * (sum(d for d, _ in leads) - lows + r)
    owner: dict[int, int] = {}  # leading position -> the one row that holds it
    todo = list(range(r))
    while todo:
        i = todo.pop(0)
        d, p = leads[i]
        k = owner.get(p)
        if k is None:
            owner[p] = i
            continue
        if leads[k][0] > d:  # the row of higher degree is the one reduced
            owner[p], i, k = i, k, i
            d = leads[i][0]
        if budget == 0:
            raise NotAUnit(f"{_NOT_A_UNIT}: its determinant is zero")
        budget -= 1
        lc_i, lc_k, s = rows[i][leads[i]], rows[k][leads[k]], d - leads[k][0]
        row = _step(rows[i], lc_k, rows[k], -lc_i, s)
        t_row = _step(t_rows[i], lc_k, t_rows[k], -lc_i, s)
        g = _content([*row.values(), *t_row.values()])
        if g != 1:
            row = {key: _ratio(v, g) for key, v in row.items()}
            t_row = {key: _ratio(v, g) for key, v in t_row.items()}
        rows[i], t_rows[i] = row, t_row
        leads[i] = _leading(row)
        todo.append(i)
    return leads, t_rows


def _w_inverse(rows: list[_Row]) -> list[_Row]:
    """R^(-1) for a square polynomial matrix R with R(0) invertible, rows
    in and out as coefficient maps; rows is reduced in place. NotAUnit when
    det R is not constant.

    _weak_popov brings R to W R in weak Popov form, with W unimodular;
    det R != 0, so it raises nothing here. The row degrees of W R sum to
    deg det R, so R is a unit exactly when every degree is zero; a positive
    one left means det R is no constant. Then C = W R is constant, every
    key of its rows (0, j), and the row with position p has its largest
    key, its last nonzero entry, in column p: C is a row permutation of a
    lower triangular matrix. R^(-1) = C^(-1) W is one forward substitution,
    in which row p of R^(-1) is (W_i - sum_(j<p) C_ij row_j) / C_ip, for
    the row i of position p: one _step per term C_ij, then each
    coefficient divided once by the pivot C_ip with exact_core's _ratio (a
    pivot 1 needs no division)."""
    leads, w_rows = _weak_popov(rows)
    if any(d for d, _ in leads):
        raise NotAUnit(f"{_NOT_A_UNIT}: its determinant is not a monomial c*z^k")
    owner = {p: i for i, (_, p) in enumerate(leads)}
    inverse: list[_Row] = []
    for p in range(len(rows)):
        i = owner[p]
        row = w_rows[i]
        for (_, j), c in rows[i].items():
            if j < p:
                row = _step(row, 1, inverse[j], -c, 0)
        pivot = rows[i][0, p]
        if pivot != 1:
            row = {key: _ratio(c, pivot) for key, c in row.items()}
        inverse.append(row)
    return inverse


# The engine's one memo; the package's other is exact_core._parsed. Both are
# bounded because their keys are outside input; fuzz_diagonal, the bench's
# most repetitive workload, meets at most 826 distinct transitions, and each
# one it misses on is a monomial diagonal of rank <= 3, most of rank 3, whose
# rows lead in distinct columns: a miss there is a reduction that takes no
# step on either chart, plus the record's check. This memo is global and
# keyed by transition equality, not scoped to a bundle instance: small split
# bundles (the E and V of run_fuzz cases) recur across inputs as fresh, equal
# objects, and scoped to the instance fuzz_diagonal fell from 83 to 43
# cases/s. A transition parsed from JSON holds the parse memo's shared
# entries, so its hash and equality read cached, identical ones.
@lru_cache(maxsize=1024)
def _birkhoff_cached(T: LaurentMatrix) -> SplittingData:
    try:
        return _split_reduced(T)
    except ValueError as exc:
        # the reduction on both charts decided T is a unit, so this is a bug
        raise InternalCheckFailed("splitting failed verification (internal bug)") from exc


def birkhoff_split(E: P1Bundle) -> SplittingData:
    """Split E into line bundles: exact factorization U0 * T * U1 = diag.
    Constructing E split it already, so this is a memo lookup unless the
    memo has evicted or cleared that split since; then T is split again."""
    return _birkhoff_cached(E.transition)


# -- cohomology and sections ------------------------------------------------


def cohomology_dims(E: P1Bundle) -> tuple[int, int]:
    """(h^0, h^1) from the splitting type: a summand O(a) contributes
    max(0, a+1) to h^0 and max(0, -a-1) to h^1."""
    t = birkhoff_split(E).type
    h0 = sum(max(0, a + 1) for a in t)
    h1 = sum(max(0, -a - 1) for a in t)
    return h0, h1


class GlobalSection(_Value):
    """A global section in its chart-0 representative: a polynomial column
    v(z) such that T^(-1) v is polynomial in 1/z."""

    __slots__ = _fields = ("chart0_rep",)

    def __init__(self, chart0_rep: LaurentMatrix) -> None:
        object.__setattr__(self, "chart0_rep", chart0_rep)


def global_sections(E: P1Bundle) -> list[GlobalSection]:
    """A basis of H^0(E), of size h^0: the homs O -> E, hom_sections(O, E).
    In the split frame the sections of O(a) are 1, z, ..., z^a."""
    global _trivial
    if _trivial is None:
        _trivial = trivial_bundle(1)
    return [GlobalSection(M) for M in hom_sections(_trivial, E)]


def is_global_hom(E: P1Bundle, F: P1Bundle, phi0: LaurentMatrix) -> bool:
    """Is the chart-0 matrix phi0 a global homomorphism E -> F? It must be
    polynomial in z, and phi1 = T_F^(-1) phi0 T_E polynomial in 1/z, which
    is tested as: each entry of row j of U0_F phi0 T_E has z-degree <= b_j,
    b F's type. Proof: T_F^(-1) = U1_F D_F^(-1) U0_F with U1_F unimodular
    over C[1/z] (the record's check), so phi1 is polynomial in 1/z exactly
    when D_F^(-1) U0_F phi0 T_E is. For F = TX, U0_F = (1): an anchor check
    is one product, phi0 T_V, and this degree test."""
    if phi0.shape != (F.rank, E.rank):
        return False
    if not phi0.is_poly_in_z:
        return False
    sf = birkhoff_split(F)
    rows = (sf.U0 @ phi0 @ E.transition)._rows
    return all(max(x._coeffs) <= b for row, b in zip(rows, sf.type) for x in row if x._coeffs)


def hom_sections(E: P1Bundle, F: P1Bundle) -> list[LaurentMatrix]:
    """Basis of H^0(Hom(E, F)) as chart-0 matrices. In split frames the
    basis elements are z^m E_(j,i) with 0 <= m <= b_j - a_i; conjugated by
    the chart-0 frame changes, z^m E_(j,i) becomes z^m times the outer
    product U0_F^(-1)[:, j] U0_E[i, :], one per summand pair (j, i), taken
    as U0_E[i, :] (x) U0_F^(-1)[:, j], where an entry 1 of the row copies
    the column with no product. With E = O, U0_E = (1), so this is
    global_sections: the sections z^m U0_F^(-1)[:, j]."""
    se = birkhoff_split(E)
    sf = birkhoff_split(F)
    f0_inv = sf.u0_inverse
    rows = [se.U0.submatrix([i], range(E.rank)) for i in range(E.rank)]
    basis: list[LaurentMatrix] = []
    for j, b in enumerate(sf.type):
        if b < se.type[-1]:
            break  # both types descend, so no pair (j, i) from here on has b_j >= a_i
        col = f0_inv.submatrix(range(F.rank), [j])
        for row, a in zip(rows, se.type):
            if b >= a:
                outer = row.kron(col)
                basis.extend(outer.shift(m) for m in range(b - a + 1))
    return basis


def riemann_roch_check(E: P1Bundle) -> bool:
    """h^0(E) - h^1(E) = deg E + rank E. Read off the certified type E =
    sum O(a_i), both sides are sum (a_i + 1), so like serre_dual_check this
    is true by construction; neither is printed or exported. Both stay only
    for bench/workloads.py, and go with it (ROADMAP item 3). The independent
    checks are the linear-solve oracle tests of h^0 and h^1 and the tests
    that read deg E off det T (test_derived_degrees_match_det,
    test_det_matches_sympy_det)."""
    h0, h1 = cohomology_dims(E)
    return h0 - h1 == E.degree + E.rank


def serre_dual_check(E: P1Bundle) -> bool:
    """h^1(E) = h^0(E* (x) K), K = O(-2), read off E's certified type: E =
    sum O(a_i) gives E* (x) K = sum O(-a_i - 2), so h^0(E* (x) K) =
    sum max(0, -a_i - 1). No dual bundle is built, split or verified.

    Both sides are the same sum over the type, so once the splitting is
    certified this is true by construction; it checks nothing the splitting
    has not. It stays only for bench/workloads.py (see riemann_roch_check).
    The independent check is test_serre_duality_against_direct_linear_algebra,
    which solves for h^0(E* (x) K) on T^(-T) without splitting it."""
    _, h1 = cohomology_dims(E)
    return h1 == sum(max(0, -a - 1) for a in birkhoff_split(E).type)


# -- JSON interface ----------------------------------------------------------


def p1bundle_from_json(doc) -> P1Bundle:
    if not isinstance(doc, dict):
        raise SchemaError("bundle document must be a JSON object")
    if "rank" not in doc or "transition" not in doc:
        raise SchemaError("bundle document needs 'rank' and 'transition'")
    rank = doc["rank"]
    rows = doc["transition"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise SchemaError("'rank' must be a positive integer")
    if (
        not isinstance(rows, list)
        or len(rows) != rank
        or any(not isinstance(r, list) or len(r) != rank for r in rows)
    ):
        raise SchemaError("'transition' must be a rank x rank grid of Laurent strings")
    T = LaurentMatrix(
        [_parse_entries(row, f"transition entry at row {i}, column") for i, row in enumerate(rows)]
    )
    return P1Bundle(T)


def p1bundle_to_json(E: P1Bundle) -> dict:
    return {"rank": E.rank, "transition": E.transition.to_strings()}


def splitting_to_json(data: SplittingData) -> dict:
    return {
        "type": list(data.type),
        "U0": data.U0.to_strings(),
        "U1": data.U1.to_strings(),
    }
