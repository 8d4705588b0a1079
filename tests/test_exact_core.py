"""Laurent arithmetic: parser, derivative, matrices, unit inverses."""

import os
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algconn.errors import LaurentSyntaxError, NotAUnit, NotSquare
from algconn.exact_core import (
    LaurentMatrix,
    LaurentPoly,
    _qinverse,
    _qmatmul,
    _qnullspace,
    laurent_parse,
)
from algconn.p1_engine import (
    P1Bundle,
    _birkhoff_cached,
    gauge_transform,
    split_bundle,
    unit_inverse,
)
from algconn.sampling import Sampler

sys.path.insert(0, os.path.dirname(__file__))
from oracles import fraction_inverse, fraction_nullspace


def lp(s: str) -> LaurentPoly:
    return laurent_parse(s)


# -- parser ------------------------------------------------------------------


def test_parse_zero():
    assert lp("0").is_zero


def test_parse_mixed_terms():
    p = lp("3/2*z^-1 + 1")
    assert p.coeffs == {-1: Fraction(3, 2), 0: Fraction(1)}


def test_parse_cancellation():
    assert lp("z^2 - z^2").is_zero


def test_parse_bare_and_signed_forms():
    assert lp("z").coeffs == {1: Fraction(1)}
    assert lp("-z^2").coeffs == {2: Fraction(-1)}
    assert lp("2*z").coeffs == {1: Fraction(2)}
    assert lp("- 5").coeffs == {0: Fraction(-5)}


@pytest.mark.parametrize(
    "text",
    ["", "z^", "3/", "1//2", "z + ", "+ z", "* z", "2 2", "q"],
)
def test_parse_syntax_errors_carry_position(text):
    with pytest.raises(LaurentSyntaxError) as err:
        lp(text)
    assert err.value.position >= 0


def test_parse_zero_denominator():
    with pytest.raises(LaurentSyntaxError):
        lp("1/0")
    with pytest.raises(LaurentSyntaxError):
        lp("z + 3/0*z^2")


coeffs_strategy = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)
poly_strategy = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(min_value=-6, max_value=6), coeffs_strategy, max_size=5),
)


@given(poly_strategy)
def test_printer_parser_round_trip(p):
    assert laurent_parse(str(p)) == p


# -- the public constructor validates -------------------------------------------


@pytest.mark.parametrize("exp", [1.5, 2.0, Fraction(1), "1", True, None])
def test_constructor_rejects_non_int_exponent(exp):
    with pytest.raises(TypeError, match=re.escape(f"exponent {exp!r} is not an int")):
        LaurentPoly({exp: 1})


@pytest.mark.parametrize("coeff", [0.1, 1.0, float("nan"), True, False, "1/2", " 3 ", "1e3", "z"])
def test_constructor_rejects_float_and_bool_coefficient(coeff):
    with pytest.raises(TypeError, match=re.escape(f"coefficient {coeff!r} of z^1 is not exact")):
        LaurentPoly({1: coeff})
    with pytest.raises(TypeError, match=re.escape(f"coefficient {coeff!r} of z^0 ")):
        LaurentPoly.const(coeff)
    with pytest.raises(TypeError, match=re.escape(f"coefficient {coeff!r} of z^2 ")):
        LaurentPoly.monomial(coeff, 2)


def _is_canonical_scalar(c):
    # an int when integral, a Fraction only with a real denominator; never 0
    return c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))


def test_constructor_accepts_exact_input():
    p = LaurentPoly({-2: 3, 0: Fraction(1, 2), 5: 0})
    assert p.coeffs == {-2: Fraction(3), 0: Fraction(1, 2)}
    assert all(_is_canonical_scalar(c) for c in p.coeffs.values())
    assert LaurentPoly.monomial(Fraction(2, 3), -1) == lp("2/3*z^-1")
    with pytest.raises(TypeError, match="exponent 0.5 "):
        LaurentPoly.monomial(1, 0.5)


# -- canonical form of every kernel's output ------------------------------------


def _assert_canonical_poly(x):
    assert isinstance(x, LaurentPoly)
    for e, c in x.coeffs.items():
        assert type(e) is int and _is_canonical_scalar(c)
    rebuilt = LaurentPoly(x.coeffs)
    assert x == rebuilt and hash(x) == hash(rebuilt)


def _assert_canonical_matrix(M):
    for i in range(M.rows):
        for j in range(M.cols):
            _assert_canonical_poly(M.entry(i, j))
    rebuilt = LaurentMatrix.parse(M.to_strings())
    assert M == rebuilt and hash(M) == hash(rebuilt)


def _naive_product(A, B):
    """A @ B as coefficient maps, by direct convolution of the entries."""
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = {}
            for k in range(A.cols):
                for e1, c1 in A.entry(i, k).coeffs.items():
                    for e2, c2 in B.entry(k, j).coeffs.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
            row.append({e: c for e, c in acc.items() if c != 0})
        out.append(row)
    return out


small_poly_strategy = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.one_of(
            st.integers(min_value=-3, max_value=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
        ),
        max_size=3,
    ),
)


def _matrices(rows, cols):
    return st.lists(
        st.lists(small_poly_strategy, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(LaurentMatrix)


@given(poly_strategy, poly_strategy, st.integers(min_value=-4, max_value=4))
def test_poly_kernels_keep_canonical_form(p, q, k):
    minus_one = LaurentPoly.const(-1)
    cancelling = (p - p, p * -1 + p, p * minus_one + p)
    for x in (p + q, p - q, p * q, -p, p.shift(k), (p + q) * (p - q), *cancelling):
        _assert_canonical_poly(x)
    assert all(x.is_zero for x in cancelling)
    assert (p + q) * (p - q) == p * p - q * q


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda r: st.tuples(_matrices(r, 2), _matrices(2, 2), _matrices(2, 2))
    ),
    st.integers(min_value=-3, max_value=3),
)
def test_matrix_kernels_keep_canonical_form(mats, k):
    A, C, D = mats
    # hstack(A, A) @ vstack(C, D - C) = A @ D: the C-terms cancel entrywise
    A2, B2 = A.hstack(A), C.vstack(D - C)
    results = [
        A + A, A - A, -A, A.shift(k), A @ C, A2 @ B2, A.transpose(), A2, B2,
        B2.submatrix([2, 0], [1]), A.map_entries(lambda x: x * x),
    ]
    for M in results:
        _assert_canonical_matrix(M)
    assert A2 @ B2 == A @ D
    assert (A - A).is_zero
    for X, Y in ((A, C), (A2, B2), (A2, C.vstack(-C)), (B2, A)):
        if X.cols == Y.rows:
            got = X @ Y
            _assert_canonical_matrix(got)
            assert [[got.entry(i, j).coeffs for j in range(got.cols)] for i in range(got.rows)] == (
                _naive_product(X, Y)
            )


# -- zero-aware kernel: sparse products, one shared zero --------------------------


@st.composite
def sparse_factors(draw):
    """A @ B with mostly zero entries, some rows and columns all zero, and
    shapes that include 1 x n @ n x 1 and n x 1 @ 1 x n."""
    dim, one = st.integers(min_value=1, max_value=5), st.just(1)
    shapes = (st.tuples(dim, dim, dim), st.tuples(one, dim, one), st.tuples(dim, one, dim))
    r, n, c = draw(st.one_of(*shapes))

    def matrix(rows, cols):
        zero_rows = draw(st.sets(st.integers(min_value=0, max_value=rows - 1), max_size=rows))
        zero_cols = draw(st.sets(st.integers(min_value=0, max_value=cols - 1), max_size=cols))
        return LaurentMatrix(
            [
                [
                    LaurentPoly.zero()
                    if i in zero_rows or j in zero_cols or draw(st.integers(0, 2))
                    else draw(small_poly_strategy)
                    for j in range(cols)
                ]
                for i in range(rows)
            ]
        )

    return matrix(r, n), matrix(n, c)


def _entries(M):
    return [M.entry(i, j) for i in range(M.rows) for j in range(M.cols)]


def _assert_zeros_shared(M):
    zero = LaurentPoly.zero()
    assert all(x is zero for x in _entries(M) if x.is_zero)


@settings(max_examples=150, deadline=None)
@given(sparse_factors())
def test_sparse_product_matches_the_naive_product(factors):
    A, B = factors
    got = A @ B
    _assert_canonical_matrix(got)
    _assert_zeros_shared(got)
    assert [[got.entry(i, j).coeffs for j in range(got.cols)] for i in range(got.rows)] == (
        _naive_product(A, B)
    )
    # [A | A] @ [B; -B] cancels in every entry
    cancelled = A.hstack(A) @ B.vstack(-B)
    assert all(x is LaurentPoly.zero() for x in _entries(cancelled))


def test_zero_operands_come_back_as_they_are():
    p, zero = lp("2*z^-1 + 1/3 - z^2"), LaurentPoly.zero()
    assert p + zero is p and zero + p is p and p - zero is p and p.shift(0) is p
    assert -zero is zero and zero.shift(3) is zero
    assert p * zero is zero and zero * p is zero and p * 0 is zero and 0 * p is zero
    assert p * Fraction(0) is zero
    # every zero polynomial is the one shared object, however it is made
    made = [LaurentPoly(), LaurentPoly({2: 0}), lp("z - z"), p - p, p + (-p), zero.derivative()]
    assert all(x is zero for x in made)
    assert pickle.loads(pickle.dumps(zero)) is zero


@settings(max_examples=60, deadline=None)
@given(sparse_factors())
def test_matrix_kernels_hand_out_the_shared_zero(factors):
    A, B = factors
    p = lp("z^-1 + 2")
    built = [
        A.kron(B), B.kron(A), A @ B, A + A, A - A, A + (-A), -A, A.shift(2), A.transpose(),
        LaurentMatrix.zeros(2, 3), LaurentMatrix.diag([p, LaurentPoly.zero(), p]),
        LaurentMatrix.identity(3),
    ]
    for M in built:
        _assert_zeros_shared(M)
    assert all(x.is_zero for x in _entries(A - A))


def test_kernels_turn_integral_results_into_ints():
    half, half_z = LaurentPoly.const(Fraction(1, 2)), LaurentPoly.monomial(Fraction(1, 2), 1)
    # A @ B: each product is an integral Fraction; C @ D: the products are not, their sum is
    A, B = LaurentMatrix.parse([["1/2", "1/3*z"]]), LaurentMatrix.parse([["2"], ["3*z^-1"]])
    C, D = LaurentMatrix.parse([["1/2", "1/2*z"]]), LaurentMatrix.parse([["1"], ["z^-1"]])
    cases = [
        (half_z * 2, {1: 1}),
        (half_z * Fraction(2), {1: 1}),
        (2 * half_z, {1: 1}),
        (half_z * LaurentPoly.const(2), {1: 1}),
        (half + half, {0: 1}),
        (half_z - LaurentPoly.monomial(Fraction(-3, 2), 1), {1: 2}),
        (LaurentPoly.monomial(Fraction(1, 2), 2).derivative(), {1: 1}),
        ((A @ B).entry(0, 0), {0: 2}),
        ((C @ D).entry(0, 0), {0: 1}),
        (laurent_parse("4/2*z - 1/3 + 1/3"), {1: 2}),
    ]
    for x, want in cases:
        assert x.coeffs == want
        assert all(type(c) is int for c in x.coeffs.values())
        _assert_canonical_poly(x)


def test_dense_helpers_stay_exact_on_int_input():
    # a reciprocal of an int pivot is Fraction(1, p), never the float 1 / p
    results = [
        (_qinverse([[2, 1], [1, 1]]), [[1, -1], [-1, 2]]),
        (_qinverse([[2, 0], [0, 3]]), [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
        (_qnullspace([[2, 4]], 2), [[-2, 1]]),
        (_qnullspace([[3, 1, 0], [0, 7, 1]], 3), [[Fraction(1, 21), Fraction(-1, 7), 1]]),
        # 1 - (1/49.0)*49 is not 0 in floating point: a float pivot finds rank 2
        (_qnullspace([[49, 49], [1, 1]], 2), [[-1, 1]]),
        (_qnullspace([[2, 1], [1, 1]], 2), []),
        (_qmatmul([[1, 2]], [[3], [4]]), [[11]]),
    ]
    for got, want in results:
        assert got == want
        flat = got if isinstance(got, list) else [[got]]
        assert not any(isinstance(x, float) for row in flat for x in row)


# -- the fraction-free kernels against the Fraction Gauss-Jordan reference ----

scalar_strategy = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def scalar_matrices(draw, square=False):
    """A matrix of ints and Fractions, drawn in full or as a product of two
    thinner ones (rank-deficient), with a zero row sometimes planted."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    if draw(st.booleans()):
        a = draw(st.lists(st.lists(scalar_strategy, min_size=ncols, max_size=ncols),
                          min_size=nrows, max_size=nrows))
    else:
        k = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
        left = draw(st.lists(st.lists(scalar_strategy, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(scalar_strategy, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        a = _qmatmul(left, right)
    if draw(st.booleans()):
        a[draw(st.integers(0, nrows - 1))] = [0] * ncols
    # the kernels take any exact entries, integral Fractions included
    return [[Fraction(x) if draw(st.booleans()) else x for x in row] for row in a]


def _canonical(rows) -> bool:
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for row in rows for x in row)


@settings(max_examples=300, deadline=None)
@given(scalar_matrices(), st.integers(0, 2))
def test_qnullspace_matches_the_fraction_reference(a, extra_cols):
    # extra_cols > 0 makes the matrix wider than drawn, with zero columns
    ncols = len(a[0]) + extra_cols
    a = [row + [0] * extra_cols for row in a]
    before = [row[:] for row in a]
    got = _qnullspace(a, ncols)
    assert got == fraction_nullspace(a, ncols)
    assert _canonical(got) and a == before
    for v in got:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@settings(max_examples=300, deadline=None)
@given(scalar_matrices(square=True))
def test_qinverse_matches_the_fraction_reference(a):
    before = [row[:] for row in a]
    try:
        want = fraction_inverse(a)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _qinverse(a)
        return
    got = _qinverse(a)
    assert got == want
    assert _canonical(got) and a == before


def test_qnullspace_on_empty_zero_wide_and_tall_input():
    assert _qnullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _qnullspace([[0, 0], [0, 0], [0, 0]], 2) == [[1, 0], [0, 1]]
    wide = [[1, Fraction(1, 2), 3, 0], [2, 1, Fraction(7, 3), 1]]
    tall = [[1, 2], [2, 4], [Fraction(1, 2), 1], [0, 0]]
    for a, ncols in ((wide, 4), (tall, 2)):
        got = _qnullspace(a, ncols)
        assert got == fraction_nullspace(a, ncols) and _canonical(got)
    assert _qnullspace(tall, 2) == [[-2, 1]]
    with pytest.raises(ZeroDivisionError):
        _qinverse([[1, Fraction(1, 2)], [2, 1]])


def test_integral_fractions_and_ints_share_memo_keys():
    assert LaurentPoly({0: Fraction(4, 2)}).coeff(0) == 2
    assert type(LaurentPoly({0: Fraction(4, 2)}).coeff(0)) is int
    built = LaurentMatrix(
        [
            [LaurentPoly({1: Fraction(3, 1)}), LaurentPoly({0: Fraction(5, 1), 2: Fraction(7, 1)})],
            [LaurentPoly(), LaurentPoly({0: Fraction(1, 3)})],
        ]
    )
    parsed = LaurentMatrix.parse([["3*z", "5 + 7*z^2"], ["0", "1/3"]])
    E = P1Bundle(2, built)
    hits = _birkhoff_cached.cache_info().hits
    F = P1Bundle(2, parsed)
    assert E == F and hash(E) == hash(F)
    assert _birkhoff_cached.cache_info().hits == hits + 1
    assert built.entry(0, 1).coeffs == {0: 5, 2: 7}
    assert all(type(c) is int for c in built.entry(0, 1).coeffs.values())


def test_sampler_coefficients_are_ints():
    s = Sampler(5)
    assert all(type(s.coefficient()) is int for _ in range(20))
    p = s.laurent(-2, 2, nonzero=True)
    assert all(type(c) is int for c in p.coeffs.values())


def test_rebuilt_transition_hits_the_splitting_memo():
    # a transition made by the kernels and one parsed from its printout are
    # equal and hash alike, so they share one memo entry
    s = Sampler(31)
    E = gauge_transform(split_bundle([2, 0, -1]), s.unimodular_z(3), s.unimodular_w(3))
    hits = _birkhoff_cached.cache_info().hits
    F = P1Bundle(3, LaurentMatrix.parse(E.transition.to_strings()))
    assert F == E and _birkhoff_cached.cache_info().hits == hits + 1


# -- derivative ---------------------------------------------------------------


def test_derivative_examples():
    assert lp("z^3").derivative() == lp("3*z^2")
    assert lp("5").derivative().is_zero
    assert lp("z^-1").derivative() == lp("-z^-2")


@given(poly_strategy, poly_strategy)
def test_derivative_leibniz(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(poly_strategy, poly_strategy)
def test_derivative_additive(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()


# -- polynomial algebra --------------------------------------------------------


@given(poly_strategy, poly_strategy, poly_strategy)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


def test_shift_and_predicates():
    p = lp("1 + z")
    assert p.shift(-1) == lp("z^-1 + 1")
    assert p.is_poly_in_z and not p.is_poly_in_w
    assert p.shift(-1).is_poly_in_w and not p.shift(-1).is_poly_in_z
    assert lp("z^-2 + 1").is_poly_in_w
    assert lp("0").is_poly_in_z and lp("0").is_poly_in_w


# -- matrices -----------------------------------------------------------------


def test_unit_inverse_examples():
    I2 = LaurentMatrix.identity(2)
    assert unit_inverse(I2) == I2
    D = LaurentMatrix.parse([["z", "0"], ["0", "z^-1"]])
    assert unit_inverse(D) == LaurentMatrix.parse([["z^-1", "0"], ["0", "z"]])
    M = LaurentMatrix.parse([["z", "1"], ["0", "z"]])
    Minv = unit_inverse(M)
    assert Minv == LaurentMatrix.parse([["z^-1", "-z^-2"], ["0", "z^-1"]])
    assert M @ Minv == I2


def test_unit_inverse_rejects_non_units():
    with pytest.raises(NotAUnit):
        unit_inverse(LaurentMatrix.parse([["z", "0"], ["0", "0"]]))
    with pytest.raises(NotAUnit):
        unit_inverse(LaurentMatrix.parse([["1 + z", "0"], ["0", "1"]]))
    with pytest.raises(NotSquare):
        unit_inverse(LaurentMatrix.parse([["z", "1"]]))


def test_unit_inverse_involution_on_random_unimodulars():
    s = Sampler(2024)
    for _ in range(25):
        size = s.rng.randint(1, 5)
        A = s.unimodular_z(size, ops=3, max_deg=2)
        B = s.unimodular_w(size, ops=2, max_deg=2)
        M = A @ B  # unit determinant, generally dense
        assert unit_inverse(unit_inverse(M)) == M
        assert M @ unit_inverse(M) == LaurentMatrix.identity(size)


def test_matrix_shape_mismatches():
    A = LaurentMatrix.identity(2)
    B = LaurentMatrix.identity(3)
    with pytest.raises(ValueError):
        A @ LaurentMatrix.zeros(3, 1)
    with pytest.raises(ValueError):
        A + B


def test_kron_mixed_product():
    s = Sampler(5)
    A = s.unimodular_z(2, ops=2)
    B = s.unimodular_w(2, ops=2)
    C = s.unimodular_z(2, ops=1)
    D = s.unimodular_w(2, ops=1)
    assert (A @ C).kron(B @ D) == (A.kron(B)) @ (C.kron(D))
    S = LaurentMatrix.parse([["z^-1", "0"], ["0", "0"]])  # sparse operand
    assert (A @ S).kron(S @ D) == (A.kron(S)) @ (S.kron(D))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_kron_acts_blockwise_on_block_rows(q, r):
    # block a of X (A (x) B) is sum_b A_ba X^(b) B, for X = [X^(1) | ... | X^(q)]
    s = Sampler(100 * q + r)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()

    def draw(rows, cols, special=()):
        return LaurentMatrix(
            [[s.rng.choice(special + (s.laurent(-2, 2),)) for _ in range(cols)] for _ in range(rows)]
        )

    for _ in range(4):
        A, B, X = draw(q, q, (one, zero)), draw(r, r), draw(r, r * q)
        blocks = [X.submatrix(range(r), range(b * r, (b + 1) * r)) for b in range(q)]
        want = None
        for a in range(q):
            block = LaurentMatrix.zeros(r, r)
            for b in range(q):
                block = block + (blocks[b] @ B).scalar_mul(A.entry(b, a))
            want = block if want is None else want.hstack(block)
        K = A.kron(B)
        assert X @ K == want
        rebuilt = LaurentMatrix([K.row_list(i) for i in range(K.rows)])
        assert K == rebuilt and hash(K) == hash(rebuilt)
        _assert_canonical_matrix(K)
