"""Laurent arithmetic: parser, derivative, matrices, unit inverses."""

import copy
import math
import os
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algconn.errors import LaurentSyntaxError, NotAUnit, SchemaError
from algconn.exact_core import (
    LaurentMatrix,
    LaurentPoly,
    _content,
    _int_free_column,
    _int_row,
    _inverse_holds,
    _lifted_product,
    _parse_entries,
    _parsed,
    _ratio,
    laurent_parse,
)
from algconn.p1_engine import (
    P1Bundle,
    _birkhoff_cached,
    birkhoff_split,
    gauge_transform,
    split_bundle,
)
from algconn.sampling import Sampler

sys.path.insert(0, os.path.dirname(__file__))
from oracles import (
    fraction_laurent_product,
    fraction_laurent_sum,
    fraction_matmul,
    fraction_nullspace,
    split_diagonal,
)


def lp(s: str) -> LaurentPoly:
    return laurent_parse(s)


def unit_inv(M: LaurentMatrix) -> LaurentMatrix:
    """M^(-1) over the Laurent ring, read off the certified splitting of
    the bundle with transition M; raises NotAUnit when M is no unit."""
    return birkhoff_split(P1Bundle(M)).transition_inverse


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


# -- the parse memo behind the JSON readers ----------------------------------


@pytest.fixture
def cold_memo():
    _parsed.cache_clear()


def test_equal_texts_read_as_one_object(cold_memo):
    a, b, c = _parse_entries(["3/2*z^-1 + 1", "z", "3/2*z^-1 + 1"], "x")
    assert a is c and a == lp("3/2*z^-1 + 1") and b == lp("z")
    assert _parse_entries(["3/2*z^-1 + 1"], "y")[0] is a


@pytest.mark.parametrize("text", ["z^", "1/0", "2 2", "z + 3/0*z^2", ""])
def test_a_bad_text_raises_afresh_and_is_never_memoised(cold_memo, text):
    with pytest.raises(LaurentSyntaxError) as direct:
        laurent_parse(text)
    size = _parsed.cache_info().currsize
    for _ in range(2):  # the first read and the second
        with pytest.raises(SchemaError) as err:
            _parse_entries([text], "x")
        assert str(err.value) == f"bad x 0: {direct.value}"
        assert err.value.__cause__.position == direct.value.position
        assert _parsed.cache_info().currsize == size


def test_a_long_text_parses_directly_and_never_enters_the_memo(cold_memo):
    text = " + ".join(f"{k}*z^{k}" for k in range(1, 12))
    assert len(text) > 64
    before = _parsed.cache_info()
    assert _parse_entries([text], "x") == [LaurentPoly({k: k for k in range(1, 12)})]
    assert _parsed.cache_info() == before  # not even looked up
    # a text of exactly 64 characters is memoised
    assert _parse_entries(["1" + " " * 63], "x") == [LaurentPoly.one()]
    assert _parsed.cache_info().currsize == before.currsize + 1


@given(st.lists(poly_strategy, min_size=1, max_size=8))
def test_parse_entries_round_trip_cold_and_warm(polys):
    _parsed.cache_clear()
    texts = [str(p) for p in polys]
    assert _parse_entries(texts, "x") == polys  # cold
    misses = _parsed.cache_info().misses
    assert _parse_entries(texts, "x") == polys  # warm
    assert _parsed.cache_info().misses == misses


# -- the public constructor validates -------------------------------------------


@pytest.mark.parametrize("exp", [1.5, 2.0, Fraction(1), "1", True, None])
def test_constructor_rejects_non_int_exponent(exp):
    with pytest.raises(TypeError, match=re.escape(f"exponent {exp!r} is not an int")):
        LaurentPoly({exp: 1})
    # z and monomial wrap int input unchecked, so they must still refuse the rest
    for make in (lambda: LaurentPoly.z(exp), lambda: LaurentPoly.monomial(2, exp)):
        with pytest.raises(TypeError, match=re.escape(f"exponent {exp!r} is not an int")):
            make()


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


@given(poly_strategy, poly_strategy, st.sampled_from([0, 1, -1]))
def test_sums_match_the_fraction_reference(p, q, tie):
    if tie:  # q = p or q = -p, so that p - q or p + q cancels to zero
        q = p * tie
    a, b = p.coeffs, q.coeffs
    for got, want in ((p + q, [(a, 0, 1), (b, 0, 1)]), (p - q, [(a, 0, 1), (b, 0, -1)])):
        assert got.coeffs == fraction_laurent_sum(want)
        assert all(_is_canonical_scalar(c) for c in got.coeffs.values())


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
        B2.submatrix([2, 0], [1]), A.scalar_mul(A.entry(0, 0)),
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


# -- zero-aware kernel: sparse products, one shared zero and one shared unit ------


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


def test_every_unit_polynomial_is_the_one_shared_object():
    one = LaurentPoly.one()
    z = LaurentPoly.z(1)
    A = LaurentMatrix.parse([["1", "z"], ["0", "1"]])
    A_inv = LaurentMatrix.parse([["1", "-z"], ["0", "1"]])
    made = [
        LaurentPoly({0: 1}), LaurentPoly({0: Fraction(2, 2)}), LaurentPoly.const(1),
        LaurentPoly.monomial(1, 0), laurent_parse("1"), laurent_parse("2 - 1"),
        one * one, z.shift(-1), lp("z^-1") * z, lp("1/2") * 2,
        pickle.loads(pickle.dumps(one)), copy.copy(one), copy.deepcopy(one),
    ]
    made += [LaurentMatrix.identity(4).entry(i, i) for i in range(4)]
    made += [(A @ A_inv).entry(i, i) for i in range(2)] + [(A_inv @ A).entry(1, 1)]
    assert all(x is one for x in made)
    assert one == LaurentPoly({0: 1}) and hash(one) == hash(LaurentPoly.const(1))


def test_int_monomials_are_the_validated_values():
    assert LaurentPoly.z(0) is LaurentPoly.one() and LaurentPoly.monomial(1, 0) is LaurentPoly.one()
    assert LaurentPoly.monomial(0, 5) is LaurentPoly.zero()
    assert LaurentPoly.monomial(Fraction(0), 5) is LaurentPoly.zero()
    for c in (1, -3, 10**30, Fraction(6, 3), Fraction(-2, 7)):
        for e in (-4, 0, 3):
            want = LaurentPoly({e: c})
            for got in (LaurentPoly.monomial(c, e), LaurentPoly.z(e) * c):
                assert got == want and hash(got) == hash(want)
                _assert_canonical_poly(got)
    assert LaurentPoly.z(-2) == LaurentPoly({-2: 1}) and LaurentPoly.z() == lp("z")


def test_the_shared_unit_is_immutable():
    one = LaurentPoly.one()
    for name in ("_coeffs", "_hash", "anything"):
        with pytest.raises(AttributeError):
            setattr(one, name, {})
        with pytest.raises(AttributeError):
            delattr(one, name)
    assert one.coeffs == {0: 1} and str(one) == "1"
    one.coeffs[0] = 5  # a copy: the shared map is not handed out
    assert LaurentPoly.one().coeff(0) == 1


def test_kron_with_a_unit_left_entry_reuses_the_right_rows():
    B = LaurentMatrix.parse([["z + 1", "0"], ["2*z^-1", "1/3"]])
    K = LaurentMatrix.parse([["1", "0"], ["z", "1"]]).kron(B)
    for p in range(2):
        row = [K.entry(p, j) for j in range(4)]
        assert all(x is y for x, y in zip(row[:2], B.row_list(p)))  # left entry 1
        assert all(x is LaurentPoly.zero() for x in row[2:])  # left entry 0
        bottom = [K.entry(2 + p, j) for j in range(4)]
        assert all(x is y for x, y in zip(bottom[2:], B.row_list(p)))
        assert bottom[:2] == [LaurentPoly.z(1) * b for b in B.row_list(p)]


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


# -- one-term and unit factors: one pass, or the operand itself ------------------


one_term_strategy = st.builds(
    LaurentPoly.monomial,
    st.one_of(
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    ),
    st.integers(min_value=-3, max_value=3),
)


def test_one_term_factor_with_an_integral_fraction_product_gives_ints():
    m, p = lp("2*z"), lp("1/2 + 3/2*z^2")
    want = lp("z + 3*z^3")
    products = [m * p, p * m, (LaurentMatrix([[m]]) @ LaurentMatrix([[p]])).entry(0, 0)]
    products += [LaurentMatrix([[m]]).kron(LaurentMatrix([[p]])).entry(0, 0)]
    for x in products:
        assert x.coeffs == {1: 1, 3: 3}
        assert all(type(c) is int for c in x.coeffs.values())
        assert x == want and hash(x) == hash(want)
    # int times int stays an int, and a one-term product equal to 1 is the shared unit
    assert all(type(c) is int for c in (lp("3*z^-1") * lp("2 - z")).coeffs.values())
    assert lp("2*z") * lp("1/2*z^-1") is LaurentPoly.one()


def test_unit_factors_come_back_as_the_other_operand():
    one = LaurentPoly.one()
    p = lp("2*z^-1 + 1/3 - z^2")
    assert p * one is p and one * p is p
    A = LaurentMatrix.parse([["z + 1", "0", "1/2*z^-1"], ["3", "z^2 - z", "1"]])
    I2, I3 = LaurentMatrix.identity(2), LaurentMatrix.identity(3)
    for M in (I2 @ A, A @ I3, A.kron(LaurentMatrix([[one]])), LaurentMatrix([[one]]).kron(A)):
        assert M.shape == A.shape
        assert all(M.entry(i, j) is A.entry(i, j) for i in range(2) for j in range(3))


def test_a_unit_one_by_one_factor_is_the_other_operand():
    one = LaurentMatrix([[LaurentPoly.one()]])
    row = LaurentMatrix.parse([["z + 1", "0", "1/2*z^-1"]])
    col = LaurentMatrix.parse([["z^2 - 1"], ["1/3"]])
    for A in (row, col, LaurentMatrix.parse([["2*z", "1"], ["0", "z^-1"]])):
        assert one.kron(A) is A
    assert one @ row is row and col @ one is col
    assert one @ one is one and one.kron(one) is one
    # a 1 x 1 factor other than [[1]] multiplies every entry
    two = LaurentMatrix.parse([["2"]])
    assert two @ row == LaurentMatrix.parse([["2*z + 2", "0", "z^-1"]])
    assert col @ two == LaurentMatrix.parse([["2*z^2 - 2"], ["2/3"]])
    assert two.kron(col) == col @ two


one_by_one_strategy = st.one_of(
    small_poly_strategy,
    one_term_strategy,
    st.just(LaurentPoly.zero()),
    st.just(LaurentPoly.one()),
)


@settings(max_examples=200, deadline=None)
@given(one_by_one_strategy, one_by_one_strategy)
def test_one_by_one_products_match_the_naive_product(p, q):
    P, Q = LaurentMatrix([[p]]), LaurentMatrix([[q]])
    for got in (P @ Q, P.kron(Q)):
        x = got.entry(0, 0)
        assert got.shape == (1, 1) and [[x.coeffs]] == _naive_product(P, Q)
        _assert_canonical_poly(x)
        if x.is_zero:
            assert x is LaurentPoly.zero()


def test_single_contribution_entry_that_cancels_inside():
    # (1 + z)(1 - z): one a_ik * b_kj reaches the entry, and its z-terms cancel
    A = LaurentMatrix.parse([["1 + z", "0"], ["0", "z"]])
    B = LaurentMatrix.parse([["1 - z", "0"], ["5", "z^-1"]])
    got = A @ B
    assert got.entry(0, 0).coeffs == {0: 1, 2: -1}
    assert got.entry(0, 1) is LaurentPoly.zero()
    assert got.entry(1, 0).coeffs == {1: 5} and got.entry(1, 1) is LaurentPoly.one()
    _assert_canonical_matrix(got)


def test_two_contributions_that_cancel_give_the_shared_zero():
    # z * 1 + 1 * (-z) = 0, and z * (1 - z) + (-1) * (z - z^2) = 0
    for row, col in ((["z", "1"], ["1", "-z"]), (["z", "-1"], ["1 - z", "z - z^2"])):
        got = LaurentMatrix.parse([row]) @ LaurentMatrix.parse([[c] for c in col])
        assert got.entry(0, 0) is LaurentPoly.zero()


@settings(max_examples=200, deadline=None)
@given(one_term_strategy, small_poly_strategy)
def test_one_term_products_match_the_naive_product(m, p):
    M, P = LaurentMatrix([[m]]), LaurentMatrix([[p]])
    for want, got in (
        (_naive_product(M, P), [m * p, (M @ P).entry(0, 0), M.kron(P).entry(0, 0)]),
        (_naive_product(P, M), [p * m, (P @ M).entry(0, 0), P.kron(M).entry(0, 0)]),
    ):
        for x in got:
            assert [[x.coeffs]] == want
            _assert_canonical_poly(x)
            if x.is_zero:
                assert x is LaurentPoly.zero()


@settings(max_examples=100, deadline=None)
@given(sparse_factors())
def test_chart_predicates_match_their_definition(factors):
    for M in factors:
        exps = [e for x in _entries(M) for e in x.coeffs]
        assert M.is_zero == (not exps)
        assert M.is_poly_in_z == all(e >= 0 for e in exps)
        assert M.is_poly_in_w == all(e <= 0 for e in exps)
        for x in _entries(M):
            assert x.is_poly_in_z == all(e >= 0 for e in x.coeffs)
            assert x.is_poly_in_w == all(e <= 0 for e in x.coeffs)


def free_column(a, ncols) -> int:
    """The rank test of SplittingData's U1(0) clause: forward elimination
    of the rows scaled to integers, which returns the first column with no
    pivot, ncols exactly when the rows have rank ncols."""
    rows = [_int_row(row) for row in a]
    got = _int_free_column(rows, ncols)
    assert all(type(x) is int for row in rows for x in row)
    return got


def test_dense_helpers_stay_exact_on_int_input():
    # no step divides two ints, so no float enters the elimination
    assert free_column([[2, 4]], 2) == 1
    assert free_column([[3, 1, 0], [0, 7, 1]], 3) == 2
    # 1 - (1/49.0)*49 is not 0 in floating point: a float pivot finds rank 2
    assert free_column([[49, 49], [1, 1]], 2) == 1
    assert free_column([[2, 1], [1, 1]], 2) == 2


def test_content_makes_exact_rationals_primitive_integers():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for values, want in (([4, -6, 10], 2), ([3], 3), ([-3], 3), ([0, 5, 0], 5), ([1, 2], 1),
                         ([half, third], Fraction(1, 6)), ([Fraction(3, 2), 3], Fraction(3, 2)),
                         ([Fraction(-4, 3), Fraction(8, 9)], Fraction(4, 9))):
        got = _content(values)
        assert got == want and type(got) is type(want)
        quotients = [Fraction(x) / got for x in values]
        assert all(q.denominator == 1 for q in quotients)
        assert math.gcd(*[q.numerator for q in quotients]) == 1


def test_ratio_is_canonical_on_ints_and_fractions():
    # the w-chart divides Fraction coefficients by Fraction pivots with it
    half, third = Fraction(1, 2), Fraction(1, 3)
    for n, d, want in ((6, 3, 2), (-3, 2, Fraction(-3, 2)), (half, third, Fraction(3, 2)),
                       (half, Fraction(1, 4), 2), (3, -half, -6), (-third, 2, Fraction(-1, 6)),
                       (0, third, 0)):
        got = _ratio(n, d)
        assert got == want and type(got) is type(want)


# -- the fraction-free kernels against the Fraction Gauss-Jordan reference ----

scalar_strategy = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def scalar_matrices(draw):
    """A matrix of ints and Fractions, drawn in full or as a product of two
    thinner ones (rank-deficient), with a zero row sometimes planted."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    if draw(st.booleans()):
        a = draw(st.lists(st.lists(scalar_strategy, min_size=ncols, max_size=ncols),
                          min_size=nrows, max_size=nrows))
    else:
        k = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
        left = draw(st.lists(st.lists(scalar_strategy, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(scalar_strategy, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        a = fraction_matmul(left, right)
    if draw(st.booleans()):
        a[draw(st.integers(0, nrows - 1))] = [0] * ncols
    # the kernels take any exact entries, integral Fractions included
    return [[Fraction(x) if draw(st.booleans()) else x for x in row] for row in a]


def first_free_column(a, ncols) -> int:
    """The column of the 1 in the first vector of the Fraction reference
    basis (the vector is zero past it), or ncols when there is none."""
    basis = fraction_nullspace(a, ncols)
    return max(j for j, x in enumerate(basis[0]) if x) if basis else ncols


@settings(max_examples=300, deadline=None)
@given(scalar_matrices(), st.integers(0, 2))
def test_the_rank_test_matches_the_fraction_reference(a, extra_cols):
    # extra_cols > 0 makes the matrix wider than drawn, with zero columns
    ncols = len(a[0]) + extra_cols
    a = [row + [0] * extra_cols for row in a]
    before = [row[:] for row in a]
    assert free_column(a, ncols) == first_free_column(a, ncols)
    assert a == before


# -- the lifted product and the one-pass identity decision ---------------------


@st.composite
def lifted_factors(draw):
    """A (r x n) and B (n x c) with their denominators in A, in B, in both or
    in neither, and one shift per column of B. Half the time A becomes
    [A | A] and B becomes [B; -B], so that every entry cancels to zero."""
    r, n, c = (draw(st.integers(1, 4)) for _ in range(3))
    where = draw(st.sampled_from(["neither", "left", "right", "both"]))

    def matrix(rows, cols, rational):
        den = st.integers(1, 6) if rational else st.just(1)
        return LaurentMatrix([
            [LaurentPoly({e: Fraction(x, draw(den)) for e, x in draw(st.dictionaries(
                st.integers(-3, 3), st.integers(-4, 4), max_size=3)).items()})
             if draw(st.integers(0, 3)) else LaurentPoly.zero()
             for _ in range(cols)]
            for _ in range(rows)
        ])

    A = matrix(r, n, where in ("left", "both"))
    B = matrix(n, c, where in ("right", "both"))
    if draw(st.booleans()):
        A, B = A.hstack(A), B.vstack(-B)
    shifts = draw(st.lists(st.integers(-3, 3), min_size=c, max_size=c))
    return A, B, shifts


@settings(max_examples=200, deadline=None)
@given(lifted_factors())
def test_lifted_product_matches_the_product_and_the_fraction_reference(factors):
    A, B, shifts = factors
    got = _lifted_product(A, B, shifts)
    assert got == A @ B @ split_diagonal(shifts)
    assert [[got.entry(i, j).coeffs for j in range(got.cols)] for i in range(got.rows)] == (
        fraction_laurent_product(A, B, shifts)
    )
    _assert_canonical_matrix(got)
    _assert_zeros_shared(got)


def test_lifted_product_divides_once_and_keeps_canonical_scalars():
    # column 0 of B is over 6, column 1 over 1; A holds a denominator in row 1
    A = LaurentMatrix.parse([["3", "2"], ["1/2", "0"]])
    B = LaurentMatrix.parse([["1/2 + 1/3*z", "z"], ["1/4*z", "-1"]])
    got = _lifted_product(A, B, [1, -1])
    assert got == LaurentMatrix.parse(
        [["3/2*z + 3/2*z^2", "3 - 2*z^-1"], ["1/4*z + 1/6*z^2", "1/2"]])
    _assert_canonical_matrix(got)
    # 2/3 * 3/2 is the int 1, and 2/3 * z - 2/3 * z, summed over the
    # denominator 3 of column 1, is the shared zero
    one = _lifted_product(LaurentMatrix.parse([["2/3", "1"]]),
                          LaurentMatrix.parse([["3/2", "z"], ["0", "-2/3*z"]]), [0, 0])
    assert one.entry(0, 0) is LaurentPoly.one() and type(one.entry(0, 0).coeff(0)) is int
    assert one.entry(0, 1) is LaurentPoly.zero()
    cancelled = _lifted_product(LaurentMatrix.parse([["1", "1"]]),
                                LaurentMatrix.parse([["1/3*z"], ["-1/3*z"]]), [2])
    assert cancelled.entry(0, 0) is LaurentPoly.zero()


def _one_at(r: int, i: int, j: int, x: LaurentPoly) -> LaurentMatrix:
    return LaurentMatrix([[x if (a, b) == (i, j) else LaurentPoly.zero() for b in range(r)]
                          for a in range(r)])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_inverse_holds_agrees_with_the_product_on_near_misses(seed, kind):
    s = Sampler(seed)
    r = s.rng.randint(1, 4)
    U = s.unimodular_z(r, ops=3, max_deg=2)
    V = unit_inv(U)
    i, j = s.rng.randrange(r), s.rng.randrange(r)
    e = next(iter(V.entry(i, j).coeffs), 0)
    identity = LaurentMatrix.identity(r)
    near = [
        V,  # the inverse itself
        V + _one_at(r, i, j, LaurentPoly.monomial(Fraction(1, 3), e)),  # one coefficient off
        V + _one_at(r, i, (i + 1) % r, LaurentPoly.z(1)),  # a term added off the diagonal
        V @ (identity - _one_at(r, j, j, LaurentPoly.one())),  # a diagonal 1 missing
        V @ (identity - _one_at(r, j, j, LaurentPoly.const(Fraction(1, 2)))),  # one scaled by 1/2
        V.scalar_mul(-1),  # every diagonal 1 made -1
    ][kind]
    assert _inverse_holds(U, near) == (U @ near == identity)
    assert _inverse_holds(U, V) and _inverse_holds(V, U)


def test_inverse_holds_on_fixed_near_misses():
    U = LaurentMatrix.parse([["1", "z"], ["0", "2"]])
    V = LaurentMatrix.parse([["1", "-1/2*z"], ["0", "1/2"]])
    assert U @ V == LaurentMatrix.identity(2) and _inverse_holds(U, V)
    for B in (
        LaurentMatrix.parse([["1", "-1/2*z"], ["0", "1/3"]]),  # a diagonal 1 scaled
        LaurentMatrix.parse([["1", "-1/2*z + z^2"], ["0", "1/2"]]),  # an off-diagonal term
        LaurentMatrix.parse([["1", "-1/2*z"], ["0", "0"]]),  # a diagonal 1 missing
        LaurentMatrix.parse([["1 + z", "-1/2*z"], ["0", "1/2"]]),  # one coefficient off
        LaurentMatrix.parse([["0", "-1/2*z"], ["0", "1/2"]]),  # an entry no term reaches
    ):
        assert U @ B != LaurentMatrix.identity(2)
        assert not _inverse_holds(U, B)
    assert _inverse_holds(LaurentMatrix.identity(1), LaurentMatrix.identity(1))
    assert not _inverse_holds(LaurentMatrix.parse([["0"]]), LaurentMatrix.parse([["0"]]))


def test_the_rank_test_on_empty_zero_wide_and_tall_input():
    assert free_column([], 3) == 0
    assert free_column([[0, 0], [0, 0], [0, 0]], 2) == 0
    wide = [[1, Fraction(1, 2), 3, 0], [2, 1, Fraction(7, 3), 1]]
    tall = [[1, 2], [2, 4], [Fraction(1, 2), 1], [0, 0]]
    for a, ncols in ((wide, 4), (tall, 2)):
        assert free_column(a, ncols) == first_free_column(a, ncols)
    assert free_column(tall, 2) == 1
    # the first free column is 1; the pivot of column 2 after it changes nothing
    assert free_column([[1, 2, 0], [0, 0, 5]], 3) == 1


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
    E = P1Bundle(built)
    hits = _birkhoff_cached.cache_info().hits
    F = P1Bundle(parsed)
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
    F = P1Bundle(LaurentMatrix.parse(E.transition.to_strings()))
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


def test_transition_inverse_examples():
    I2 = LaurentMatrix.identity(2)
    assert unit_inv(I2) == I2
    D = LaurentMatrix.parse([["z", "0"], ["0", "z^-1"]])
    assert unit_inv(D) == LaurentMatrix.parse([["z^-1", "0"], ["0", "z"]])
    M = LaurentMatrix.parse([["z", "1"], ["0", "z"]])
    Minv = unit_inv(M)
    assert Minv == LaurentMatrix.parse([["z^-1", "-z^-2"], ["0", "z^-1"]])
    assert M @ Minv == I2


def test_transition_inverse_rejects_non_units():
    with pytest.raises(NotAUnit):
        unit_inv(LaurentMatrix.parse([["z", "0"], ["0", "0"]]))
    with pytest.raises(NotAUnit):
        unit_inv(LaurentMatrix.parse([["1 + z", "0"], ["0", "1"]]))


def test_transition_inverse_involution_on_random_unimodulars():
    s = Sampler(2024)
    for _ in range(25):
        size = s.rng.randint(1, 5)
        A = s.unimodular_z(size, ops=3, max_deg=2)
        B = s.unimodular_w(size, ops=2, max_deg=2)
        M = A @ B  # unit determinant, generally dense
        assert unit_inv(unit_inv(M)) == M
        assert M @ unit_inv(M) == LaurentMatrix.identity(size)


def test_matrix_shape_mismatches():
    A = LaurentMatrix.identity(2)
    B = LaurentMatrix.identity(3)
    with pytest.raises(ValueError):
        A @ LaurentMatrix.zeros(3, 1)
    with pytest.raises(ValueError):
        A + B


@pytest.mark.parametrize(
    "op",
    [
        lambda: LaurentPoly({1: 2}) * 1.5,
        lambda: 1.5 * LaurentPoly({1: 2}),
        lambda: LaurentPoly({1: 2}) + 1,
        lambda: LaurentPoly({1: 2}) - 1,
        lambda: LaurentPoly({1: 2}) * LaurentMatrix.parse([["1"]]),
        lambda: LaurentMatrix.parse([["1"]]) @ 2,
        lambda: LaurentMatrix.parse([["1"]]) + 1,
        lambda: LaurentMatrix.parse([["1"]]) - LaurentPoly.one(),
    ],
    ids=["poly*float", "float*poly", "poly+int", "poly-int", "poly*matrix", "matrix@int",
         "matrix+int", "matrix-poly"],
)
def test_a_foreign_operand_raises_type_error(op):
    # the operators return NotImplemented for an operand without the slot
    # they read, so Python raises TypeError, not an AttributeError
    with pytest.raises(TypeError):
        op()


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
