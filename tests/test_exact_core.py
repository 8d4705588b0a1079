"""Laurent arithmetic: parser, derivative, matrices, unit inverses."""

import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))
from oracles import naive_det

from algconn.errors import LaurentSyntaxError, NotAUnit, NotSquare
from algconn.exact_core import (
    LaurentMatrix,
    LaurentPoly,
    generic_rank,
    laurent_derivative,
    laurent_parse,
    unit_inverse,
)
from algconn.sampling import Sampler


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


coeffs_strategy = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
poly_strategy = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(min_value=-6, max_value=6), coeffs_strategy, max_size=5),
)


@given(poly_strategy)
def test_printer_parser_round_trip(p):
    assert laurent_parse(str(p)) == p


# -- derivative ---------------------------------------------------------------


def test_derivative_examples():
    assert laurent_derivative(lp("z^3")) == lp("3*z^2")
    assert laurent_derivative(lp("5")).is_zero
    assert laurent_derivative(lp("z^-1")) == lp("-z^-2")


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


def test_pow():
    assert lp("1 + z") ** 2 == lp("1 + 2*z + z^2")
    assert lp("z^-1") ** 3 == lp("z^-3")
    with pytest.raises(ValueError):
        lp("z") ** -1


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
        size = s.rng.randint(1, 4)
        A = s.unimodular_z(size, ops=3, max_deg=2)
        B = s.unimodular_w(size, ops=2, max_deg=2)
        M = A @ B  # unit determinant, generally dense
        assert unit_inverse(unit_inverse(M)) == M
        assert M @ unit_inverse(M) == LaurentMatrix.identity(size)


def test_det_multiplicative_and_matches_naive():
    s = Sampler(99)
    for _ in range(20):
        size = s.rng.randint(1, 3)
        M = LaurentMatrix(
            [[s.laurent(-2, 2, max_terms=2) for _ in range(size)] for _ in range(size)]
        )
        N = LaurentMatrix(
            [[s.laurent(-2, 2, max_terms=2) for _ in range(size)] for _ in range(size)]
        )
        assert M.det() == naive_det(M)
        assert (M @ N).det() == M.det() * N.det()


def test_interpolation_path_matches_naive_det():
    s = Sampler(7)
    for _ in range(5):
        M = LaurentMatrix(
            [[s.laurent(-2, 2, max_terms=2) for _ in range(4)] for _ in range(4)]
        )
        assert M.det() == naive_det(M)


def test_generic_rank():
    assert generic_rank(LaurentMatrix.zeros(2, 3)) == 0
    assert generic_rank(LaurentMatrix.identity(3)) == 3
    # rank drops only at special points, not generically
    M = LaurentMatrix.parse([["z", "z^2"], ["1", "z"]])  # det = 0 identically
    assert generic_rank(M) == 1
    N = LaurentMatrix.parse([["z - 1", "0"], ["0", "1"]])  # det vanishes at z=1 only
    assert generic_rank(N) == 2


def test_matrix_shape_mismatches():
    A = LaurentMatrix.identity(2)
    B = LaurentMatrix.identity(3)
    with pytest.raises(ValueError):
        A @ LaurentMatrix.zeros(3, 1)
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(NotSquare):
        LaurentMatrix.zeros(2, 3).det()


def test_kron_mixed_product():
    s = Sampler(5)
    A = s.unimodular_z(2, ops=2)
    B = s.unimodular_w(2, ops=2)
    C = s.unimodular_z(2, ops=1)
    D = s.unimodular_w(2, ops=1)
    assert (A @ C).kron(B @ D) == (A.kron(B)) @ (C.kron(D))
    S = LaurentMatrix.parse([["z^-1", "0"], ["0", "0"]])  # sparse operand
    assert (A @ S).kron(S @ D) == (A.kron(S)) @ (S.kron(D))
