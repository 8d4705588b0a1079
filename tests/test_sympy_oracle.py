"""sympy as an independent oracle for the unit inverse and for the degree
the splitting reduction assigns a transition. Matrices reach sympy through
their coefficient dicts only, so no algconn parsing, printing or arithmetic
sits between the two sides."""

import pytest

sympy = pytest.importorskip("sympy")

from algconn.exact_core import LaurentMatrix, LaurentPoly
from algconn.p1_engine import unit_inverse
from algconn.sampling import Sampler

z = sympy.Symbol("z")


def to_sympy(p: LaurentPoly):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * z**e for e, c in p.coeffs.items())
    )


def to_sympy_matrix(M: LaurentMatrix):
    return sympy.Matrix(M.rows, M.cols, lambda i, j: to_sympy(M.entry(i, j)))


def test_unit_inverse_matches_sympy_inverse():
    s = Sampler(61)
    for rank in range(1, 6):
        E, _ = s.gauged_p1_bundle(max_rank=rank, min_rank=rank, bound=2, ops=2, max_deg=1)
        expected = to_sympy_matrix(E.transition).inv(method="LU")
        got = to_sympy_matrix(unit_inverse(E.transition))
        assert (got - expected).applyfunc(sympy.cancel).is_zero_matrix, rank


def test_det_matches_sympy_det():
    # the degree the splitting reduction fixes, against sympy's det T = c z^deg E
    s = Sampler(62)
    for rank in range(1, 6):
        E, _ = s.gauged_p1_bundle(max_rank=rank, min_rank=rank, bound=2, ops=2, max_deg=1)
        c = sympy.cancel(to_sympy_matrix(E.transition).det(method="berkowitz") / z**E.degree)
        assert c.is_Rational and c != 0, rank
