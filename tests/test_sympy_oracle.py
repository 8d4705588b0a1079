"""sympy as an independent oracle for the unit inverse, for the degree
the splitting reduction assigns a transition and for the global sections.
Matrices reach sympy through their coefficient dicts only, so no algconn
parsing, printing or arithmetic sits between the two sides."""

import pytest

sympy = pytest.importorskip("sympy")

from algconn.exact_core import LaurentMatrix, LaurentPoly
from algconn.p1_engine import birkhoff_split, cohomology_dims, global_sections
from algconn.sampling import Sampler

z = sympy.Symbol("z")


def to_sympy(p: LaurentPoly):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * z**e for e, c in p.coeffs.items())
    )


def to_sympy_matrix(M: LaurentMatrix):
    return sympy.Matrix(M.rows, M.cols, lambda i, j: to_sympy(M.entry(i, j)))


def test_transition_inverse_matches_sympy_inverse():
    # adj T / det T by Berkowitz, as the h^0 oracle below: with LU, sympy's
    # is_zero_matrix answers None on the rank-3 bundle of seed 63
    for seed in (61, 63):
        s = Sampler(seed)
        for rank in range(1, 6):
            E, _ = s.gauged_p1_bundle(max_rank=rank, min_rank=rank, bound=2, ops=2, max_deg=1)
            T = to_sympy_matrix(E.transition)
            expected = T.adjugate(method="berkowitz") / T.det(method="berkowitz")
            got = to_sympy_matrix(birkhoff_split(E).transition_inverse)
            assert (got - expected).applyfunc(sympy.cancel).is_zero_matrix, (seed, rank)


def test_det_matches_sympy_det():
    # the degree the splitting reduction fixes, against sympy's det T = c z^deg E
    s = Sampler(62)
    for rank in range(1, 6):
        E, _ = s.gauged_p1_bundle(max_rank=rank, min_rank=rank, bound=2, ops=2, max_deg=1)
        c = sympy.cancel(to_sympy_matrix(E.transition).det(method="berkowitz") / z**E.degree)
        assert c.is_Rational and c != 0, rank


def test_global_sections_match_sympy_solution_space():
    # A section is a polynomial column v with T^(-1) v polynomial in 1/z.
    # Then v = T (T^(-1) v) has degree <= N, the highest exponent of T, so
    # the unknowns are the coefficients of z^0 .. z^N in each entry, and the
    # equations ask every positive power of z in sympy's T^(-1) v to vanish.
    s = Sampler(63)
    for k in range(12):
        rank = 1 + k % 4
        E, _ = s.gauged_p1_bundle(max_rank=rank, min_rank=rank, bound=2, ops=2, max_deg=1)
        r = E.rank
        n = max([0] + [max(E.transition.entry(i, j).coeffs, default=0)
                       for i in range(r) for j in range(r)])
        T = to_sympy_matrix(E.transition)
        t_inv = T.adjugate(method="berkowitz") / T.det(method="berkowitz")
        columns = []  # one per unknown: the positive-power coefficients of T^(-1) z^m e_i
        for i in range(r):
            for m in range(n + 1):
                col = {}
                for row in range(r):
                    term = sympy.expand(sympy.cancel(t_inv[row, i] * z**m))
                    for (up, down), c in sympy.Poly(term, z, 1 / z).terms():
                        if up > down:
                            col[row, up - down] = col.get((row, up - down), 0) + c
                columns.append(col)
        keys = sorted({key for col in columns for key in col})
        A = sympy.Matrix(len(keys), len(columns), lambda e, u: columns[u].get(keys[e], 0))
        h0 = cohomology_dims(E)[0]
        assert len(columns) - A.rank() == h0, (k, r)
        coords = []
        for sec in global_sections(E):
            x = [0] * len(columns)
            for i in range(r):
                for m, c in sec.chart0_rep.entry(i, 0).coeffs.items():
                    assert 0 <= m <= n, (k, m)
                    x[i * (n + 1) + m] = sympy.Rational(c.numerator, c.denominator)
            assert (A * sympy.Matrix(x)).is_zero_matrix, k
            coords.append(x)
        assert sympy.Matrix(coords).rank() == h0, k
