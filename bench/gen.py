"""Seeded benchmark inputs, and the small Laurent arithmetic that builds and
checks them.

Nothing here imports algconn. The generator writes every input as JSON text
in the library's documented schemas, so the program under test receives
only that text, and later edits to ``algconn.sampling`` cannot change what
the benchmark measures. The same arithmetic re-checks the program's answers
(``checks.py``), so those checks do not share the library's machinery.

A Laurent polynomial is a dict ``exponent -> nonzero Fraction``; a matrix is
a list of rows of such dicts.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

# -- Laurent polynomials ------------------------------------------------------


def p_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_scale(p: dict, c) -> dict:
    return {e: c * x for e, x in p.items()} if c else {}


def p_shift(p: dict, k: int) -> dict:
    return {e + k: c for e, c in p.items()}


def p_deriv(p: dict) -> dict:
    return {e - 1: e * c for e, c in p.items() if e}


def mono(c, e: int) -> dict:
    return {e: Fraction(c)} if c else {}


_TERM = re.compile(r"([+-]?)\s*(?:(\d+)(?:/(\d+))?(?:\*z(?:\^([+-]?\d+))?)?|z(?:\^([+-]?\d+))?)")


def p_parse(text: str) -> dict:
    """Parse the library's printed form, e.g. ``-3/2*z^-1 + z - 4``."""
    compact = text.replace(" ", "")
    out: dict = {}
    pos = 0
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if m is None or m.end() == pos or (pos and not m.group(1)):
            raise ValueError(f"cannot parse Laurent term at {pos} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(2) is not None:
            coef = Fraction(int(m.group(2)), int(m.group(3) or 1))
            exp = int(m.group(4)) if m.group(4) else (1 if "z" in m.group(0) else 0)
        else:
            coef = Fraction(1)
            exp = int(m.group(5)) if m.group(5) else 1
        out = p_add(out, {exp: sign * coef})
        pos = m.end()
    return out


def p_format(p: dict) -> str:
    """Print in the input grammar, highest exponent first."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
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


# -- matrices -----------------------------------------------------------------


def m_identity(n: int) -> list:
    return [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]


def m_diag(entries: list) -> list:
    n = len(entries)
    return [[entries[i] if i == j else {} for j in range(n)] for i in range(n)]


def m_mul(A: list, B: list) -> list:
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc: dict = {}
            for k, a in enumerate(row):
                if a and B[k][j]:
                    acc = p_add(acc, p_mul(a, B[k][j]))
            new.append(acc)
        out.append(new)
    return out


def m_add(A: list, B: list) -> list:
    return [[p_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def m_scale(A: list, c: dict) -> list:
    return [[p_mul(a, c) for a in row] for row in A]


def m_deriv(A: list) -> list:
    return [[p_deriv(a) for a in row] for row in A]


def m_strings(A: list) -> list:
    return [[p_format(a) for a in row] for row in A]


def m_parse(rows: list) -> list:
    return [[p_parse(s) for s in row] for row in rows]


def poly_in_z(A: list) -> bool:
    return all(e >= 0 for row in A for a in row for e in a)


def poly_in_w(A: list) -> bool:
    return all(e <= 0 for row in A for a in row for e in a)


def q_det(rows: list) -> Fraction:
    """Determinant of a rational matrix by exact Gaussian elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def q_rank(rows: list) -> int:
    a = [list(r) for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][c] != 0:
                f = a[r][c] / a[rank][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def has_constant_det(A: list) -> bool:
    """Is det(A) a nonzero constant? A is polynomial in z or in 1/z; its det
    has degree at most n times the largest entry degree, so that many + 1
    exact evaluations decide it."""
    n = len(A)
    sign = 1 if poly_in_z(A) else -1
    deg = max((abs(e) for row in A for a in row for e in a), default=0)
    values = set()
    for x in range(1, n * deg + 2):
        pt = Fraction(x) ** sign
        values.add(q_det([[sum(c * pt**e for e, c in a.items()) for a in row] for row in A]))
    return len(values) == 1 and 0 not in values


# -- random inputs ------------------------------------------------------------


class Draw:
    """Two random streams for one case.

    ``shape`` fixes what sets the cost of a case: ranks, the hidden
    splitting type, which entries the frame changes touch, with which
    exponents and in which row order. It depends only on the workload and
    the case's place in the list. ``value`` draws the nonzero coefficients
    and signs, and depends on the seed too. So every seed runs the same mix
    of case costs on different numbers. That keeps the run-to-run spread of
    the percentiles small without repeating an input.

    String seeds hash through SHA-512, so both streams are stable across
    processes and Python builds."""

    def __init__(self, workload: str, seed: int, stream: str, index: int):
        self.shape = random.Random(f"algconn-bench:shape:{workload}:{stream}:{index}")
        self.value = random.Random(f"algconn-bench:value:{workload}:{seed}:{stream}:{index}")

    def coeff(self, bound: int = 2) -> Fraction:
        return Fraction(self.value.choice([c for c in range(-bound, bound + 1) if c]))

    def poly(self, lo: int, hi: int, terms: int, bound: int = 2) -> dict:
        """A polynomial with 1..terms terms at distinct exponents in [lo, hi]
        and nonzero coefficients, so its support is fixed by the shape."""
        count = min(self.shape.randint(1, terms), hi - lo + 1)
        return {e: self.coeff(bound) for e in sorted(self.shape.sample(range(lo, hi + 1), count))}


def unimodular(d: Draw, n: int, ops: int, lo: int, hi: int) -> tuple[list, list]:
    """(M, M^-1) for M = scale * permutation * elementary row operations with
    polynomial multipliers whose exponents lie in [lo, hi]."""
    M, Minv = m_identity(n), m_identity(n)
    for _ in range(ops):
        i, j = d.shape.sample(range(n), 2)
        p = d.poly(lo, hi, 2)
        # M <- (I + p e_ij) M adds p * row j to row i; M^-1 <- M^-1 (I - p e_ij)
        # subtracts p * column i from column j
        M[i] = [p_add(a, p_mul(p, b)) for a, b in zip(M[i], M[j])]
        for row in Minv:
            row[j] = p_add(row[j], p_scale(p_mul(row[i], p), -1))
    perm = list(range(n))
    d.shape.shuffle(perm)
    scale = [d.coeff() for _ in range(n)]
    # row k of P is scale[k] at column perm[k]
    PM = [[p_scale(a, scale[k]) for a in M[perm[k]]] for k in range(n)]
    Minv_Pinv = [[p_scale(row[perm[k]], 1 / scale[k]) for k in range(n)] for row in Minv]
    return PM, Minv_Pinv


def gauged(d: Draw, exps: list, ops: int, deg: int) -> tuple[list, list]:
    """(T, T^-1) for T = A * diag(z^a) * B, A unimodular over the z-chart
    ring and B over the w-chart ring: a bundle whose splitting type ``exps``
    is hidden by the frame changes."""
    n = len(exps)
    A, Ainv = unimodular(d, n, ops, 0, deg)
    B, Binv = unimodular(d, n, ops, -deg, 0)
    AD = [[p_shift(a, exps[c]) for c, a in enumerate(row)] for row in A]
    Binv_Dinv = [[p_shift(b, -exps[c]) for c, b in enumerate(row)] for row in Binv]
    return m_mul(AD, B), m_mul(Binv_Dinv, Ainv)


def bundle_doc(T: list) -> dict:
    return {"rank": len(T), "transition": m_strings(T)}


def line_atoms(exps: list) -> list:
    return [{"rank": 1, "degree": a, "stability": "stable", "label": f"O({a})",
             "is_tangent": False} for a in exps]


def anchor_case(d: Draw, kind: str) -> dict:
    """A nonzero anchor V -> TX with V of the given kind, the transpose
    inverse of V's transition, and the formal descriptor of the algebroid
    when the criterion decides it (rank-1 V), else None."""
    if kind == "tangent":
        phi = [mono(d.coeff(), 0)]
        vs = [2]
        V, V_inv_T = [[mono(-1, 2)]], [[mono(-1, -2)]]
    else:
        vs = [d.shape.randint(-3, 1)] if kind == "line" else [d.shape.randint(-2, 1) for _ in range(2)]
        live = [True] * len(vs)
        if len(vs) == 2:
            live[d.shape.randrange(2)] = d.shape.random() < 0.5
        phi = [d.poly(0, 2 - v, 2, 3) if on else {} for v, on in zip(vs, live)]
        V, V_inv_T = m_diag([mono(1, v) for v in vs]), m_diag([mono(1, -v) for v in vs])
    anchor = {"V": bundle_doc(V), "phi_row": [p_format(p) for p in phi]}
    formal = None
    if kind != "split2":
        atom = {"rank": 1, "degree": vs[0], "stability": "stable", "label": "V",
                "is_tangent": kind == "tangent"}
        formal = {"V": {"genus": 0, "atoms": [atom]},
                  "anchor": {"kind": "isomorphism" if kind == "tangent" else "nonzero",
                             "section": anchor["phi_row"]}}
    return {"anchor": anchor, "phi": phi, "V_inv_T": V_inv_T, "algebroid": formal}


def to_text(doc) -> str:
    return json.dumps(doc, sort_keys=True)
