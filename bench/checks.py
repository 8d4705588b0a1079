"""Output checks, run off the clock after the measured cases.

Each check takes a case and the stdout text the program produced for it and
returns a list of problems; an empty list means the output is right. The
transition algebra is redone with ``gen``'s own arithmetic from the
generator's T and T^-1, so a check does not rest on the library's matrix
code. ``selftest.py`` shows that each check can fail.
"""

from __future__ import annotations

import json

import gen


def _blocks(M: list, q: int) -> list:
    r = len(M)
    return [[row[a * r:(a + 1) * r] for row in M] for a in range(q)]


def _hstack(blocks: list) -> list:
    return [sum((b[i] for b in blocks), []) for i in range(len(blocks[0]))]


def check_connect(case, out: str) -> list:
    """The cocycle is phi0_a * T' T^-1; a certificate is holomorphic on each
    chart, satisfies the overlap identity, and re-verifies in the library
    after a round trip through its JSON; where the formal criterion gives a
    verdict, it agrees with the engine's."""
    from algconn.algebroid_decision import algebroid_from_json, decide_connection
    from algconn.exact_core import LaurentMatrix
    from algconn.formal_bundles import bundle_from_json
    from algconn.jet_obstruction import ConnectionCert, anchor_from_json, verify_connection
    from algconn.p1_engine import p1bundle_from_json

    t = case.truth
    doc = json.loads(out)
    problems = []
    T, T_inv, phi = t["T"], t["T_inv"], t["phi"]
    q = len(phi)
    disc = gen.m_mul(gen.m_deriv(T), T_inv)
    if gen.m_parse(doc["cocycle"]) != _hstack([gen.m_scale(disc, p) for p in phi]):
        problems.append("cocycle is not phi0 * T' T^-1")
    if t["algebroid"] is not None:
        formal_E = {"genus": 0, "atoms": gen.line_atoms(t["type"])}
        decision = decide_connection(algebroid_from_json(t["algebroid"]),
                                     bundle_from_json(formal_E))
        if decision.as_bool() != doc["exists"]:
            problems.append(f"criterion says {decision.as_bool()}, engine says {doc['exists']}")
    if not doc["exists"]:
        if "cert" in doc:
            problems.append("certificate emitted although no connection exists")
        return problems
    A0, A1 = gen.m_parse(doc["cert"]["A0"]), gen.m_parse(doc["cert"]["A1"])
    if not (gen.poly_in_z(A0) and gen.poly_in_w(A1)):
        problems.append("certificate is not holomorphic on its charts")
    V_inv_T = t["V_inv_T"]
    moved = [gen.m_mul(gen.m_mul(T, B), T_inv) for B in _blocks(A1, q)]
    for a, A0a in enumerate(_blocks(A0, q)):
        rhs = gen.m_scale(disc, gen.p_scale(phi[a], -1))
        for b in range(q):
            rhs = gen.m_add(rhs, gen.m_scale(moved[b], V_inv_T[a][b]))
        if A0a != rhs:
            problems.append(f"overlap identity fails in block {a}")
    cert = ConnectionCert(LaurentMatrix.parse(doc["cert"]["A0"]),
                          LaurentMatrix.parse(doc["cert"]["A1"]))
    bundle = p1bundle_from_json(json.loads(case.inputs["bundle"]))
    if not verify_connection(bundle, anchor_from_json(json.loads(case.inputs["anchor"])), cert):
        problems.append("re-parsed certificate fails verify_connection")
    return problems


def check_split(case, out: str) -> list:
    """The splitting type is the hidden one; U0 * T * U1 = diag(z^a) holds on
    the emitted matrices, with U0 and U1 invertible on their charts; h0, h1
    and the sections agree with the type."""
    t = case.truth
    doc = json.loads(out)
    split, coh = doc["split"], doc["cohomology"]
    problems = []
    kind = t["type"]
    if split["type"] != kind or coh["splitting_type"] != kind:
        problems.append(f"splitting type {split['type']} is not the hidden {kind}")
    if split["degree"] != sum(kind) or coh["degree"] != sum(kind):
        problems.append("degree is not the sum of the splitting type")
    U0, U1 = gen.m_parse(split["U0"]), gen.m_parse(split["U1"])
    if not (gen.poly_in_z(U0) and gen.poly_in_w(U1)):
        problems.append("U0 or U1 is not polynomial on its chart")
    elif not (gen.has_constant_det(U0) and gen.has_constant_det(U1)):
        problems.append("det U0 or det U1 is not a nonzero constant")
    if gen.m_mul(gen.m_mul(U0, t["T"]), U1) != gen.m_diag([gen.mono(1, a) for a in kind]):
        problems.append("U0 * T * U1 is not diag(z^a)")
    h0 = sum(max(0, a + 1) for a in kind)
    h1 = sum(max(0, -a - 1) for a in kind)
    if (coh["h0"], coh["h1"]) != (h0, h1):
        problems.append(f"(h0, h1) = {(coh['h0'], coh['h1'])}, expected {(h0, h1)}")
    if not (coh["riemann_roch"] and coh["serre_duality"]):
        problems.append("Riemann-Roch or Serre duality check reported false")
    sections = [gen.m_parse(s) for s in doc["sections"]]
    if len(sections) != h0:
        problems.append(f"{len(sections)} sections for h0 = {h0}")
    if not all(gen.poly_in_z(v) and gen.poly_in_w(gen.m_mul(t["T_inv"], v)) for v in sections):
        problems.append("a section is not global")
    keys = sorted({(i, e) for v in sections for i, row in enumerate(v) for e in row[0]})
    if sections and gen.q_rank([[v[i][0].get(e, 0) for i, e in keys] for v in sections]) != h0:
        problems.append("the sections are linearly dependent")
    return problems


def check_fuzz(case, out: str, again: str | None = None) -> list:
    """The report has no mismatch, and a repeated call (``again``) prints the
    same bytes."""
    report = json.loads(out)
    args = json.loads(case.inputs["fuzz"])
    problems = []
    if report["mismatches"] != 0 or report["failures"]:
        problems.append(f"{report['mismatches']} mismatches between criterion and engine")
    if (report["cases"], report["seed"]) != (args["count"], args["seed"]):
        problems.append("report is for other arguments")
    if again is not None and again != out:
        problems.append("repeated run_fuzz call gave a different report")
    return problems


def check_cli(case, out: str, code: int, expected: str) -> list:
    """The child printed what ``algconn.cli.main`` prints in-process, where
    it returned ``code``, which must be 0. (The child's own non-zero exit
    already fails the case, in worker.cli_runner.)"""
    problems = []
    if code != 0:
        problems.append(f"algconn {case.command} exited {code} in-process")
    if out != expected:
        problems.append(f"algconn {case.command} stdout differs from the in-process result")
    return problems
