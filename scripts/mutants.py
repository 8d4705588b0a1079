"""Show that every certificate check and guard of the engine can fail.

    python3 scripts/mutants.py [NAME ...]    # all mutants, or the named ones
    python3 scripts/mutants.py --list

Each mutant disables one check in src/algconn, or breaks one rule that a
test pins, by an exact-text patch: the text that implements it, the text
that replaces it, and the test file that must then fail. The harness copies
src/, tests/ and pyproject.toml into a temporary directory and runs each
test file it needs once unpatched, which must pass. Then, for each mutant, it writes the patched module into the copy,
runs ``python -m pytest -x -q <test file>`` there, and puts the module back.

A mutant is killed when pytest reports failing tests (exit status 1); a
collection or usage error does not count. A survivor means a test is
missing: add the test, never drop the mutant. A patch whose text does not
occur exactly once in its module is stale, and is reported as an error.
A test file that runs longer than TIMEOUT_S is an error too. Exit status 0
when every selected mutant is killed, 1 otherwise.

riemann_roch_check and serre_dual_check have no mutant. Both read h^0 and
h^1 off the certified type, so each is true by construction: making it
return True changes nothing a test can see. Neither is printed or exported
any more; only the benchmark calls them.

The witness of a "no" is five vectors, and each of verify_witness's vector
checks has its own mutant (witness-vector-shape and witness-in-z through
witness-residue). The cocycle the CLI prints is checked on its own
(printed-cocycle-checked).

The certificate checks and the splitting's U0^(-1) share one row kernel,
exact_core's _row_sums: a left row times the listed right rows, summed in
one coefficient map per column. verify_connection's identity and the
printed cocycle's check share one helper on it, _overlap_holds, which runs
row by row and sums each entry of T Z - s (x) T' - X (K (x) T) in one
map. connection-identity and printed-cocycle-checked disable its two
calls; overlap-a1-term drops row i of T Z (a _row_sums call),
overlap-a0-term the -K_ba Y^(b) terms and overlap-anchor-term the
-s (x) T' terms of each entry; overlap-entry-nonzero drops the test that
an entry cancels to zero, and overlap-every-row answers True after the
first row, which a tamper of the last row alone refuses.

SplittingData forms U0^(-1) = T U1 D^(-1) with _lifted_product, over one
denominator per column of U1, and decides U0 U0^(-1) = I with
_inverse_holds, row by row; both run on _row_sums. verify-identity disables
that decision, lifted-division leaves out the kernel's one division per
coefficient, and inverse-entry-nonzero drops the decision's test that each
entry's map cancels to zero. The record certifies U1 by its inverse too:
it forms U1^(-1) = D^(-1) U0 T by shifting row i of U0 T by z^(-a_i).
verify-u1-unimodular drops the test that U1^(-1) is polynomial in 1/z,
and u1-inverse-shift-sign shifts each row by z^(+a_i) instead.

The record keeps no T^(-1), so its readers read the frames.
hom-split-frame-degree tightens is_global_hom's split-frame test, each
entry of row j of U0_F phi0 T_E of z-degree <= b_j, to < b_j, which
refuses the basis homs of top degree; printed-cocycle-shift-sign drops the
sign of the shifts by which the printed cocycle forms T' U1 D^(-1), and
its check refuses the cocycle.

Both charts run one reduction, _weak_popov: fraction-free simple
transformations on rows held as one coefficient map each, keyed by
(exponent, column), with one mutant per rule. reduction-step leaves a step
out of the transform row, and the record refuses each split that takes one;
reduction-higher-degree reduces the row of lower degree when the other row
holds the shared position; reduction-content leaves out the division of the
two new rows by their joint content; reduction-zero-row drops the test that
a row is zero; leading-key-order takes the first column that reaches the
row's degree as its leading position instead of the last, the row's
largest key; step-canonical-scalar leaves a step's integral Fraction sums
as Fractions; reduction-budget drops the step budget, and its test counts
the steps, so that the mutant fails it instead of hanging it; w-popov-stop
lets a row of degree zero stop on a leading position another row holds.
The w-chart then inverts N by one forward substitution, in _w_inverse:
w-non-unit drops the test that a positive degree is left, w-pivot-division
leaves each row of the substitution undivided by its pivot, and
w-subtracted-terms drops the terms it subtracts. The package builds the
tangent bundle and O on first use, not at import, so such a mutant fails
the tests that split, one by one.

The reduction splits every transition, monomial diagonals too, and the
tests compare its record on 2,817 of them with the closed form that
tests/oracles.py reads off: reduction-tie-order puts rows of equal degree
in reversed row order, and w-pivot-division leaves 1/c_i out of U1.

A "yes" is the closed form of jet_obstruction's docstring: A0 = U0^(-1)
[phi0 (x) U0' - (psi~ U0_V) (x) Delta U0] and A1 = U1 [(z^(-1) psi(0)
U0_V T_V) (x) Delta Y + (phi0 T_V) (x) Y']. closed-form-a0-frame,
closed-form-a0-delta, closed-form-a1-delta and closed-form-a1-frame each
drop one of the four terms, and verify_connection refuses the
certificate.

run_fuzz records each case where the decision and the engine disagree, and
`algconn fuzz` exits 1 when it recorded one: fuzz-failure-record drops the
record and fuzz-mismatch-exit the exit status. `algconn decide` on an
algebroid and a bundle of different genus names both inputs:
decide-genus-names leaves the fault to decide_connection, whose message
names neither. The command line is read from one table: cli-required-option
lets a required option be left out, cli-unknown-option lets an option the
command does not take through, and cli-positive-count lets a count below 1
reach run_fuzz. A Decision reads its verdict off its reason, in one table
of algebroid_decision: decision-verdict-row makes the undecided case
answer "exists", and decision-atiyah-weil-check lets a Decision carry an
Atiyah-Weil answer its reason contradicts.

The JSON readers parse each short entry text once, in exact_core's bounded
memo _parsed: parse-memo-long-text lets a text over 64 characters into the
memo, and parse-memo-unbounded drops its size bound. split-memo-unbounded
drops the bound of p1_engine's splitting memo _birkhoff_cached.

An AlgebroidDesc checks its anchor data and puts itself in canonical form
when it is built, so no later reader validates it again. Each check has a
mutant: algebroid-genus0-atom-rank (a genus-0 atom of rank >= 2),
algebroid-iso-rank and algebroid-iso-tangent (an isomorphism anchor on a V
other than TX), algebroid-nonzero-degree (a nonzero anchor on a line bundle
of degree >= deg TX), algebroid-forced-zero (a nonzero anchor the slope data
force to vanish), and for an explicit section algebroid-section-genus,
algebroid-section-length, algebroid-section-degree,
algebroid-zero-kind-section and algebroid-nonzero-kind-section. So do the
two canonicalizations (algebroid-canonical-tangent, an undeclared genus-0
O(2) read as TX; algebroid-canonical-isomorphism, a nonzero anchor on TX
read as an isomorphism), AnchorDesc's two coercions
(anchor-kind-coercion, anchor-section-tuple) and its two section checks
(anchor-section-entries, an entry that is no LaurentPoly;
anchor-section-string, a string section). An Atom stores its stability as
a Stability: atom-stability-coercion stores the value it is handed, and
atom-rank-one-stability lets a rank-1 atom skip the check before its
stability is normalized. The formal layer refuses what bundle_to_json
could not write or bundle_from_json would not read back: atom-label-type
lets a label that is no str through, atom-is-tangent-type a flag that is
no bool, and formal-bundle-context a context that is no CurveContext. The
harness lists 96 mutants.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name module old new tests")

P1 = "src/algconn/p1_engine.py"
JET = "src/algconn/jet_obstruction.py"
CORE = "src/algconn/exact_core.py"
CLI = "src/algconn/cli.py"
DECISION = "src/algconn/algebroid_decision.py"
SAMPLING = "src/algconn/sampling.py"
P1_TESTS = "tests/test_p1_engine.py"
JET_TESTS = "tests/test_jet_obstruction.py"
CLI_TESTS = "tests/test_cli.py"
CORE_TESTS = "tests/test_exact_core.py"
DECISION_TESTS = "tests/test_algebroid_decision.py"
FORMAL = "src/algconn/formal_bundles.py"
FORMAL_TESTS = "tests/test_formal_bundles.py"
TIMEOUT_S = 300  # one test file; a mutant that hangs its tests is an error, not a kill

VERIFY_SHAPES = "if U0.shape != (r, r) or U1.shape != (r, r):"
CONNECTION_CHARTS = "if not cert.A0.is_poly_in_z or not cert.A1.is_poly_in_w:"
WITNESS_SHAPES = (
    "if (u.shape, v.shape, x.shape, w0.shape, w1.shape) != ((r, 1), (1, r), (r, 1), (q, 1), (q, 1)):"
)
WITNESS_IN_W = (
    "if not (x.is_poly_in_w and w1.is_poly_in_w and (v @ T).shift(2 - v_a - a_i).is_poly_in_w):"
)

MUTANTS = (
    # the clauses of a splitting, checked by SplittingData when it is built,
    # one clause at a time; then verify, which compares transitions
    Mutant("verify-u0-shape", P1, VERIFY_SHAPES, "if U1.shape != (r, r):", P1_TESTS),
    Mutant("verify-u1-shape", P1, VERIFY_SHAPES, "if U0.shape != (r, r):", P1_TESTS),
    Mutant(
        "verify-sorted-type",
        P1,
        "if list(type) != sorted(type, reverse=True):",
        "if False:",
        P1_TESTS,
    ),
    Mutant("verify-u0-in-z", P1, "if not U0.is_poly_in_z:", "if False:", P1_TESTS),
    Mutant("verify-u1-in-w", P1, "if not U1.is_poly_in_w:", "if False:", P1_TESTS),
    Mutant("verify-u1-unimodular", P1, "if not u1_inv.is_poly_in_w:", "if False:", P1_TESTS),
    Mutant("u1-inverse-shift-sign", P1, "tuple([x.shift(-a) for x in row])",
           "tuple([x.shift(a) for x in row])", P1_TESTS),
    Mutant("verify-type-length", P1, "if transition.shape != (r, r):", "if False:", P1_TESTS),
    Mutant("verify-u0-inverse-in-z", P1, "if not u0_inv.is_poly_in_z:", "if False:", P1_TESTS),
    Mutant("verify-identity", P1, "if not _inverse_holds(U0, u0_inv):", "if False:", P1_TESTS),
    Mutant(
        "verify-transition-equality",
        P1,
        "return E.transition == self.transition",
        "return True",
        P1_TESTS,
    ),
    # the reduction decides units; a splitting its record refuses is a bug
    Mutant(
        "verify-internal-bug",
        P1,
        "except ValueError as exc:",
        "except ZeroDivisionError as exc:",
        P1_TESTS,
    ),
    # P1Bundle's shape guard; the rank is read off the transition
    Mutant("bundle-square", P1, "if not self.transition.is_square:", "if False:", P1_TESTS),
    # is_global_hom reads row j of U0_F phi0 T_E against F's b_j
    Mutant("hom-split-frame-degree", P1, "max(x._coeffs) <= b", "max(x._coeffs) < b", P1_TESTS),
    # _weak_popov, the one reduction of both charts, one mutant per rule: a
    # step that leaves the transform row as it was (the record refuses it),
    # the row of higher degree is the one reduced, both rows are divided by
    # their content, a zero row means det 0, and so does a spent budget
    Mutant("reduction-step", P1, "t_row = _step(t_rows[i], lc_k, t_rows[k], -lc_i, s)",
           "t_row = t_rows[i]", P1_TESTS),
    Mutant("reduction-higher-degree", P1, "if leads[k][0] > d:", "if False:", P1_TESTS),
    Mutant("reduction-content", P1, "if g != 1:", "if False:", P1_TESTS),
    Mutant("reduction-zero-row", P1, "if not row:", "if False:", P1_TESTS),
    # a row's leading key is its largest (exponent, column) key: the degree,
    # then the last column that reaches it; and a step's sums are canonical
    Mutant("leading-key-order", P1, "return max(row)",
           "return max(row, key=lambda key: (key[0], -key[1]))", P1_TESTS),
    Mutant("step-canonical-scalar", P1,
           "return {key: c if type(c) is int else _q(c) for key, c in out.items() if c}",
           "return {key: c for key, c in out.items() if c}", P1_TESTS),
    # the step budget: on det 0 with a wide span it ends the loop, and the
    # test counts the steps, so the mutant fails it instead of hanging it
    Mutant("reduction-budget", P1, "if budget == 0:", "if False:", P1_TESTS),
    # the rows are sorted by degree, ties in row order
    Mutant("reduction-tie-order", P1, "key=lambda i: -tops[i]", "key=lambda i: (-tops[i], -i)",
           P1_TESTS),
    # the simple transformations stop once the leading positions are
    # distinct; on the w-chart a positive degree left means no unit, and
    # then one forward substitution divides each row by its pivot once after
    # subtracting the rows solved before it
    Mutant("w-popov-stop", P1, "if k is None:", "if k is None or not d:", P1_TESTS),
    Mutant("w-non-unit", P1, "if any(d for d, _ in leads):", "if False:", P1_TESTS),
    Mutant("w-pivot-division", P1, "if pivot != 1:", "if False:", P1_TESTS),
    Mutant("w-subtracted-terms", P1, "row = _step(row, 1, inverse[j], -c, 0)", "pass", P1_TESTS),
    # verify_connection
    Mutant(
        "connection-shape",
        JET,
        "if cert.A0.shape != (r, r * q) or cert.A1.shape != (r, r * q):",
        "if False:",
        JET_TESTS,
    ),
    Mutant(
        "connection-chart0",
        JET,
        CONNECTION_CHARTS,
        "if not cert.A1.is_poly_in_w:",
        JET_TESTS,
    ),
    Mutant(
        "connection-chart1",
        JET,
        CONNECTION_CHARTS,
        "if not cert.A0.is_poly_in_z:",
        JET_TESTS,
    ),
    Mutant(
        "connection-identity",
        JET,
        "return _overlap_holds(E.transition, T_V, cert.A0, cert.A1, anchor.phi_row @ T_V)",
        "return True",
        JET_TESTS,
    ),
    # _overlap_holds, which decides both overlap identities: one mutant per
    # term of an entry, and one for the test that the entry cancels to zero
    Mutant("overlap-a0-term", JET, "_accumulate(accs.setdefault(ar + j, {}), minus_k_ba, y)",
           "pass", JET_TESTS),
    Mutant("overlap-a1-term", JET, "accs = _row_sums({}, t_row, z_listed)", "accs = {}", JET_TESTS),
    Mutant("overlap-anchor-term", JET, "_accumulate(accs.setdefault(ar + j, {}), sa, minus_tp)",
           "pass", JET_TESTS),
    Mutant("overlap-entry-nonzero", JET, "if any(acc.values()):", "if False:", JET_TESTS),
    # the check runs row by row and answers True only after the last row
    Mutant(
        "overlap-every-row",
        JET,
        "                return False\n    return True",
        "                return False\n        return True\n    return True",
        JET_TESTS,
    ),
    # construct_connection decides from the integers of the two splittings,
    # and checks either answer
    Mutant(
        "integer-rule",
        JET,
        "i = next((i for i, ai in enumerate(se.type) if ai != 0), None)",
        "i = next((i for i, ai in enumerate(se.type)), None)",
        JET_TESTS,
    ),
    # the closed-form "yes": one mutant per term of A0 and A1
    Mutant("closed-form-a0-frame", JET, "_bracket(anchor.phi_row, minus_psi_t",
           "_bracket(LaurentMatrix.zeros(1, q), minus_psi_t", JET_TESTS),
    Mutant("closed-form-a0-delta", JET, "minus_psi_t @ sv.U0, U0,", "LaurentMatrix.zeros(1, q), U0,",
           JET_TESTS),
    Mutant("closed-form-a1-delta", JET, "(psi_0 @ sv.U0 @ T_V).shift(-1), Y,",
           "LaurentMatrix.zeros(1, q), Y,", JET_TESTS),
    Mutant("closed-form-a1-frame", JET, "_bracket(anchor.phi_row @ T_V,",
           "_bracket(LaurentMatrix.zeros(1, q),", JET_TESTS),
    Mutant(
        "connection-checked",
        JET,
        "if not verify_connection(E, anchor, cert):",
        "if False:",
        JET_TESTS,
    ),
    Mutant(
        "witness-checked",
        JET,
        "if not verify_witness(E, anchor, *witness):",
        "if False:",
        JET_TESTS,
    ),
    # _cocycle_and_connection checks the cocycle algconn connect prints,
    # which is formed from E's frames as (T' U1 D^(-1)) U0
    Mutant(
        "printed-cocycle-checked",
        JET,
        "if not _overlap_holds(E.transition, I_q, cocycle.overlap_matrix, zero, -anchor.phi_row):",
        "if False:",
        JET_TESTS,
    ),
    Mutant("printed-cocycle-shift-sign", JET, "[-a for a in se.type]", "[a for a in se.type]",
           JET_TESTS),
    # verify_witness: a shape guard, then one mutant per vector check
    Mutant("witness-vector-shape", JET, WITNESS_SHAPES, "if False:", JET_TESTS),
    Mutant(
        "witness-in-z",
        JET,
        "if not (u.is_poly_in_z and v.is_poly_in_z and w0.is_poly_in_z):",
        "if False:",
        JET_TESTS,
    ),
    Mutant("witness-in-w", JET, WITNESS_IN_W, "if False:", JET_TESTS),
    Mutant("witness-identity-of-e", JET, "if T @ x != u.shift(a_i):", "if False:", JET_TESTS),
    Mutant(
        "witness-identity-of-v",
        JET,
        "if anchor.V.transition @ w1 != w0.shift(v_a):",
        "if False:",
        JET_TESTS,
    ),
    Mutant("witness-residue", JET, "return pairing.coeff(a_i - 1) != 0", "return True", JET_TESTS),
    # the lifted product divides each coefficient by its column's denominator,
    # and the one-pass decision of A B = I tests every entry's map for zero
    Mutant(
        "lifted-division",
        CORE,
        "e: _ratio(c, m) if type(c) is int else _q(c / m) for e, c in acc.items() if c})",
        "e: c for e, c in acc.items() if c})",
        CORE_TESTS,
    ),
    Mutant(
        "inverse-entry-nonzero",
        CORE,
        "            if any(acc.values()):\n                return False\n    return True",
        "            pass\n    return True",
        CORE_TESTS,
    ),
    # the product kernel's one-term path and its single-contribution entries
    Mutant(
        "one-term-canonical-scalar",
        CORE,
        "c if type(c := c1 * c2) is int else _q(c)",
        "c1 * c2",
        CORE_TESTS,
    ),
    Mutant(
        "matmul-single-contribution",
        CORE,
        "if acc is None:\n                            entries[j] = (x, y)",
        "if True:\n                            entries[j] = (x, y)",
        CORE_TESTS,
    ),
    # a 1 x 1 factor is a scalar: [[1]] is the identity on either side, and
    # the one-product path serves a 1 x 1 @ 1 x 1 product only, not r x 1 @ 1 x 1
    Mutant(
        "kron-unit-scalar",
        CORE,
        "if self._rows == _ONE_ROWS:\n            return other",
        "if self._rows == _ONE_ROWS:\n            return self",
        CORE_TESTS,
    ),
    Mutant(
        "matmul-unit-left",
        CORE,
        "if len(a_rows) == 1 and a_rows[0][0] is _ONE:\n                return other",
        "if len(a_rows) == 1 and a_rows[0][0] is _ONE:\n                return self",
        CORE_TESTS,
    ),
    Mutant(
        "matmul-unit-right",
        CORE,
        "if y is _ONE:\n                    return self",
        "if y is _ONE:\n                    return other",
        CORE_TESTS,
    ),
    Mutant(
        "matmul-one-by-one",
        CORE,
        "if len(a_rows) == 1:\n                    return _matrix(((_product(",
        "if True:\n                    return _matrix(((_product(",
        CORE_TESTS,
    ),
    # z and monomial wrap int input unchecked: a zero or a bool must not pass
    Mutant(
        "monomial-int-zero",
        CORE,
        "return _poly({exp: c}) if c else _ZERO",
        "return _poly({exp: c})",
        CORE_TESTS,
    ),
    Mutant(
        "monomial-int-type",
        CORE,
        "if type(c) is int and type(exp) is int:",
        "if isinstance(c, int) and isinstance(exp, int):",
        CORE_TESTS,
    ),
    Mutant(
        "z-int-type",
        CORE,
        "        if type(exp) is int:\n            return _poly({exp: 1})",
        "        if isinstance(exp, int):\n            return _poly({exp: 1})",
        CORE_TESTS,
    ),
    # parse-time guards of exact_core
    Mutant("parse-non-string-entry", CORE, "if not isinstance(s, str):", "if False:", CLI_TESTS),
    # the parse memo keeps short texts only, and at most maxsize of them
    Mutant(
        "parse-memo-long-text",
        CORE,
        "_parsed(s) if len(s) <= _MEMO_TEXT_MAX else laurent_parse(s)",
        "_parsed(s)",
        CORE_TESTS,
    ),
    Mutant("parse-memo-unbounded", CORE, "@lru_cache(maxsize=1024)", "@lru_cache(maxsize=None)",
           P1_TESTS),
    Mutant("split-memo-unbounded", P1, "@lru_cache(maxsize=1024)", "@lru_cache(maxsize=None)",
           P1_TESTS),
    Mutant(
        "parse-digit-limit",
        CORE,
        "        return int(s)\n    except ValueError:",
        "        return int(s)\n    except ZeroDivisionError:",
        CLI_TESTS,
    ),
    # hostile JSON (over-deep, an over-long integer, non-UTF-8) is a schema error
    Mutant(
        "load-json-errors",
        CLI,
        "except (ValueError, RecursionError) as exc:",
        "except json.JSONDecodeError as exc:",
        CLI_TESTS,
    ),
    # a fuzz case where the two routes disagree is reported, and fails the command
    Mutant("fuzz-failure-record", SAMPLING, "if declared != computed:", "if False:", CLI_TESTS),
    Mutant(
        "fuzz-mismatch-exit",
        CLI,
        'return EXIT_OK if outcome.report["mismatches"] == 0 else EXIT_MISMATCH',
        "return EXIT_OK",
        CLI_TESTS,
    ),
    Mutant(
        "decide-genus-names",
        CLI,
        "if desc.V.context != bundle.context:",
        "if False:",
        CLI_TESTS,
    ),
    # the command line: a required option left out, one the command does not
    # take, or a count below 1
    Mutant("cli-required-option", CLI, "if missing:", "if False:", CLI_TESTS),
    Mutant("cli-unknown-option", CLI, "if name not in kinds:", "if False:", CLI_TESTS),
    Mutant("cli-positive-count", CLI, "if value < 1:", "if False:", CLI_TESTS),
    # a decision's verdict is read off its reason: one wrong row of the table
    Mutant(
        "decision-verdict-row",
        DECISION,
        "Reason.HYPOTHESES_UNMET: (Verdict.UNDECIDED,",
        "Reason.HYPOTHESES_UNMET: (Verdict.EXISTS,",
        DECISION_TESTS,
    ),
    # an Atiyah-Weil answer exactly when the reason's verdict needs one
    Mutant(
        "decision-atiyah-weil-check",
        DECISION,
        "if not (isinstance(atiyah_weil, bool) if needs_answer else atiyah_weil is None):",
        "if False:",
        DECISION_TESTS,
    ),
    # AlgebroidDesc checks its anchor data when it is built: one mutant per
    # check, per canonicalization and per coercion of AnchorDesc
    Mutant("algebroid-genus0-atom-rank", DECISION, "if atom.rank >= 2:", "if False:",
           DECISION_TESTS),
    Mutant("algebroid-iso-rank", DECISION, "if V.rank != 1:", "if False:", DECISION_TESTS),
    Mutant(
        "algebroid-iso-tangent",
        DECISION,
        "if not _is_tangent_bundle(V):\n                raise InvalidAnchor(",
        "if False:\n                raise InvalidAnchor(",
        DECISION_TESTS,
    ),
    Mutant(
        "algebroid-nonzero-degree",
        DECISION,
        "if V.rank == 1 and not _is_tangent_bundle(V) and V.degree >= tangent_deg:",
        "if False:",
        DECISION_TESTS,
    ),
    Mutant("algebroid-forced-zero", DECISION, "if anchor_forced_zero(V):", "if False:",
           DECISION_TESTS),
    Mutant("algebroid-section-genus", DECISION, "if g != 0:", "if False:", DECISION_TESTS),
    Mutant("algebroid-section-length", DECISION, "if len(anchor.section) != V.rank:", "if False:",
           DECISION_TESTS),
    Mutant("algebroid-section-degree", DECISION, "(not p.is_poly_in_z or p.max_exp > top)",
           "(not p.is_poly_in_z)", DECISION_TESTS),
    Mutant("algebroid-zero-kind-section", DECISION,
           "if anchor.kind == AnchorKind.ZERO and not section_zero:", "if False:", DECISION_TESTS),
    Mutant("algebroid-nonzero-kind-section", DECISION,
           "if anchor.kind != AnchorKind.ZERO and section_zero:", "if False:", DECISION_TESTS),
    Mutant(
        "algebroid-canonical-tangent",
        DECISION,
        "if V.rank == 1 and V.degree == tangent_deg and not V.atoms[0].is_tangent:",
        "if False:",
        DECISION_TESTS,
    ),
    Mutant(
        "algebroid-canonical-isomorphism",
        DECISION,
        "if anchor.kind == AnchorKind.NONZERO and _is_tangent_bundle(V):",
        "if False:",
        DECISION_TESTS,
    ),
    Mutant("anchor-kind-coercion", DECISION, '"kind", AnchorKind(kind))', '"kind", kind)',
           DECISION_TESTS),
    Mutant("anchor-section-tuple", DECISION, "None if section is None else tuple(section)",
           "section", DECISION_TESTS),
    Mutant("anchor-section-entries", DECISION, "if not isinstance(p, LaurentPoly):", "if False:",
           DECISION_TESTS),
    Mutant("anchor-section-string", DECISION, "if isinstance(section, str):", "if False:",
           DECISION_TESTS),
    Mutant("atom-stability-coercion", FORMAL, "else checked", "else stability", FORMAL_TESTS),
    # the formal layer refuses what bundle_to_json could not write or
    # bundle_from_json would not read back: one mutant per check
    Mutant("atom-rank-one-stability", FORMAL, "checked = Stability(stability)",
           "checked = stability if rank == 1 else Stability(stability)", FORMAL_TESTS),
    Mutant("atom-label-type", FORMAL, "if type(label) is not str:", "if False:", FORMAL_TESTS),
    Mutant("atom-is-tangent-type", FORMAL, "if type(is_tangent) is not bool:", "if False:",
           FORMAL_TESTS),
    Mutant("formal-bundle-context", FORMAL, "if not isinstance(context, CurveContext):",
           "if False:", FORMAL_TESTS),
)


def pytest_status(copy: str, tests: str) -> int | str:
    """pytest's exit status on one test file of the copy, or "timeout"."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return done.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args()
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}  {m.module}  {m.tests}")
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    failures = 0
    with tempfile.TemporaryDirectory(prefix="algconn-mutants-") as copy:
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)

        for tests in sorted({m.tests for m in chosen}):
            status = pytest_status(copy, tests)
            if status != 0:
                print(f"error: {tests} fails without any mutant (pytest exit {status})")
                return 1

        for m in chosen:
            path = os.path.join(copy, m.module)
            with open(path) as fh:
                original = fh.read()
            if original.count(m.old) != 1:
                print(f"STALE     {m.name}: the patch text occurs {original.count(m.old)} times in {m.module}")
                failures += 1
                continue
            with open(path, "w") as fh:
                fh.write(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                status = pytest_status(copy, m.tests)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            seconds = time.perf_counter() - start
            verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"ERROR({status})"
            print(f"{verdict:9} {m.name}  ({m.tests}, {seconds:.1f} s)", flush=True)
            failures += status != 1

    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
