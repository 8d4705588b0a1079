"""Golden CLI outputs: stdout must stay byte-identical across changes.

golden_cli.json holds the `algconn connect` stdout of 15 gauged cases (rank
2 and 3 bundles; tangent, line, split rank-2, gauged rank-2 and split rank-3
anchors; both answers), the `algconn split`, `cohomology` and `jets` stdout
of 6 gauged rank 4-6 bundles (drawn by `Sampler.gauged_p1_bundle` with bound
2, ops 2, max_deg 1) and of two rank-4 bundles the reduction once split
block by block (a direct sum of two gauged rank-2 blocks, and a diagonal
transition with non-unit scalars), the `algconn split`, `cohomology` and
`jets` stdout of 4 monomial diagonals, which are split by reading them
(`-z^2`, `1/2*z^-3`, the rank-3 tie `diag(2*z, -z, 1/3*z)` and a rank-4
diagonal with two tied pairs), the `algconn decide` stdout of one
formal algebroid per Reason (the isomorphism anchor twice, once with each
Atiyah-Weil answer), the `algconn decide` stdout of two algebroids that are
read in canonical form (an undeclared genus-0 O(2) with a nonzero anchor,
with and without a section, which decide as the tangent bundle with an
isomorphism anchor), and the sha256 of `algconn fuzz --count 200 --seed 0`
stdout. The recorded outputs are replayed through algconn.cli.main here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from algconn.algebroid_decision import Reason
from algconn.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _decide_stdout(case, tmp_path, capsys) -> str:
    algebroid, bundle = tmp_path / "algebroid.json", tmp_path / "bundle.json"
    algebroid.write_text(json.dumps(case["algebroid"]))
    bundle.write_text(json.dumps(case["bundle"]))
    return _stdout(capsys, ["decide", "--algebroid", str(algebroid), "--bundle", str(bundle)])


def test_golden_cases_cover_every_anchor_kind_and_answer():
    seen = {(c["anchor_kind"], json.loads(c["stdout"])["exists"]) for c in GOLDEN["connect"]}
    kinds = {"tangent", "line", "split2", "gauged2", "split3"}
    assert {k for k, _ in seen} == kinds
    assert {e for _, e in seen} == {True, False}
    assert {c["bundle"]["rank"] for c in GOLDEN["connect"]} == {2, 3}


@pytest.mark.parametrize("index", range(len(GOLDEN["connect"])))
def test_connect_stdout_is_golden(index, tmp_path, capsys):
    case = GOLDEN["connect"][index]
    bundle, anchor = tmp_path / "bundle.json", tmp_path / "anchor.json"
    bundle.write_text(json.dumps(case["bundle"]))
    anchor.write_text(json.dumps(case["anchor"]))
    out = _stdout(capsys, ["connect", "--bundle", str(bundle), "--anchor", str(anchor)])
    assert out == case["stdout"]


def test_golden_split_cases_cover_ranks_4_to_6():
    gauged, (direct_sum, diagonal) = GOLDEN["split"][:-2], GOLDEN["split"][-2:]
    assert sorted(c["bundle"]["rank"] for c in gauged) == [4, 4, 5, 5, 6, 6]
    # the direct sum: block-diagonal, each 2x2 block with an off-diagonal entry
    T = direct_sum["bundle"]["transition"]
    assert all(T[i][j] == "0" for i in range(4) for j in range(4) if (i < 2) != (j < 2))
    assert T[0][1] != "0" and T[2][3] != "0"
    # the diagonal bundle: no scalar is +-1, so U0 or U1 carries each inverse
    T = diagonal["bundle"]["transition"]
    assert all(T[i][j] == "0" for i in range(4) for j in range(4) if i != j)
    assert [T[i][i] for i in range(4)] == ["2*z", "-3", "1/2*z^-1", "z^2"]


def _bundle_stdout(case, command, tmp_path, capsys) -> str:
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(case["bundle"]))
    return _stdout(capsys, [command, "--bundle", str(bundle)])


@pytest.mark.parametrize("command", ["split", "cohomology", "jets"])
@pytest.mark.parametrize("index", range(len(GOLDEN["split"])))
def test_split_path_stdout_is_golden(index, command, tmp_path, capsys):
    case = GOLDEN["split"][index]
    assert _bundle_stdout(case, command, tmp_path, capsys) == case[command]


def test_golden_split_diagonal_cases_hold_ties():
    # monomial diagonals, split by reading them: two of rank 1, a rank-3
    # tie and a rank-4 type with two tied pairs
    cases = GOLDEN["split_diagonal"]
    for case in cases:
        T, r = case["bundle"]["transition"], case["bundle"]["rank"]
        assert all(T[i][j] == "0" for i in range(r) for j in range(r) if i != j)
        assert all(T[i][i] != "0" and " " not in T[i][i] for i in range(r))
    types = [json.loads(c["cohomology"])["splitting_type"] for c in cases]
    assert types == [[2], [-3], [1, 1, 1], [2, 2, -1, -1]]
    assert [c["bundle"]["transition"][i][i] for c in cases[2:3] for i in range(3)] == [
        "2*z", "-z", "1/3*z"
    ]


@pytest.mark.parametrize("command", ["split", "cohomology", "jets"])
@pytest.mark.parametrize("index", range(len(GOLDEN["split_diagonal"])))
def test_split_diagonal_stdout_is_golden(index, command, tmp_path, capsys):
    case = GOLDEN["split_diagonal"][index]
    assert _bundle_stdout(case, command, tmp_path, capsys) == case[command]


def test_golden_decide_cases_cover_every_reason_and_atiyah_weil_answer():
    docs = [json.loads(c["stdout"]) for c in GOLDEN["decide"]]
    assert {d["reason"] for d in docs} == {r.value for r in Reason}
    assert {d.get("atiyah_weil") for d in docs} == {None, True, False}


@pytest.mark.parametrize("index", range(len(GOLDEN["decide"])))
def test_decide_stdout_is_golden(index, tmp_path, capsys):
    case = GOLDEN["decide"][index]
    assert _decide_stdout(case, tmp_path, capsys) == case["stdout"]


@pytest.mark.parametrize("index", range(len(GOLDEN["decide_canonical"])))
def test_canonical_decide_stdout_is_golden(index, tmp_path, capsys):
    # an undeclared genus-0 O(2) is TX, and a nonzero anchor on it an
    # isomorphism: a degree-1 E fails Atiyah-Weil
    case = GOLDEN["decide_canonical"][index]
    assert case["algebroid"]["V"] == {"genus": 0, "atoms": [{"rank": 1, "degree": 2}]}
    assert case["algebroid"]["anchor"]["kind"] == "nonzero"
    assert ("section" in case["algebroid"]["anchor"]) == (index == 1)
    doc = json.loads(case["stdout"])
    assert (doc["reason"], doc["atiyah_weil"]) == ("AnchorIso_AW", False)
    assert _decide_stdout(case, tmp_path, capsys) == case["stdout"]


def test_fuzz_stdout_is_golden(capsys):
    out = _stdout(capsys, GOLDEN["fuzz"]["argv"])
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["fuzz"]["stdout_sha256"]
