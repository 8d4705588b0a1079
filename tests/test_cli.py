"""CLI: exit codes, schemas, determinism, emitted artifacts."""

import json
import os
import subprocess
import sys

import pytest

from algconn import sampling
from algconn.cli import main


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(p)


@pytest.fixture
def files(tmp_path):
    return {
        "algebroid": write(
            tmp_path,
            "alg.json",
            {
                "V": {
                    "genus": 0,
                    "atoms": [{"rank": 1, "degree": -3, "stability": "stable"}],
                },
                "anchor": {"kind": "nonzero", "section": ["z^5 + 1"]},
            },
        ),
        "bundle": write(
            tmp_path,
            "bundle.json",
            {"genus": 0, "atoms": [{"rank": 1, "degree": 7, "label": "O(7)"}]},
        ),
        "p1": write(
            tmp_path,
            "p1.json",
            {"rank": 2, "transition": [["z^-1", "1"], ["0", "z"]]},
        ),
        "o2": write(tmp_path, "o2.json", {"rank": 1, "transition": [["z^2"]]}),
        "tangent": write(
            tmp_path,
            "tangent.json",
            {"V": {"rank": 1, "transition": [["-z^2"]]}, "phi_row": ["1"]},
        ),
        "nonunit": write(
            tmp_path,
            "nonunit.json",
            {"rank": 2, "transition": [["z", "0"], ["0", "0"]]},
        ),
        "badjson": write(tmp_path, "bad.json", "{oops"),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_decide_exists(files, capsys):
    code, doc, _ = run(
        capsys, ["decide", "--algebroid", files["algebroid"], "--bundle", files["bundle"]]
    )
    assert code == 0
    assert doc["verdict"] == "exists"
    assert doc["reason"] == "RankOneNotTangent"


def test_decide_atiyah_weil_true(files, capsys, tmp_path):
    alg = write(
        tmp_path,
        "alg_iso.json",
        {
            "V": {
                "genus": 0,
                "atoms": [
                    {"rank": 1, "degree": 2, "stability": "stable", "is_tangent": True}
                ],
            },
            "anchor": {"kind": "isomorphism"},
        },
    )
    bundle = write(
        tmp_path,
        "zeros.json",
        {"genus": 0, "atoms": [{"rank": 1, "degree": 0}, {"rank": 1, "degree": 0}]},
    )
    code, doc, _ = run(capsys, ["decide", "--algebroid", alg, "--bundle", bundle])
    assert code == 0
    assert doc["verdict"] == "exists-iff-atiyah-weil"
    assert doc["atiyah_weil"] is True


def test_decide_genus0_stable_rank2_exits_3(files, capsys, tmp_path):
    for stability in ("stable", "semistable", "unknown"):
        alg = write(
            tmp_path,
            f"alg_{stability}2.json",
            {
                "V": {
                    "genus": 0,
                    "atoms": [{"rank": 2, "degree": 1, "stability": stability, "label": "S"}],
                },
                "anchor": {"kind": "nonzero"},
            },
        )
        code, doc, err = run(capsys, ["decide", "--algebroid", alg, "--bundle", files["bundle"]])
        assert code == 3 and doc is None
        assert "validation error" in err
        assert f"V atom 0 'S' (rank 2, degree 1) is declared {stability}" in err


def test_decide_malformed_json_exits_2(files, capsys):
    code, _, err = run(
        capsys, ["decide", "--algebroid", files["badjson"], "--bundle", files["bundle"]]
    )
    assert code == 2
    assert "schema error" in err


def test_decide_validation_error_exits_3(files, capsys, tmp_path):
    alg = write(
        tmp_path,
        "alg_bad.json",
        {
            "V": {"genus": 0, "atoms": [{"rank": 1, "degree": 5}]},
            "anchor": {"kind": "nonzero"},
        },
    )
    code, _, err = run(capsys, ["decide", "--algebroid", alg, "--bundle", files["bundle"]])
    assert code == 3
    assert "validation error" in err


@pytest.mark.parametrize(
    "field, value", [("degree", 0.5), ("degree", "0"), ("rank", True), ("rank", 1.0), ("degree", None)]
)
def test_decide_rejects_non_integer_atom_fields(files, capsys, tmp_path, field, value):
    # int() would truncate 0.5 to 0 and read "0" and true as integers
    atom = {"rank": 1, "degree": 0, field: value}
    bundle = write(tmp_path, "b.json", {"genus": 0, "atoms": [{"rank": 1, "degree": 0}, atom]})
    code, doc, err = run(capsys, ["decide", "--algebroid", files["algebroid"], "--bundle", bundle])
    assert code == 2 and doc is None
    assert "schema error" in err and f"atom #1 '{field}'" in err


def test_decide_rejects_boolean_genus(files, capsys, tmp_path):
    bundle = write(tmp_path, "b.json", {"genus": False, "atoms": [{"rank": 1, "degree": 0}]})
    code, _, err = run(capsys, ["decide", "--algebroid", files["algebroid"], "--bundle", bundle])
    assert code == 2 and "'genus'" in err


def test_cohomology_rejects_boolean_rank(files, capsys, tmp_path):
    p = write(tmp_path, "true.json", {"rank": True, "transition": [["z"]]})
    code, doc, err = run(capsys, ["cohomology", "--bundle", p])
    assert code == 2 and doc is None and "'rank'" in err


def test_split_verified_output(files, capsys):
    # a split that fails its check prints nothing, so no key reports the check
    code, doc, _ = run(capsys, ["split", "--bundle", files["p1"]])
    assert code == 0
    assert sorted(doc) == ["U0", "U1", "degree", "type"]
    assert doc["type"] == [0, 0]
    assert doc["degree"] == 0


def test_split_diag(files, capsys, tmp_path):
    p = write(
        tmp_path, "diag.json", {"rank": 2, "transition": [["z", "0"], ["0", "z^-1"]]}
    )
    code, doc, _ = run(capsys, ["split", "--bundle", p])
    assert code == 0 and doc["type"] == [1, -1]


def test_split_non_unit_exits_3(files, capsys):
    code, _, err = run(capsys, ["split", "--bundle", files["nonunit"]])
    assert code == 3
    assert "validation error" in err


@pytest.mark.parametrize(
    "transition",
    [
        [["z", "0"], ["0", "0"]],
        [["1", "0"], ["z", "0"]],
        [["1 + z^-1", "z"], ["0", "1"]],
        [["1 + z", "0", "0"], ["z", "1", "0"], ["0", "z^-1", "1"]],
    ],
)
def test_non_unit_message_names_the_fault(capsys, tmp_path, transition):
    p = write(tmp_path, "t.json", {"rank": len(transition), "transition": transition})
    for command in ("split", "cohomology"):
        code, _, err = run(capsys, [command, "--bundle", p])
        assert code == 3
        assert "not invertible over the Laurent ring" in err


def run_child(argv, timeout):
    """`python -m algconn.cli argv` in a child process that runs this
    checkout's sources. A hang raises TimeoutExpired, and an address space
    over 2 GiB fails the child, so a runaway input fails its test instead of
    stalling the suite or filling the memory."""
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "algconn.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env, preexec_fn=cap_memory,
    )


@pytest.mark.parametrize("command", ["split", "cohomology"])
def test_high_exponent_entry_splits_in_bounded_time(tmp_path, command):
    # the splitting reduction's cost follows the input's nonzero terms, not
    # its exponent span: one z^3000 entry is a single row operation, so both
    # commands answer within the time limit
    doc = {
        "rank": 4,
        "transition": [["1", "z^3000", "0", "0"], ["0", "1", "0", "0"],
                       ["0", "z", "1", "0"], ["0", "0", "0", "1"]],
    }
    p = write(tmp_path, "big.json", doc)
    proc = run_child([command, "--bundle", p], timeout=15)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["type" if command == "split" else "splitting_type"] == [0, 0, 0, 0]


def test_wide_w_span_splits_in_bounded_time(tmp_path):
    # one w^(10^8) entry: U1 = N^-1 has two w-powers, 0 and 10^8, and the
    # w-chart takes one simple transformation on them (row 0 minus z^(10^8)
    # row 1, reflected), not one per power in between
    doc = {"rank": 2, "transition": [["1", "z^-100000000"], ["0", "1"]]}
    p = write(tmp_path, "wide.json", doc)
    proc = run_child(["split", "--bundle", p], timeout=10)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["type"] == [0, 0]
    assert out["U1"] == [["1", "-z^-100000000"], ["0", "1"]]


def test_wide_w_span_non_unit_fails_in_bounded_time(tmp_path):
    # det T = 1 + z^-1 with one w^(10^8) entry: N^-1 is an infinite w-series,
    # and the w-chart ends after one simple transformation with the leading
    # positions distinct and a row of degree 1 left
    doc = {"rank": 2, "transition": [["1 + z^-1", "z^-100000000"], ["0", "1"]]}
    p = write(tmp_path, "wide_non_unit.json", doc)
    proc = run_child(["split", "--bundle", p], timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("validation error: ") and "not a monomial" in proc.stderr


def test_wide_span_zero_determinant_fails_in_bounded_time(tmp_path):
    # det T = 0 with a w^(10^8) entry: each z-side step lowers the first row's
    # top by one, so only the step budget r (sum(tops) - sum(lows) + r) = 6
    # ends the reduction before ~10^8 steps
    doc = {"rank": 2, "transition": [["0", "-z^-2"], ["0", "z^-100000000 + z^-99999999"]]}
    p = write(tmp_path, "wide_det_zero.json", doc)
    proc = run_child(["split", "--bundle", p], timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("validation error: ") and "determinant is zero" in proc.stderr


@pytest.mark.parametrize("command", ["split", "cohomology"])
@pytest.mark.parametrize(
    "entry, position",
    [("1" + "0" * 5000, 0), ("z^" + "9" * 5000, 2), ("1 + 3/" + "7" * 5000 + "*z", 6)],
    ids=["coefficient", "exponent", "denominator"],
)
def test_oversized_numeral_is_a_schema_error(capsys, tmp_path, command, entry, position):
    # longer than int()'s default 4300-digit string limit
    p = write(tmp_path, "huge.json", {"rank": 1, "transition": [[entry]]})
    code, doc, err = run(capsys, [command, "--bundle", p])
    assert code == 2 and doc is None
    assert err.startswith(f"schema error: --bundle {p}: bad transition entry at row 0, column 0: numeral of")
    assert f"(at position {position})" in err


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000, b'{"rank": ' + b"1" * 5000 + b"}", b"\xff\xfe"],
    ids=["over-deep", "over-long-integer", "non-utf8"],
)
def test_hostile_json_is_a_schema_error(tmp_path, content):
    # RecursionError, the integer digit limit's ValueError and
    # UnicodeDecodeError, each caught while the file is read
    p = tmp_path / "hostile.json"
    p.write_bytes(content)
    proc = run_child(["split", "--bundle", str(p)], timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"schema error: --bundle {p}: malformed JSON: ")
    assert "Traceback" not in proc.stderr


def test_unprintable_coefficient_is_a_validation_error(capsys, tmp_path):
    # every numeral parses, but U1 of this bundle carries 1/C^2, whose
    # ~6000-digit denominator exceeds the 4300-digit string limit
    c = "7" * 3000
    p = write(tmp_path, "long.json", {"rank": 2, "transition": [[f"{c}*z", "1"], ["0", f"{c}*z^-1"]]})
    code, doc, err = run(capsys, ["split", "--bundle", p])
    assert code == 3 and doc is None
    assert err.startswith("validation error: ") and "digit limit" in err
    for command in ("cohomology", "jets"):
        assert run(capsys, [command, "--bundle", p])[0] == 0


def test_unprintable_payload_integer_is_a_validation_error(capsys, tmp_path):
    # the 4300-digit exponent parses, but h0 = N + 1 = 10^4300 has 4301 digits
    p = write(tmp_path, "h0.json", {"rank": 1, "transition": [["z^" + "9" * 4300]]})
    code, doc, err = run(capsys, ["cohomology", "--bundle", p])
    assert code == 3 and doc is None
    assert err.startswith("validation error: ") and "digit limit" in err
    assert str(sys.get_int_max_str_digits()) in err
    for command in ("split", "jets"):
        assert run(capsys, [command, "--bundle", p])[0] == 0


def test_cohomology(files, capsys):
    # Riemann-Roch and Serre duality are not printed: both hold by
    # construction, and each can be recomputed from the keys that are
    code, doc, _ = run(capsys, ["cohomology", "--bundle", files["p1"]])
    assert code == 0
    assert sorted(doc) == ["degree", "h0", "h1", "rank", "splitting_type"]
    assert (doc["h0"], doc["h1"]) == (2, 0)
    assert doc["h0"] - doc["h1"] == doc["degree"] + doc["rank"]
    assert doc["h1"] == sum(max(0, -a - 1) for a in doc["splitting_type"])


def test_connect_obstructed(files, capsys):
    code, doc, _ = run(
        capsys, ["connect", "--bundle", files["o2"], "--anchor", files["tangent"]]
    )
    assert code == 0
    assert doc["exists"] is False
    assert doc["cocycle"] == [["2*z^-1"]]
    assert "cert" not in doc


def test_connect_trivial_tangent_zero_cert(files, capsys, tmp_path):
    o0 = write(tmp_path, "o0.json", {"rank": 1, "transition": [["1"]]})
    code, doc, _ = run(
        capsys, ["connect", "--bundle", o0, "--anchor", files["tangent"]]
    )
    assert code == 0
    assert doc["exists"] is True
    assert doc["cocycle"] == [["0"]]
    assert doc["cert"] == {"A0": [["0"]], "A1": [["0"]]}


def test_connect_exists_emits_cert(files, capsys, tmp_path):
    o1 = write(tmp_path, "o1.json", {"rank": 1, "transition": [["z"]]})
    low = write(
        tmp_path,
        "low.json",
        {"V": {"rank": 1, "transition": [["z^-3"]]}, "phi_row": ["z^5 + 1"]},
    )
    code, doc, _ = run(capsys, ["connect", "--bundle", o1, "--anchor", low])
    assert code == 0
    assert doc["exists"] is True
    assert "cert" in doc and set(doc["cert"]) == {"A0", "A1"}


def test_connect_invalid_anchor_exits_3(files, capsys, tmp_path):
    bad = write(
        tmp_path,
        "bad_anchor.json",
        {"V": {"rank": 1, "transition": [["z"]]}, "phi_row": ["z^5"]},
    )
    code, _, err = run(capsys, ["connect", "--bundle", files["o2"], "--anchor", bad])
    assert code == 3


def test_jets(files, capsys):
    code, doc, _ = run(capsys, ["jets", "--bundle", files["o2"]])
    assert code == 0
    assert doc["jet1_type"] == [1, 1]
    assert "jetV" not in doc
    code, doc, _ = run(
        capsys, ["jets", "--bundle", files["o2"], "--anchor", files["tangent"]]
    )
    assert code == 0
    assert doc["jetV_type"] == [1, 1]


def test_jets_reads_the_anchor_before_building_the_jet_bundle(files, capsys, tmp_path, monkeypatch):
    # a missing or malformed --anchor fails before J^1(E) is built and split,
    # with the message it had when it failed after
    from algconn import jet_obstruction

    def no_jet_bundle(bundle):
        pytest.fail("J^1(E) built before --anchor was read")

    monkeypatch.setattr(jet_obstruction, "jet1_transition", no_jet_bundle)
    missing = str(tmp_path / "missing.json")
    code, doc, err = run(capsys, ["jets", "--bundle", files["o2"], "--anchor", missing])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --anchor {missing}: cannot read: ")
    malformed = write(tmp_path, "two_rows.json", {"V": {"rank": 1, "transition": [["z"]]},
                                                  "phi_row": ["1", "1"]})
    code, doc, err = run(capsys, ["jets", "--bundle", files["o2"], "--anchor", malformed])
    assert (code, doc) == (2, None)
    assert err == (f"schema error: --anchor {malformed}: "
                   "'phi_row' must be a list of 1 Laurent strings\n")


def test_fuzz_smoke(files, capsys):
    code, doc, _ = run(capsys, ["fuzz", "--count", "1", "--seed", "0"])
    assert code == 0
    assert doc == {"cases": 1, "failures": [], "mismatches": 0, "seed": 0}


def test_fuzz_deterministic_bytes(files, capsys):
    main(["fuzz", "--count", "25", "--seed", "11"])
    first = capsys.readouterr().out
    main(["fuzz", "--count", "25", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["mismatches"] == 0


def test_fuzz_reports_every_mismatch_and_exits_1(monkeypatch, capsys):
    # an engine that answers the opposite of the real one on every case
    real = sampling.construct_connection
    monkeypatch.setattr(sampling, "construct_connection",
                        lambda E, anchor: "flipped" if real(E, anchor) is None else None)
    report = sampling.run_fuzz(3, 0).report
    assert report["mismatches"] == report["cases"] == 3
    assert [f["index"] for f in report["failures"]] == [0, 1, 2]
    keys = {"index", "algebroid", "bundle", "anchor", "transition", "decision", "engine_exists"}
    assert all(set(f) == keys for f in report["failures"])
    assert main(["fuzz", "--count", "3", "--seed", "0"]) == 1
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize(
    "command, target, check",
    [
        ("split", "p1_engine._split_reduced", "splitting failed verification"),
        ("connect-yes", "jet_obstruction.verify_connection", "constructed certificate failed"),
        ("connect-no", "jet_obstruction.verify_witness", "Serre-dual witness failed"),
        ("connect-no", "jet_obstruction._overlap_holds", "obstruction cocycle failed"),
    ],
)
def test_a_failed_internal_check_exits_4(files, capsys, tmp_path, monkeypatch, command, target, check):
    # each of the engine's own checks, made to refuse what the engine built:
    # no traceback and no stdout, one stderr line naming the check and the inputs
    from algconn import jet_obstruction, p1_engine

    module, name = target.split(".")
    owner = p1_engine if module == "p1_engine" else jet_obstruction
    real = getattr(owner, name)
    if name == "_split_reduced":
        def tampered(T):  # 2 U0 keeps every clause of the record but the identity
            data = real(T)
            return p1_engine.SplittingData(T, data.type, data.U0.scalar_mul(2), data.U1)
    else:
        def tampered(*args):
            return False
    monkeypatch.setattr(owner, name, tampered)
    o0 = write(tmp_path, "o0.json", {"rank": 1, "transition": [["1"]]})
    argv = {
        "split": ["split", "--bundle", files["p1"]],
        "connect-yes": ["connect", "--bundle", o0, "--anchor", files["tangent"]],
        "connect-no": ["connect", "--bundle", files["o2"], "--anchor", files["tangent"]],
    }[command]
    p1_engine._birkhoff_cached.cache_clear()
    try:
        code, doc, err = run(capsys, argv)
    finally:
        p1_engine._birkhoff_cached.cache_clear()
    assert code == 4 and doc is None
    assert err.count("\n") == 1 and err.startswith(f"internal error: algconn {argv[0]}: {check}")
    assert "(internal bug)" in err
    assert err.endswith(f"(inputs: {' '.join(argv[1:])})\n")


def test_only_the_engine_s_own_checks_exit_4(files, capsys, monkeypatch):
    # any other AssertionError is a plain crash, not a reported internal check
    from algconn import jet_obstruction

    def failing(*args):
        raise AssertionError("not one of the engine's checks")

    monkeypatch.setattr(jet_obstruction, "verify_witness", failing)
    with pytest.raises(AssertionError, match="not one of the engine's checks"):
        main(["connect", "--bundle", files["o2"], "--anchor", files["tangent"]])


def test_fuzz_count_zero_exits_2(files, capsys):
    code, _, err = run(capsys, ["fuzz", "--count", "0"])
    assert code == 2
    assert "--count" in err


def test_missing_file_exits_2(files, capsys):
    code, _, err = run(capsys, ["split", "--bundle", "no_such_file.json"])
    assert code == 2


# argv (a name of the files fixture stands for its path), the program that
# the usage error's second line names, and the token at fault it must name
USAGE_ERRORS = {
    "no-command": ([], "algconn", "a command is required"),
    "unknown-command": (["bogus"], "algconn", "'bogus'"),
    "option-before-command": (["--bogus", "split"], "algconn", "'--bogus'"),
    "unknown-option": (["split", "--bogus", "x"], "algconn split", "--bogus"),
    "unknown-option-with-equals": (["split", "--bogus=x", "--bundle", "p1"], "algconn split", "--bogus=x"),
    "abbreviated-option": (["split", "--bund", "p1"], "algconn split", "--bund"),
    "stray-argument": (["split", "--bundle", "p1", "extra"], "algconn split", "extra"),
    "missing-value": (["split", "--bundle"], "algconn split", "--bundle"),
    "missing-value-before-option": (
        ["connect", "--anchor", "--bundle", "p1"], "algconn connect", "--anchor"),
    "missing-required": (["split"], "algconn split", "--bundle"),
    "missing-second-required": (["connect", "--bundle", "p1"], "algconn connect", "--anchor"),
    "non-integer-count": (["fuzz", "--count", "abc"], "algconn fuzz", "abc"),
    "zero-count": (["fuzz", "--count", "0"], "algconn fuzz", "'0'"),
    "negative-count": (["fuzz", "--count", "-3"], "algconn fuzz", "'-3'"),
    "non-integer-seed": (["fuzz", "--count", "1", "--seed=abc"], "algconn fuzz", "abc"),
}


@pytest.mark.parametrize("argv, prog, token", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_2(files, capsys, argv, prog, token):
    code, doc, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2
    assert doc is None
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} ")
    assert error.startswith(f"{prog}: error: ")
    assert token in error


def test_an_option_takes_its_value_after_an_equals_sign_too(files, capsys):
    main(["connect", "--bundle", files["p1"], "--anchor", files["tangent"]])
    expected = capsys.readouterr().out
    assert main(["connect", f"--bundle={files['p1']}", f"--anchor={files['tangent']}"]) == 0
    assert capsys.readouterr().out == expected


def test_a_repeated_option_keeps_its_last_value(files, capsys):
    main(["split", "--bundle", files["p1"]])
    expected = capsys.readouterr().out
    assert main(["split", "--bundle", files["badjson"], "--bundle", files["p1"]]) == 0
    assert capsys.readouterr().out == expected
    code, _, err = run(capsys, ["split", "--bundle", files["p1"], "--bundle", files["nonunit"]])
    assert code == 3
    assert "--bundle " + files["nonunit"] in err


def test_help_exits_0(files, capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# what each help text lists: the commands at the top level, else the options
HELP_LISTS = {
    None: ["decide", "split", "cohomology", "connect", "jets", "fuzz"],
    "decide": ["--algebroid", "--bundle"],
    "split": ["--bundle"],
    "cohomology": ["--bundle"],
    "connect": ["--bundle", "--anchor"],
    "jets": ["--bundle", "--anchor"],
    "fuzz": ["--count", "--seed"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", HELP_LISTS, ids=lambda c: c or "top")
def test_help_lists_the_commands_or_the_options(capsys, command, flag):
    assert main([flag] if command is None else [command, flag]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith(f"usage: algconn {command or ''}".rstrip())
    assert all(name in out.out for name in HELP_LISTS[command])


# -- every schema or validation error names the input at fault ------------------


def test_decide_errors_name_the_input(files, capsys, tmp_path):
    rank2 = {"genus": 0, "atoms": [{"rank": 2, "degree": 1, "stability": "stable"}]}
    alg = write(tmp_path, "rank2.json", {"V": rank2, "anchor": {"kind": "nonzero"}})
    code, doc, err = run(capsys, ["decide", "--algebroid", alg, "--bundle", files["bundle"]])
    assert (code, doc) == (3, None)
    assert err.startswith(f"validation error: --algebroid {alg}: V atom 0 (rank 2, degree 1)")
    # a genus-0 section that is no map V -> TX: above the top degree, a pole,
    # vanishing on TX, above the top degree on O(1) + O(0)
    for degrees, kind, section in (
        ([-1], "nonzero", ["z^5"]),
        ([-1], "nonzero", ["z^-1"]),
        ([2], "isomorphism", ["z"]),
        ([1, 0], "nonzero", ["z^2", "1"]),
    ):
        v = {"genus": 0, "atoms": [{"rank": 1, "degree": d} for d in degrees]}
        alg = write(tmp_path, "section.json", {"V": v, "anchor": {"kind": kind, "section": section}})
        code, doc, err = run(capsys, ["decide", "--algebroid", alg, "--bundle", files["bundle"]])
        assert (code, doc) == (3, None)
        assert err.startswith(f"validation error: --algebroid {alg}: anchor section entry 0 ")
    bad_v = write(tmp_path, "bad_v.json", {"V": {"genus": 0, "atoms": []}, "anchor": {"kind": "zero"}})
    code, doc, err = run(capsys, ["decide", "--algebroid", bad_v, "--bundle", files["bundle"]])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --algebroid {bad_v}: V: 'atoms' must be a non-empty list")
    bundle = write(tmp_path, "b.json", {"genus": 0, "atoms": [{"rank": 1, "degree": 0.5}]})
    code, doc, err = run(capsys, ["decide", "--algebroid", files["algebroid"], "--bundle", bundle])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --bundle {bundle}: atom #0 'degree' must be an integer")


def test_decide_names_the_bad_anchor_section_entry(files, capsys, tmp_path):
    v = {"genus": 0, "atoms": [{"rank": 1, "degree": -3}, {"rank": 1, "degree": -3}]}
    alg = write(tmp_path, "a.json", {"V": v, "anchor": {"kind": "nonzero", "section": ["1", "z^"]}})
    code, doc, err = run(capsys, ["decide", "--algebroid", alg, "--bundle", files["bundle"]])
    assert (code, doc) == (2, None)
    assert err.startswith(
        f"schema error: --algebroid {alg}: bad anchor section entry 1: expected '+' or '-'"
    )


def test_split_errors_name_the_input_and_the_entry(capsys, tmp_path):
    p = write(tmp_path, "entry.json", {"rank": 2, "transition": [["1", "z"], ["2*", "1"]]})
    code, doc, err = run(capsys, ["split", "--bundle", p])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --bundle {p}: bad transition entry at row 1, column 0: ")
    p = write(tmp_path, "number.json", {"rank": 2, "transition": [["1", 7], ["0", "1"]]})
    code, doc, err = run(capsys, ["split", "--bundle", p])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --bundle {p}: bad transition entry at row 0, column 1: ")
    p = write(tmp_path, "singular.json", {"rank": 2, "transition": [["1", "z"], ["1", "z"]]})
    code, doc, err = run(capsys, ["split", "--bundle", p])
    assert (code, doc) == (3, None)
    assert err.startswith(f"validation error: --bundle {p}: transition is not invertible")


NON_STRING_ENTRIES = pytest.mark.parametrize(
    "entry, kind", [(1, "int"), (None, "NoneType"), (["z"], "list"), (2.5, "float")]
)


@NON_STRING_ENTRIES
def test_non_string_transition_entry_is_a_schema_error(capsys, tmp_path, entry, kind):
    p = write(tmp_path, "b.json", {"rank": 1, "transition": [[entry]]})
    code, doc, err = run(capsys, ["split", "--bundle", p])
    assert (code, doc) == (2, None)
    assert err == (
        f"schema error: --bundle {p}: bad transition entry at row 0, column 0: "
        f"expected a Laurent string, got {kind}\n"
    )


@NON_STRING_ENTRIES
def test_non_string_phi_row_entry_is_a_schema_error(files, capsys, tmp_path, entry, kind):
    doc = {"V": {"rank": 1, "transition": [["-z^2"]]}, "phi_row": [entry]}
    anchor = write(tmp_path, "a.json", doc)
    code, doc, err = run(capsys, ["connect", "--bundle", files["p1"], "--anchor", anchor])
    assert (code, doc) == (2, None)
    assert err == (
        f"schema error: --anchor {anchor}: bad phi_row entry 0: "
        f"expected a Laurent string, got {kind}\n"
    )


@NON_STRING_ENTRIES
def test_non_string_anchor_section_entry_is_a_schema_error(files, capsys, tmp_path, entry, kind):
    v = {"genus": 0, "atoms": [{"rank": 1, "degree": -3}, {"rank": 1, "degree": -3}]}
    doc = {"V": v, "anchor": {"kind": "nonzero", "section": ["1", entry]}}
    alg = write(tmp_path, "a.json", doc)
    code, doc, err = run(capsys, ["decide", "--algebroid", alg, "--bundle", files["bundle"]])
    assert (code, doc) == (2, None)
    assert err == (
        f"schema error: --algebroid {alg}: bad anchor section entry 1: "
        f"expected a Laurent string, got {kind}\n"
    )


def test_cohomology_errors_name_the_input(files, capsys, tmp_path):
    code, doc, err = run(capsys, ["cohomology", "--bundle", files["badjson"]])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --bundle {files['badjson']}: malformed JSON: ")
    missing = str(tmp_path / "missing.json")
    code, doc, err = run(capsys, ["cohomology", "--bundle", missing])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --bundle {missing}: cannot read: ")


def test_connect_tells_a_singular_anchor_from_a_singular_bundle(files, capsys, tmp_path):
    singular = {"rank": 2, "transition": [["z", "0"], ["0", "0"]]}
    anchor = write(tmp_path, "a.json", {"V": singular, "phi_row": ["1", "0"]})
    code, doc, err = run(capsys, ["connect", "--bundle", files["p1"], "--anchor", anchor])
    assert (code, doc) == (3, None)
    assert err.startswith(f"validation error: --anchor {anchor}: V: transition is not invertible")
    code, doc, err = run(capsys, ["connect", "--bundle", files["nonunit"], "--anchor", files["tangent"]])
    assert (code, doc) == (3, None)
    assert err.startswith(f"validation error: --bundle {files['nonunit']}: transition is not invertible")
    phi = write(tmp_path, "phi.json", {"V": {"rank": 2, "transition": [["z", "0"], ["0", "1"]]},
                                       "phi_row": ["1", "z^"]})
    code, doc, err = run(capsys, ["connect", "--bundle", files["p1"], "--anchor", phi])
    assert (code, doc) == (2, None)
    assert err.startswith(f"schema error: --anchor {phi}: bad phi_row entry 1: ")


def test_jets_errors_name_the_anchor_entry(files, capsys, tmp_path):
    anchor = write(tmp_path, "a.json", {"V": {"rank": 1, "transition": [["z^2 +"]]}, "phi_row": ["1"]})
    code, doc, err = run(capsys, ["jets", "--bundle", files["o2"], "--anchor", anchor])
    assert (code, doc) == (2, None)
    assert err.startswith(
        f"schema error: --anchor {anchor}: V: bad transition entry at row 0, column 0: "
    )


def _v(*atoms, genus=0):
    return {"genus": genus, "atoms": list(atoms)}


LINE = {"rank": 1, "degree": 0}
TANGENT_AT_3 = {"rank": 1, "degree": 3, "is_tangent": True}
O1 = {"rank": 1, "transition": [["z"]]}
ISO = {"kind": "isomorphism"}

# (command, option at fault, its document, exit code, message after the prefix)
INPUT_ERRORS = [
    ("decide", "algebroid",
     {"V": _v({"rank": 2, "degree": 0, "stability": "stable"}, genus=1), "anchor": ISO}, 3,
     "isomorphism anchor needs rank(V) = 1 = rank of the tangent bundle, got rank 2"),
    ("decide", "algebroid", {"V": _v({"rank": 1, "degree": -1}), "anchor": ISO}, 3,
     "isomorphism anchor requires V to be the tangent bundle (rank 1, degree 2, tangent-identified)"),
    ("decide", "algebroid", {"V": _v(LINE, LINE), "anchor": {"kind": "nonzero", "section": ["1"]}},
     3, "anchor section has 1 entries for rank 2"),
    ("decide", "algebroid", [], 2, "algebroid document must be a JSON object"),
    ("decide", "algebroid", {"V": _v(LINE), "anchor": "zero"}, 2,
     "'anchor' must be an object with a 'kind'"),
    ("decide", "algebroid", {"V": _v(LINE), "anchor": {"kind": "zero", "section": "1"}}, 2,
     "anchor section must be a list of Laurent strings"),
    # the tangent atom's degree error names its atom, as every other atom error does
    ("decide", "algebroid", {"V": _v(LINE, TANGENT_AT_3), "anchor": {"kind": "zero"}}, 2,
     "V: atom #1: tangent atom must have degree 2 at genus 0, got 3"),
    ("decide", "bundle", [], 2, "bundle document must be a JSON object"),
    ("decide", "bundle", {"genus": 0, "atoms": [1]}, 2, "atom #0 must be an object"),
    ("decide", "bundle", _v(dict(LINE, label=3)), 2, "atom #0 label must be a string"),
    ("decide", "bundle", _v(dict(LINE, is_tangent="yes")), 2, "atom #0 is_tangent must be a boolean"),
    ("decide", "bundle", _v({"rank": 2, "degree": 0, "is_tangent": True}, genus=1), 2,
     "atom #0: is_tangent requires rank 1"),
    ("decide", "bundle", _v(LINE, TANGENT_AT_3), 2,
     "atom #1: tangent atom must have degree 2 at genus 0, got 3"),
    ("split", "bundle", [1], 2, "bundle document must be a JSON object"),
    ("split", "bundle", {"rank": 1}, 2, "bundle document needs 'rank' and 'transition'"),
    ("split", "bundle", {"rank": 2, "transition": [["1"]]}, 2,
     "'transition' must be a rank x rank grid of Laurent strings"),
    ("connect", "anchor", [], 2, "anchor document must be a JSON object"),
    ("connect", "anchor", {"V": O1}, 2, "anchor document needs 'V' and 'phi_row'"),
    ("connect", "anchor", {"V": O1, "phi_row": ["1", "1"]}, 2,
     "'phi_row' must be a list of 1 Laurent strings"),
]


@pytest.mark.parametrize(
    "command, option, doc, code, message",
    INPUT_ERRORS,
    ids=[f"{case[0]}-{case[1]}-{n}" for n, case in enumerate(INPUT_ERRORS)],
)
def test_input_errors_name_the_option_the_file_and_the_fault(
    files, capsys, tmp_path, command, option, doc, code, message
):
    inputs = {
        "decide": {"algebroid": files["algebroid"], "bundle": files["bundle"]},
        "split": {"bundle": files["p1"]},
        "connect": {"bundle": files["o2"], "anchor": files["tangent"]},
    }[command]
    inputs[option] = path = write(tmp_path, "fault.json", doc)
    argv = [command] + [arg for name, p in inputs.items() for arg in (f"--{name}", p)]
    got, out, err = run(capsys, argv)
    kind = "schema" if code == 2 else "validation"
    assert (got, out) == (code, None)
    assert err == f"{kind} error: --{option} {path}: {message}\n"


def test_genus_mismatch_names_both_options_files_and_genera(capsys, tmp_path):
    # the fault lies in neither input alone, so the error names both
    algebroid = write(tmp_path, "alg.json", {"V": _v(LINE, genus=1), "anchor": {"kind": "zero"}})
    bundle = write(tmp_path, "bundle.json", _v(LINE))
    got, out, err = run(capsys, ["decide", "--algebroid", algebroid, "--bundle", bundle])
    assert (got, out) == (3, None)
    assert err == (
        f"validation error: --algebroid {algebroid} at genus 1, --bundle {bundle} at genus 0: "
        "the algebroid and the bundle must lie on one curve\n"
    )
