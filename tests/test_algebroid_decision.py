"""Decision procedure: descriptors checked when built, forced-zero anchors,
the case analysis."""

import copy
import pickle

import pytest

from algconn.algebroid_decision import (
    AlgebroidDesc,
    AnchorDesc,
    AnchorKind,
    Decision,
    Reason,
    Verdict,
    algebroid_from_json,
    algebroid_to_json,
    anchor_forced_zero,
    decide_connection,
    decision_to_json,
)
from algconn.errors import ContextMismatch, InvalidAnchor, PreconditionFailed, SchemaError
from algconn.exact_core import LaurentPoly, laurent_parse
from algconn.formal_bundles import Atom, CurveContext, FormalBundle, Stability


def v_line(degree, genus=0, tangent=False):
    return FormalBundle(CurveContext(genus), (Atom(1, degree, is_tangent=tangent),))


def v_rank2(degree, genus=0, stability=Stability.STABLE):
    return FormalBundle(CurveContext(genus), (Atom(2, degree, stability),))


def e_lines(degrees, genus=0):
    return FormalBundle(CurveContext(genus), tuple(Atom(1, d) for d in degrees))


def anchor(kind, section=None):
    sec = tuple(laurent_parse(s) for s in section) if section else None
    return AnchorDesc(AnchorKind(kind), sec)


def test_validate_tangent_isomorphism_ok():
    AlgebroidDesc(v_line(2, tangent=True), anchor("isomorphism"))


def test_validate_rank2_isomorphism_rejected():
    with pytest.raises(InvalidAnchor):
        AlgebroidDesc(v_rank2(0), anchor("isomorphism"))
    # at genus 1 a rank-2 V exists, and the isomorphism check itself refuses it
    with pytest.raises(InvalidAnchor, match=r"needs rank\(V\) = 1 = rank of the tangent bundle"):
        AlgebroidDesc(v_rank2(-3, genus=1), anchor("isomorphism"))
    with pytest.raises(InvalidAnchor, match="requires V to be the tangent bundle"):
        AlgebroidDesc(v_line(-1), anchor("isomorphism"))


def test_validate_genus0_stable_rank2_rejected():
    # Grothendieck: every bundle on P^1 splits, so an atom (an indecomposable
    # summand) of rank >= 2 at genus 0 describes no bundle, whatever its
    # declared stability and whatever the anchor
    for stability in Stability:
        declared = f"declared {stability.value}"
        for kind in ("nonzero", "zero"):
            with pytest.raises(InvalidAnchor, match=rf"V atom 0 \(rank 2, degree 1\) is {declared}"):
                AlgebroidDesc(v_rank2(1, stability=stability), anchor(kind))
        V = FormalBundle(CurveContext(0), (Atom(1, -1), Atom(3, -4, stability, label="S")))
        with pytest.raises(InvalidAnchor, match=rf"V atom 1 'S' \(rank 3, degree -4\) is {declared}"):
            decide_connection(AlgebroidDesc(V, anchor("nonzero")), e_lines([1]))
        # at genus 1 bundles of rank 2 of every stability exist
        AlgebroidDesc(v_rank2(-3, genus=1, stability=stability), anchor("nonzero"))


def test_validate_high_degree_nonzero_rejected():
    # degree 5 > 2 = deg TX at genus 0: every map to TX vanishes
    with pytest.raises(InvalidAnchor):
        AlgebroidDesc(v_line(5), anchor("nonzero"))


def test_validate_equal_degree_nontangent_nonzero_rejected():
    # genus 2: deg V = -2 = deg TX but V is not TX: nonzero map impossible
    with pytest.raises(InvalidAnchor, match=r"degree\(V\) = -2 >= -2 = degree of the tangent"):
        AlgebroidDesc(v_line(-2, genus=2), anchor("nonzero"))


def test_canonicalization_genus0_degree2_is_tangent():
    # at genus 0 the degree-2 line bundle is the tangent bundle, and a
    # nonzero self-map of it is an isomorphism
    desc = AlgebroidDesc(v_line(2), anchor("nonzero", ["1"]))
    assert desc.V.atoms[0].is_tangent
    assert desc.anchor.kind == AnchorKind.ISOMORPHISM


def test_canonicalization_tangent_nonzero_promoted_any_genus():
    desc = AlgebroidDesc(v_line(-2, genus=2, tangent=True), anchor("nonzero"))
    assert desc.anchor.kind == AnchorKind.ISOMORPHISM


def test_validate_forced_zero_inconsistency_rejected():
    # genus 1, stable rank-2 of slope 0 >= 0 = deg TX: anchor forced zero
    assert anchor_forced_zero(v_rank2(0, genus=1))
    with pytest.raises(InvalidAnchor, match="forces the anchor to vanish"):
        AlgebroidDesc(v_rank2(0, genus=1), anchor("nonzero"))


def test_validate_section_consistency():
    with pytest.raises(InvalidAnchor):
        AlgebroidDesc(v_line(-1), anchor("zero", ["z"]))
    with pytest.raises(InvalidAnchor):
        AlgebroidDesc(v_line(-1), anchor("nonzero", ["0"]))
    with pytest.raises(InvalidAnchor):
        AlgebroidDesc(v_line(-1, genus=1), anchor("nonzero", ["z"]))
    AlgebroidDesc(v_line(-1), anchor("nonzero", ["z^3 - 1"]))
    # a genus-0 section is a map V -> TX: entry k is a polynomial of degree
    # <= 2 - deg(atom k); the boundary degree is accepted
    AlgebroidDesc(v_line(-1), anchor("nonzero", ["z^3"]))
    AlgebroidDesc(v_line(2, tangent=True), anchor("isomorphism", ["-2"]))
    v10 = e_lines([1, 0])
    AlgebroidDesc(v10, anchor("nonzero", ["z", "z^2"]))
    # one entry per line atom of V, no fewer and no more
    for V, section in ((v10, ["z"]), (v_line(-1), ["z", "1"])):
        n = len(section)
        with pytest.raises(InvalidAnchor, match=f"anchor section has {n} entries for rank {V.rank}"):
            AlgebroidDesc(V, anchor("nonzero", section))
    for V, kind, section, k in (
        (v_line(-1), "nonzero", ["z^5"], 0),
        (v_line(-1), "nonzero", ["z^-1"], 0),
        (v_line(2, tangent=True), "isomorphism", ["z"], 0),
        (v10, "nonzero", ["z^2", "1"], 0),
        (v10, "nonzero", ["1", "z^3 + 1"], 1),
    ):
        with pytest.raises(InvalidAnchor, match=rf"anchor section entry {k} "):
            AlgebroidDesc(V, anchor(kind, section))


# fields that the constructor rewrites: an undeclared genus-0 O(2) is TX,
# and a nonzero anchor on TX is an isomorphism
CANONICALIZED = [
    (v_line(2), anchor("nonzero")),
    (v_line(2), anchor("nonzero", ["3"])),
    (v_line(2), anchor("zero")),
    (v_line(2, tangent=True), anchor("nonzero")),
    (v_line(-2, genus=2, tangent=True), anchor("nonzero")),
]


@pytest.mark.parametrize("fields", CANONICALIZED, ids=range(len(CANONICALIZED)))
def test_a_descriptor_is_stored_in_canonical_form(fields):
    desc = AlgebroidDesc(*fields)
    assert desc.V.atoms[0].is_tangent
    assert desc.anchor.kind != AnchorKind.NONZERO
    # the canonical form is a fixed point: rebuilt from its fields, copied,
    # pickled or sent through JSON, the descriptor comes back equal
    assert AlgebroidDesc(desc.V, desc.anchor) == desc
    assert AlgebroidDesc(desc.V, AnchorDesc(desc.anchor.kind, desc.anchor.section)) == desc
    assert copy.copy(desc) == desc and copy.deepcopy(desc) == desc
    assert pickle.loads(pickle.dumps(desc)) == desc
    assert algebroid_from_json(algebroid_to_json(desc)) == desc


def test_an_anchor_kind_is_an_anchor_kind():
    # a string is read as its kind; any other value is refused
    assert AnchorDesc("nonzero") == AnchorDesc(AnchorKind.NONZERO)
    assert type(AnchorDesc("zero").kind) is AnchorKind
    with pytest.raises(ValueError):
        AnchorDesc("bogus")
    with pytest.raises(InvalidAnchor, match="nonzero anchor carries a zero section"):
        AlgebroidDesc(v_line(-1), AnchorDesc("nonzero", (LaurentPoly.zero(),)))
    desc = AlgebroidDesc(v_line(-1), AnchorDesc("nonzero", [laurent_parse("z")]))
    assert algebroid_to_json(desc)["anchor"] == {"kind": "nonzero", "section": ["z"]}
    # a list section is stored as a tuple, so the descriptor hashes
    assert desc.anchor.section == (laurent_parse("z"),)
    assert hash(desc) == hash(AlgebroidDesc(v_line(-1), anchor("nonzero", ["z"])))


def test_an_anchor_section_holds_laurent_polynomials():
    # an entry of another type is named by its index, and a string section,
    # which tuple() would split into its characters, is refused whole
    with pytest.raises(TypeError, match="anchor section entry 0 must be a LaurentPoly, not str"):
        AnchorDesc("nonzero", ("z",))
    with pytest.raises(TypeError, match="entry 1 must be a LaurentPoly, not int"):
        AnchorDesc(AnchorKind.NONZERO, [laurent_parse("z"), 3])
    for section in ("z", ""):
        with pytest.raises(TypeError, match="not a string"):
            AnchorDesc("zero", section)
    # so no descriptor is built on such data
    with pytest.raises(TypeError, match="entry 0"):
        AlgebroidDesc(v_line(-1), AnchorDesc("nonzero", ("z",)))
    assert AnchorDesc("nonzero", ()).section == ()
    assert AnchorDesc("nonzero", iter([laurent_parse("z")])).section == (laurent_parse("z"),)


def test_decide_connection_builds_no_descriptor(monkeypatch):
    # the descriptor is checked when it is built, so deciding builds none
    desc = AlgebroidDesc(v_line(2), anchor("nonzero", ["3"]))
    built = []
    init = AlgebroidDesc.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(AlgebroidDesc, "__init__", counting_init)
    d = decide_connection(desc, e_lines([1]))
    assert (d.reason, d.atiyah_weil, built) == (Reason.ANCHOR_ISO_AW, False, [])


def test_anchor_forced_zero_cases():
    assert anchor_forced_zero(v_rank2(0, genus=1))
    assert anchor_forced_zero(v_line(3))
    assert not anchor_forced_zero(v_line(-3))
    # unstable rank 2: nothing is forced
    assert not anchor_forced_zero(v_rank2(0, genus=1, stability=Stability.UNKNOWN))


def test_decide_rank_one_not_tangent():
    d = decide_connection(
        AlgebroidDesc(v_line(-3), anchor("nonzero")), e_lines([1, -1])
    )
    assert d.verdict == Verdict.EXISTS and d.reason == Reason.RANK_ONE_NOT_TANGENT


def test_decide_isomorphism_atiyah_weil():
    desc = AlgebroidDesc(v_line(-2, genus=2, tangent=True), anchor("isomorphism"))
    d = decide_connection(desc, e_lines([1, -1], genus=2))
    assert d.verdict == Verdict.EXISTS_IFF_ATIYAH_WEIL and d.atiyah_weil is False
    d2 = decide_connection(desc, e_lines([0, 0], genus=2))
    assert d2.atiyah_weil is True and d2.as_bool()


def test_decide_stable_rank2():
    # mu(V) = -9/2 < -4 = deg TX at genus 3, so a nonzero anchor is possible
    desc = AlgebroidDesc(v_rank2(-9, genus=3), anchor("nonzero"))
    d = decide_connection(desc, e_lines([2, 5], genus=3))
    assert d.verdict == Verdict.EXISTS and d.reason == Reason.STABLE_RANK_GE2


def test_decide_stable_rank2_forced_zero_descriptor_rejected():
    # mu(V) = 1/2 >= -4 = deg TX forces the anchor to vanish, so declaring
    # it nonzero is inconsistent and no such descriptor is built
    with pytest.raises(InvalidAnchor):
        decide_connection(AlgebroidDesc(v_rank2(1, genus=3), anchor("nonzero")),
                          e_lines([2, 5], genus=3))
    # the same V with a zero anchor is fine and decides via the zero case
    d = decide_connection(
        AlgebroidDesc(v_rank2(1, genus=3), anchor("zero")), e_lines([2, 5], genus=3)
    )
    assert d.verdict == Verdict.EXISTS and d.reason == Reason.ZERO_ANCHOR


def test_decide_undecided_unknown_stability():
    desc = AlgebroidDesc(v_rank2(0, genus=1, stability=Stability.UNKNOWN), anchor("nonzero"))
    d = decide_connection(desc, e_lines([0], genus=1))
    assert d.verdict == Verdict.UNDECIDED and d.reason == Reason.HYPOTHESES_UNMET
    with pytest.raises(PreconditionFailed):
        d.as_bool()


def test_decide_zero_anchor_first():
    # V = TX with zero anchor resolves through the zero-anchor case
    desc = AlgebroidDesc(v_line(2, tangent=True), anchor("zero"))
    d = decide_connection(desc, e_lines([7]))
    assert d.reason == Reason.ZERO_ANCHOR and d.verdict == Verdict.EXISTS


def test_decide_verdict_invariant_under_atom_relabeling():
    desc = AlgebroidDesc(v_line(2, tangent=True), anchor("isomorphism"))
    E1 = FormalBundle(CurveContext(0), (Atom(1, 1, label="a"), Atom(1, -1, label="b")))
    E2 = FormalBundle(CurveContext(0), (Atom(1, -1, label="x"), Atom(1, 1, label="y")))
    assert (
        decide_connection(desc, E1).verdict == decide_connection(desc, E2).verdict
    )


def test_decide_context_mismatch():
    desc = AlgebroidDesc(v_line(-3), anchor("nonzero"))
    with pytest.raises(ContextMismatch):
        decide_connection(desc, e_lines([0], genus=1))


def test_json_round_trip():
    desc = AlgebroidDesc(v_line(-3), anchor("nonzero", ["z^5 + 1"]))
    doc = algebroid_to_json(desc)
    assert algebroid_from_json(doc) == desc
    with pytest.raises(SchemaError):
        algebroid_from_json({"V": {"genus": 0, "atoms": [{"rank": 1, "degree": 0}]}})
    with pytest.raises(SchemaError):
        algebroid_from_json(
            {
                "V": {"genus": 0, "atoms": [{"rank": 1, "degree": 0}]},
                "anchor": {"kind": "sideways"},
            }
        )


# each case of the criterion, with the verdict and the citation it gives
RULES = {
    Reason.ZERO_ANCHOR: (
        Verdict.EXISTS, "zero anchor: the zero homomorphism E -> E (x) V* is a connection"),
    Reason.STABLE_RANK_GE2: (
        Verdict.EXISTS, "stable anchor bundle of rank >= 2: the obstruction class vanishes"),
    Reason.RANK_ONE_NOT_TANGENT: (
        Verdict.EXISTS,
        "line-bundle anchor other than the tangent bundle: the obstruction class vanishes"),
    Reason.ANCHOR_ISO_AW: (
        Verdict.EXISTS_IFF_ATIYAH_WEIL,
        "anchor an isomorphism: Atiyah-Weil criterion (every indecomposable component of "
        "degree zero)"),
    Reason.HYPOTHESES_UNMET: (
        Verdict.UNDECIDED, "outside the hypotheses of the criterion: no verdict"),
}


@pytest.mark.parametrize("reason", list(Reason), ids=lambda r: r.value)
def test_a_decision_reads_its_verdict_and_citation_off_its_reason(reason):
    d = Decision(reason, True if reason == Reason.ANCHOR_ISO_AW else None)
    assert (d.verdict, d.citation) == RULES[reason]


@pytest.mark.parametrize(
    "reason, atiyah_weil",
    [(Reason.ANCHOR_ISO_AW, None), (Reason.ANCHOR_ISO_AW, 1), (Reason.ZERO_ANCHOR, False),
     (Reason.HYPOTHESES_UNMET, True)],
)
def test_a_decision_refuses_an_answer_its_reason_contradicts(reason, atiyah_weil):
    # an Atiyah-Weil answer exactly when the reason's verdict needs one
    with pytest.raises(ValueError, match="takes atiyah_weil"):
        Decision(reason, atiyah_weil)


def test_decision_json_carries_citation():
    desc = AlgebroidDesc(v_line(-3), anchor("nonzero"))
    doc = decision_to_json(decide_connection(desc, e_lines([7])))
    assert doc["verdict"] == "exists"
    assert doc["reason"] == "RankOneNotTangent"
    assert "citation" in doc and doc["citation"]
