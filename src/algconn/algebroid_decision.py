"""Algebroid descriptors and the connection-existence decision procedure.

An algebroid is a bundle V together with an anchor homomorphism into the
tangent bundle, described here by its kind: identically zero, nonzero but
not an isomorphism, or an isomorphism (which pins V to the tangent bundle).
The decision procedure is a total case analysis over validated descriptors:

  1. zero anchor            -> connections always exist (the zero map is one)
  2. rank(V) >= 2, V stable -> always exist
  3. rank(V) = 1, V not the tangent bundle -> always exist
  4. anchor an isomorphism  -> exist iff every atom of E has degree zero
  5. anything else          -> undecided (hypotheses of the criterion fail)

Undecided is an honest answer, not a guess: for e.g. an unstable rank-2 V
with nonzero anchor the criterion proves nothing either way.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import (
    ContextMismatch,
    InvalidAnchor,
    PreconditionFailed,
    SchemaError,
    naming,
)
from .exact_core import LaurentPoly, _parse_entries, _Value
from .formal_bundles import (
    Atom,
    FormalBundle,
    Stability,
    atiyah_weil,
    bundle_from_json,
    bundle_to_json,
)


class AnchorKind(str, Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    ISOMORPHISM = "isomorphism"


class AnchorDesc(_Value):
    """Anchor data. The optional section (chart-0 coefficients of the map
    into the tangent bundle) is carried for the genus-0 engine only."""

    __slots__ = _fields = ("kind", "section")

    def __init__(
        self, kind: AnchorKind, section: tuple[LaurentPoly, ...] | None = None
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "section", section)

    def _key(self) -> tuple:
        return (self.kind, self.section)


class AlgebroidDesc(_Value):
    __slots__ = _fields = ("V", "anchor")

    def __init__(self, V: FormalBundle, anchor: AnchorDesc) -> None:
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "anchor", anchor)

    def _key(self) -> tuple:
        return (self.V, self.anchor)


class Verdict(str, Enum):
    EXISTS = "exists"
    EXISTS_IFF_ATIYAH_WEIL = "exists-iff-atiyah-weil"
    UNDECIDED = "undecided"


class Reason(str, Enum):
    ZERO_ANCHOR = "ZeroAnchor"
    STABLE_RANK_GE2 = "StableRankGe2"
    RANK_ONE_NOT_TANGENT = "RankOneNotTangent"
    ANCHOR_ISO_AW = "AnchorIso_AW"
    HYPOTHESES_UNMET = "HypothesesUnmet"


CITATIONS = {
    Reason.ZERO_ANCHOR: "zero anchor: the zero homomorphism E -> E (x) V* is a connection",
    Reason.STABLE_RANK_GE2: "stable anchor bundle of rank >= 2: the obstruction class vanishes",
    Reason.RANK_ONE_NOT_TANGENT: "line-bundle anchor other than the tangent bundle: "
    "the obstruction class vanishes",
    Reason.ANCHOR_ISO_AW: "anchor an isomorphism: Atiyah-Weil criterion "
    "(every indecomposable component of degree zero)",
    Reason.HYPOTHESES_UNMET: "outside the hypotheses of the criterion: no verdict",
}


class Decision(_Value):
    __slots__ = _fields = ("verdict", "reason", "atiyah_weil")

    def __init__(
        self, verdict: Verdict, reason: Reason, atiyah_weil: bool | None = None
    ) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "atiyah_weil", atiyah_weil)

    def _key(self) -> tuple:
        return (self.verdict, self.reason, self.atiyah_weil)

    @property
    def citation(self) -> str:
        return CITATIONS[self.reason]

    def as_bool(self) -> bool:
        """Resolve to a plain existence answer where one is determined."""
        if self.verdict == Verdict.EXISTS:
            return True
        if self.verdict == Verdict.EXISTS_IFF_ATIYAH_WEIL:
            return bool(self.atiyah_weil)
        raise PreconditionFailed("undecided verdicts carry no boolean answer")


def _is_tangent_bundle(V: FormalBundle) -> bool:
    return V.rank == 1 and V.atoms[0].is_tangent


def validate_algebroid(desc: AlgebroidDesc) -> AlgebroidDesc:
    """Check the anchor invariants and return a canonicalized descriptor.

    A genus-0 atom of rank >= 2 is rejected, whatever its declared
    stability: an atom is indecomposable, and by Grothendieck every bundle on
    the projective line is a sum of line bundles, so no such V exists.

    Canonicalizations: at genus 0 a degree-2 line bundle is the tangent
    bundle (line bundles there are classified by degree), and a nonzero
    anchor on the tangent bundle is an isomorphism (a nonzero map between
    line bundles of equal degree cannot vanish anywhere).
    """
    V = desc.V
    anchor = desc.anchor
    g = V.context.genus
    tangent_deg = V.context.tangent_degree

    if g == 0:
        for k, atom in enumerate(V.atoms):
            if atom.rank >= 2:
                name = f" {atom.label!r}" if atom.label else ""
                raise InvalidAnchor(
                    f"V atom {k}{name} (rank {atom.rank}, degree {atom.degree}) is "
                    f"declared {atom.stability.value}, but an atom is indecomposable and "
                    f"genus 0 has no indecomposable bundle of rank >= 2 (every bundle "
                    f"on the projective line splits into line bundles)"
                )

    if V.context.genus == 0 and V.rank == 1 and V.degree == tangent_deg:
        if not V.atoms[0].is_tangent:
            a = V.atoms[0]
            V = FormalBundle(V.context, (Atom(a.rank, a.degree, a.stability, a.label, True),))

    if anchor.kind == AnchorKind.NONZERO and _is_tangent_bundle(V):
        anchor = AnchorDesc(AnchorKind.ISOMORPHISM, anchor.section)

    if anchor.kind == AnchorKind.ISOMORPHISM:
        if V.rank != 1:
            raise InvalidAnchor(
                f"isomorphism anchor needs rank(V) = 1 = rank of the tangent bundle, "
                f"got rank {V.rank}"
            )
        if not _is_tangent_bundle(V):
            raise InvalidAnchor(
                "isomorphism anchor requires V to be the tangent bundle "
                "(rank 1, degree {0}, tangent-identified)".format(tangent_deg)
            )

    if anchor.kind == AnchorKind.NONZERO:
        if V.rank == 1 and not _is_tangent_bundle(V) and V.degree >= tangent_deg:
            raise InvalidAnchor(
                f"degree(V) = {V.degree} >= {tangent_deg} = degree of the tangent "
                f"bundle forces every map V -> TX to vanish or V = TX; a nonzero "
                f"anchor is impossible"
            )
        if anchor_forced_zero(AlgebroidDesc(V, anchor)):
            raise InvalidAnchor(
                f"slope data (rank {V.rank}, degree {V.degree}, genus {g}) forces "
                f"the anchor to vanish; kind 'nonzero' is inconsistent"
            )

    if anchor.section is not None:
        if g != 0:
            raise InvalidAnchor("explicit anchor sections are genus-0 data only")
        if len(anchor.section) != V.rank:
            raise InvalidAnchor(
                f"anchor section has {len(anchor.section)} entries for rank {V.rank}"
            )
        section_zero = all(p.is_zero for p in anchor.section)
        if anchor.kind == AnchorKind.ZERO and not section_zero:
            raise InvalidAnchor("zero anchor carries a nonzero section")
        if anchor.kind != AnchorKind.ZERO and section_zero:
            raise InvalidAnchor(f"{anchor.kind.value} anchor carries a zero section")

    return AlgebroidDesc(V, anchor)


def anchor_forced_zero(desc: AlgebroidDesc) -> bool:
    """True when slope data alone forces the anchor to vanish: a stable V of
    rank >= 2 with mu(V) >= deg(TX), or a line bundle of degree > deg(TX)."""
    V = desc.V
    tangent_deg = V.context.tangent_degree
    if V.rank >= 2:
        all_stable = all(a.stability == Stability.STABLE for a in V.atoms)
        return (
            len(V.atoms) == 1
            and all_stable
            and Fraction(V.degree, V.rank) >= tangent_deg
        )
    return V.degree > tangent_deg


def anchor_divisor_degree(desc: AlgebroidDesc) -> int:
    """Degree of the vanishing divisor of a nonzero anchor on a line bundle:
    deg(TX) - deg(V), positive exactly because V admits a nonzero map to TX
    without being TX."""
    V = desc.V
    if V.rank != 1:
        raise PreconditionFailed("anchor divisor defined only for rank-1 V")
    if desc.anchor.kind != AnchorKind.NONZERO:
        raise PreconditionFailed(
            f"anchor divisor defined only for nonzero non-isomorphism anchors, "
            f"got kind '{desc.anchor.kind.value}'"
        )
    if _is_tangent_bundle(V):
        raise PreconditionFailed("anchor divisor undefined for V = TX")
    deg = V.context.tangent_degree - V.degree
    if deg <= 0:
        raise PreconditionFailed("descriptor violates degree(V) < degree(TX)")
    return deg


def decide_connection(desc: AlgebroidDesc, E: FormalBundle) -> Decision:
    """Total, deterministic case analysis; first matching case wins."""
    desc = validate_algebroid(desc)
    if desc.V.context != E.context:
        raise ContextMismatch(
            f"algebroid at genus {desc.V.context.genus}, bundle at genus "
            f"{E.context.genus}"
        )
    V, anchor = desc.V, desc.anchor

    if anchor.kind == AnchorKind.ZERO:
        return Decision(Verdict.EXISTS, Reason.ZERO_ANCHOR)
    if V.rank >= 2:
        if len(V.atoms) == 1 and V.atoms[0].stability == Stability.STABLE:
            return Decision(Verdict.EXISTS, Reason.STABLE_RANK_GE2)
        return Decision(Verdict.UNDECIDED, Reason.HYPOTHESES_UNMET)
    if not _is_tangent_bundle(V):
        return Decision(Verdict.EXISTS, Reason.RANK_ONE_NOT_TANGENT)
    return Decision(
        Verdict.EXISTS_IFF_ATIYAH_WEIL, Reason.ANCHOR_ISO_AW, atiyah_weil(E)
    )


# -- JSON interface ---------------------------------------------------------


def algebroid_from_json(doc) -> AlgebroidDesc:
    if not isinstance(doc, dict):
        raise SchemaError("algebroid document must be a JSON object")
    if "V" not in doc or "anchor" not in doc:
        raise SchemaError("algebroid document needs 'V' and 'anchor'")
    with naming("V"):
        V = bundle_from_json(doc["V"])
    raw = doc["anchor"]
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SchemaError("'anchor' must be an object with a 'kind'")
    try:
        kind = AnchorKind(raw["kind"])
    except ValueError as exc:
        raise SchemaError("anchor kind must be zero|nonzero|isomorphism") from exc
    section = None
    if raw.get("section") is not None:
        if not isinstance(raw["section"], list):
            raise SchemaError("anchor section must be a list of Laurent strings")
        section = tuple(_parse_entries(raw["section"], "anchor section entry"))
    return AlgebroidDesc(V, AnchorDesc(kind, section))


def algebroid_to_json(desc: AlgebroidDesc) -> dict:
    out: dict = {
        "V": bundle_to_json(desc.V),
        "anchor": {"kind": desc.anchor.kind.value},
    }
    if desc.anchor.section is not None:
        out["anchor"]["section"] = [str(p) for p in desc.anchor.section]
    return out


def decision_to_json(d: Decision) -> dict:
    out = {
        "verdict": d.verdict.value,
        "reason": d.reason.value,
        "citation": d.citation,
    }
    if d.atiyah_weil is not None:
        out["atiyah_weil"] = d.atiyah_weil
    return out
