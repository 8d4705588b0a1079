"""Formal calculus of vector bundles on a genus-g curve.

A bundle is a multiset of indecomposable atoms (rank, degree, stability
class). Stability is a *declared* attribute: for genus >= 1 it is not
determined by the numerics, so hypotheses like "V is stable" enter as input
data, never as conclusions. Slopes are exact rationals.

The tangent line bundle has degree 2(1-g) and the canonical bundle 2g-2;
both are derived from the genus, never stored. A rank-1 atom may carry the
is_tangent flag identifying it with the tangent bundle as a bundle, which is
strictly more information than its (rank, degree) class once g >= 1.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import ContextMismatch, SchemaError, UnknownStability
from .exact_core import _Value


class Stability(str, Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"
    UNKNOWN = "unknown"


class CurveContext(_Value):
    """A compact connected Riemann surface, known to this layer by its genus."""

    __slots__ = _fields = ("genus",)

    def __init__(self, genus: int) -> None:
        object.__setattr__(self, "genus", genus)
        if genus < 0:
            raise ValueError("genus must be a non-negative integer")

    def _key(self) -> tuple:
        return (self.genus,)

    @property
    def tangent_degree(self) -> int:
        return 2 * (1 - self.genus)


class Atom(_Value):
    """An indecomposable summand, identified by rank, degree and declared
    stability. Rank-1 atoms are always stable, so the flag is normalized."""

    __slots__ = _fields = ("rank", "degree", "stability", "label", "is_tangent")

    def __init__(
        self,
        rank: int,
        degree: int,
        stability: Stability = Stability.UNKNOWN,
        label: str = "",
        is_tangent: bool = False,
    ) -> None:
        if rank == 1:
            stability = Stability.STABLE
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "stability", stability)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "is_tangent", is_tangent)
        if rank < 1:
            raise ValueError("atom rank must be positive")
        if is_tangent and rank != 1:
            raise ValueError("is_tangent requires rank 1")

    def _key(self) -> tuple:
        return (self.rank, self.degree, self.stability, self.label, self.is_tangent)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


class FormalBundle(_Value):
    """Non-empty multiset of atoms over a fixed curve context."""

    __slots__ = _fields = ("context", "atoms")

    def __init__(self, context: CurveContext, atoms: tuple[Atom, ...]) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("a bundle needs at least one atom")
        for a in atoms:
            if a.is_tangent and a.degree != context.tangent_degree:
                raise ValueError(
                    f"tangent atom must have degree {context.tangent_degree} "
                    f"at genus {context.genus}, got {a.degree}"
                )

    def _key(self) -> tuple:
        return (self.context, self.atoms)

    @property
    def rank(self) -> int:
        return sum(a.rank for a in self.atoms)

    @property
    def degree(self) -> int:
        return sum(a.degree for a in self.atoms)


class HNFiltration(_Value):
    """Successive-quotient data: (atoms, slope) steps with strictly
    decreasing slopes, partitioning the bundle's atoms."""

    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple[tuple[tuple[Atom, ...], Fraction], ...]) -> None:
        object.__setattr__(self, "steps", steps)
        slopes = [s for _, s in steps]
        for earlier, later in zip(slopes, slopes[1:]):
            if not earlier > later:
                raise ValueError(f"slopes not strictly decreasing: {slopes}")

    def _key(self) -> tuple:
        return (self.steps,)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for _, s in self.steps)


def slope(E: FormalBundle) -> Fraction:
    """degree/rank in lowest terms."""
    return Fraction(E.degree, E.rank)


def tensor_profile(E: FormalBundle, F: FormalBundle) -> tuple[int, int]:
    """(rank, degree) of E (x) F. Only the numerical profile is defined:
    the atom decomposition of a tensor product is not formally determined,
    but mu(E (x) F) = mu(E) + mu(F) already follows from this profile."""
    if E.context != F.context:
        raise ContextMismatch(
            f"tensor of bundles over genus {E.context.genus} and {F.context.genus}"
        )
    rank = E.rank * F.rank
    degree = E.degree * F.rank + E.rank * F.degree
    return rank, degree


def dual(E: FormalBundle) -> FormalBundle:
    """Atom-wise (rank, -degree); stability classes are preserved."""
    atoms = tuple(Atom(a.rank, -a.degree, a.stability, a.label) for a in E.atoms)
    return FormalBundle(E.context, atoms)


def is_semistable(E: FormalBundle) -> bool:
    """Certified semistability: every atom declared (semi)stable and all
    slopes equal. Unknown flags mean no certificate."""
    if any(a.stability == Stability.UNKNOWN for a in E.atoms):
        return False
    slopes = {a.slope for a in E.atoms}
    return len(slopes) == 1


def hn_filtration(E: FormalBundle) -> HNFiltration:
    """Group atoms by slope, in strictly decreasing slope order.

    Equal-slope atoms merge into one step: a direct sum of semistables of
    one slope is semistable, so the grouping is the canonical filtration
    with semistable quotients. Every atom must carry a declared stability.
    """
    for a in E.atoms:
        if a.stability == Stability.UNKNOWN:
            raise UnknownStability(
                f"atom {a.label or (a.rank, a.degree)} has unknown stability"
            )
    by_slope: dict[Fraction, list[Atom]] = {}
    for a in E.atoms:
        by_slope.setdefault(a.slope, []).append(a)
    steps = tuple(
        (tuple(by_slope[s]), s) for s in sorted(by_slope, reverse=True)
    )
    return HNFiltration(steps)


class HomVanishing(str, Enum):
    VANISHES = "vanishes"
    UNKNOWN = "unknown"


def hom_vanishes(E: FormalBundle, F: FormalBundle) -> HomVanishing:
    """H^0(Hom(E, F)) = 0 is certified when both bundles are semistable with
    mu(E) > mu(F); in every other situation the formal layer cannot decide
    and answers unknown."""
    if is_semistable(E) and is_semistable(F) and slope(E) > slope(F):
        return HomVanishing.VANISHES
    return HomVanishing.UNKNOWN


def atiyah_weil(E: FormalBundle) -> bool:
    """Degree of every indecomposable component is zero. Atoms are the
    declared indecomposable components here, so this is atom-wise."""
    return all(a.degree == 0 for a in E.atoms)


# -- JSON interface ---------------------------------------------------------


def bundle_from_json(doc) -> FormalBundle:
    if not isinstance(doc, dict):
        raise SchemaError("bundle document must be a JSON object")
    if "genus" not in doc or "atoms" not in doc:
        raise SchemaError("bundle document needs 'genus' and 'atoms'")
    genus = doc["genus"]
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 0:
        raise SchemaError("'genus' must be a non-negative integer")
    raw_atoms = doc["atoms"]
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise SchemaError("'atoms' must be a non-empty list")
    atoms = []
    for i, a in enumerate(raw_atoms):
        if not isinstance(a, dict):
            raise SchemaError(f"atom #{i} must be an object")
        for field in ("rank", "degree"):
            value = a.get(field)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"atom #{i} '{field}' must be an integer, got {value!r}")
        rank, degree = a["rank"], a["degree"]
        stab_raw = a.get("stability", "unknown")
        try:
            stab = Stability(stab_raw)
        except ValueError as exc:
            raise SchemaError(
                f"atom #{i} stability must be stable|semistable|unknown"
            ) from exc
        label = a.get("label", "")
        if not isinstance(label, str):
            raise SchemaError(f"atom #{i} label must be a string")
        is_tangent = a.get("is_tangent", False)
        if not isinstance(is_tangent, bool):
            raise SchemaError(f"atom #{i} is_tangent must be a boolean")
        try:
            atoms.append(Atom(rank, degree, stab, label, is_tangent))
        except ValueError as exc:
            raise SchemaError(f"atom #{i}: {exc}") from exc
    try:
        return FormalBundle(CurveContext(genus), tuple(atoms))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def bundle_to_json(E: FormalBundle) -> dict:
    return {
        "genus": E.context.genus,
        "atoms": [
            {
                "rank": a.rank,
                "degree": a.degree,
                "stability": a.stability.value,
                "label": a.label,
                "is_tangent": a.is_tangent,
            }
            for a in E.atoms
        ],
    }
