"""Formal calculus of vector bundles on a genus-g curve.

A bundle is a multiset of indecomposable atoms (rank, degree, stability
class). Stability is a *declared* attribute: for genus >= 1 it is not
determined by the numerics, so hypotheses like "V is stable" enter as input
data, never as conclusions.

The tangent line bundle has degree 2(1-g) and the canonical bundle 2g-2;
both are derived from the genus, never stored. A rank-1 atom may carry the
is_tangent flag identifying it with the tangent bundle as a bundle, which is
strictly more information than its (rank, degree) class once g >= 1.
"""

from __future__ import annotations

from enum import Enum

from .errors import SchemaError
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


class FormalBundle(_Value):
    """Non-empty multiset of atoms over a fixed curve context."""

    __slots__ = _fields = ("context", "atoms")

    def __init__(self, context: CurveContext, atoms: tuple[Atom, ...]) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("a bundle needs at least one atom")
        for i, a in enumerate(atoms):
            if a.is_tangent and a.degree != context.tangent_degree:
                raise ValueError(
                    f"atom #{i}: tangent atom must have degree {context.tangent_degree} "
                    f"at genus {context.genus}, got {a.degree}"
                )

    @property
    def rank(self) -> int:
        return sum(a.rank for a in self.atoms)

    @property
    def degree(self) -> int:
        return sum(a.degree for a in self.atoms)


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
