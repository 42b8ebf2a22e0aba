"""Strong-map verdicts between oriented matroids on one ground set.

A strong map source -> target exists iff every covector of the target is a
covector of the source. For a uniform target this reduces to tope inclusion
(target topes inside source topes), which is the criterion the searches use;
the covector-containment method is kept as the independent cross-check.
"""

from __future__ import annotations

from typing import Any

from .matroid import CovectorSet, TopeSet
from .signed_vector import Immutable, SignedVector

TOPE_INCLUSION = "tope-inclusion"
COVECTOR_CONTAINMENT = "covector-containment"


class StrongMapVerdict(Immutable):
    """Outcome of a strong-map test; the witness is the first target covector
    (or tope) missing from the source when the map fails."""

    __slots__ = _fields = ("holds", "method", "corank", "witness")

    holds: bool
    method: str
    corank: int
    witness: SignedVector | None


def is_strong_map_topes(source: TopeSet, target: TopeSet) -> StrongMapVerdict:
    """Tope-inclusion criterion: valid when the target is uniform (caller asserts)."""
    return _verdict(TOPE_INCLUSION, source, target, source.topes, target.topes)


def is_strong_map_covectors(source: CovectorSet, target: CovectorSet) -> StrongMapVerdict:
    """Covector containment: every target covector must be a source covector."""
    return _verdict(COVECTOR_CONTAINMENT, source, target, source.covectors, target.covectors)


def _verdict(method: str, source: Any, target: Any, have: frozenset, want: frozenset) -> StrongMapVerdict:
    """Whether ``want`` (the target's vectors) lies inside ``have`` (the source's)."""
    if source.n != target.n:
        raise ValueError(f"ground-set mismatch: {source.n} vs {target.n}")
    missing = sorted((v for v in want if v not in have), key=SignedVector.order_key)
    return StrongMapVerdict(
        holds=not missing,
        method=method,
        corank=source.r - target.r,
        witness=missing[0] if missing else None,
    )
