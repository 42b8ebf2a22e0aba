"""Strong-map verdicts between oriented matroids on one ground set.

A strong map source -> target exists iff every covector of the target is a
covector of the source. For a uniform target this reduces to tope inclusion
(target topes inside source topes), which is the criterion the searches use;
the covector-containment method is kept as the independent cross-check.
"""

from __future__ import annotations

from typing import NamedTuple

from .matroid import CovectorSet, TopeSet
from .signed_vector import SignedVector

TOPE_INCLUSION = "tope-inclusion"
COVECTOR_CONTAINMENT = "covector-containment"


class StrongMapVerdict(NamedTuple):
    """Outcome of a strong-map test; the witness is the first target covector
    (or tope) missing from the source when the map fails."""

    holds: bool
    method: str
    corank: int
    witness: SignedVector | None


def is_strong_map_topes(source: TopeSet, target: TopeSet) -> StrongMapVerdict:
    """Tope-inclusion criterion: valid when the target is uniform (caller asserts)."""
    if source.n != target.n:
        raise ValueError(f"ground-set mismatch: {source.n} vs {target.n}")
    missing = sorted(
        (t for t in target.topes if t not in source.topes), key=SignedVector.order_key
    )
    return StrongMapVerdict(
        holds=not missing,
        method=TOPE_INCLUSION,
        corank=source.r - target.r,
        witness=missing[0] if missing else None,
    )


def is_strong_map_covectors(source: CovectorSet, target: CovectorSet) -> StrongMapVerdict:
    """Covector containment: every target covector must be a source covector."""
    if source.n != target.n:
        raise ValueError(f"ground-set mismatch: {source.n} vs {target.n}")
    missing = sorted(
        (v for v in target.covectors if v not in source.covectors),
        key=SignedVector.order_key,
    )
    return StrongMapVerdict(
        holds=not missing,
        method=COVECTOR_CONTAINMENT,
        corank=source.r - target.r,
        witness=missing[0] if missing else None,
    )


def is_covector_by_extension(x: SignedVector, topes: TopeSet) -> bool:
    """Covector membership via full-support completion.

    In a uniform oriented matroid, x is a covector iff every full-support
    vector conforming to x is a tope: each completion collapses back to x by
    repeated single-index elimination. The pipeline does not call this; it is
    kept as the independent oracle the tests compare ``covectors_from_topes``
    against.
    """
    if x.n != topes.n:
        raise ValueError(f"ground-set mismatch: {x.n} vs {topes.n}")
    return all(ext.canonical() in topes.topes for ext in x.full_support_extensions())
