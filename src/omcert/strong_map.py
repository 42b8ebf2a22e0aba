"""Strong-map verdicts between oriented matroids on one ground set.

A strong map source -> target exists iff every covector of the target is a
covector of the source. For a uniform target this reduces to tope inclusion
(target topes inside source topes), which is the criterion the searches use.
Covector containment is the independent cross-check, on uniform chirotopes:
it lists the target's covectors by the conformal cover of its cocircuits and
tests each against the source's cocircuits, so it never lists the source's.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from .matroid import Chirotope, TopeSet, covectors_of, is_covector
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
    """Tope inclusion. It stands in for covector containment only on a uniform target
    ({+++, ++-} lies in alt(3,2)'s topes, but its covectors 00+, 00- are not alt(3,2)'s);
    the pipeline's targets come from ``topes_of``, which accepts only uniform
    chirotopes (``Chirotope.cocircuits`` raises otherwise)."""
    return _verdict(TOPE_INCLUSION, source, target, target.topes, lambda v: v in source.topes)


def is_strong_map_covectors(source: Chirotope, target: Chirotope) -> StrongMapVerdict:
    """Covector containment: every target covector must be a source covector. Uniform chirotopes only."""
    have = partial(is_covector, cocircuits=source.cocircuits())
    return _verdict(COVECTOR_CONTAINMENT, source, target, covectors_of(target), have)


def _verdict(
    method: str, source: TopeSet | Chirotope, target: TopeSet | Chirotope, want: frozenset, have: Callable
) -> StrongMapVerdict:
    """Whether every vector in ``want`` (the target's) passes ``have`` (is the source's)."""
    if source.n != target.n:
        raise ValueError(f"ground-set mismatch: {source.n} vs {target.n}")
    missing = sorted((v for v in want if not have(v)), key=SignedVector.order_key)
    return StrongMapVerdict(
        holds=not missing,
        method=method,
        corank=source.r - target.r,
        witness=missing[0] if missing else None,
    )
