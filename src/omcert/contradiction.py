"""Assembly of the eight-element nonfactorizability certificate.

The pipeline: verify the corank-2 strong map between the n=8 instances,
check that both designated 6-element restrictions collapse the pair onto the
n=6 instances the exhaustive search covered, lift the search's forced
circuits back to eight elements through each restriction, and observe that a
hypothetical uniform rank-3 intermediate would have to carry two different
circuits on the support {1,2,5,6}, which no oriented matroid can.

Two standard facts are consumed as named assumptions rather than re-proved:
circuits of a deletion are exactly the parent circuits supported inside the
kept set, and a uniform oriented matroid carries exactly one circuit pair
per (rank+1)-subset. Both are checked over the search survivors against the
circuits each survivor's topes carry, and each can fail the verdict on its
own; the reduction of an arbitrary intermediate to a uniform one is recorded
as a trusted citation.

The n=8 claim is checked apart from this pipeline by ``oracle.direct_search_n8``,
a search over rank-3 chirotopes that shares no code with the n=6 kernel.
"""

from __future__ import annotations

from .matroid import alternating_chirotope, circuit_table, pair_swap_chirotope
from .search import (
    SEARCH_N,
    SOURCE_RANK,
    SearchCertificate,
    VerificationError,
    source_topes,
    target_topes,
    verify_search_conclusions,
)
from .signed_vector import Immutable, SignedVector, increasing_subset
from .strong_map import StrongMapVerdict, is_strong_map_topes

FULL_N = 8

KEPT_A = (1, 2, 3, 4, 5, 6)
KEPT_B = (1, 2, 5, 6, 7, 8)
# the support both kept sets share; the lifted circuits collide there
CONFLICT_SUPPORT = (1, 2, 5, 6)
CONFLICT_MASK = sum(1 << (e - 1) for e in CONFLICT_SUPPORT)


class RestrictionCheck(Immutable):
    """Verification that one 6-element restriction reduces to the searched pair,
    plus the search circuit lifted back to eight elements through it."""

    __slots__ = _fields = (
        "kept", "source_restriction_is_alternating", "target_restriction_matches", "lifted_circuit"
    )

    kept: tuple[int, ...]
    source_restriction_is_alternating: bool
    target_restriction_matches: bool
    lifted_circuit: SignedVector

    @property
    def passed(self) -> bool:
        return self.source_restriction_is_alternating and self.target_restriction_matches


class AssumptionRecord(Immutable):
    """A trusted inference step named in the certificate. ``verified`` is None
    for a pure citation, otherwise the outcome of its empirical check."""

    __slots__ = _fields = ("name", "statement", "verified", "note")

    name: str
    statement: str
    verified: bool | None
    note: str


class ContradictionCertificate(Immutable):
    __slots__ = _fields = (
        "premise", "source_tope_count", "target_tope_count", "search", "search_verified",
        "restriction_a", "restriction_b", "circuits_conflict", "assumptions", "verdict",
    )

    premise: StrongMapVerdict
    source_tope_count: int
    target_tope_count: int
    search: SearchCertificate
    search_verified: bool
    restriction_a: RestrictionCheck
    restriction_b: RestrictionCheck
    circuits_conflict: bool
    assumptions: tuple[AssumptionRecord, ...]
    verdict: str


def verify_premise() -> StrongMapVerdict:
    """Tope-inclusion verdict for the strong map between the eight-element instances."""
    return is_strong_map_topes(source_topes(FULL_N), target_topes(FULL_N))


def lift_through_restriction(circuit: SignedVector, kept: tuple[int, ...]) -> SignedVector:
    """Place a restricted circuit's signs back at the kept positions of [8].
    Raises ValueError unless ``kept`` is strictly increasing within 1..8 and
    the circuit lives on ``len(kept)`` elements."""
    kept = increasing_subset(kept, FULL_N, "kept")
    if circuit.n != len(kept):
        raise ValueError(f"circuit {circuit} lives on {circuit.n} elements, but {len(kept)} are kept")
    pos = neg = 0
    for j, e in enumerate(kept):
        s = circuit.sign(j + 1)
        if s > 0:
            pos |= 1 << (e - 1)
        elif s < 0:
            neg |= 1 << (e - 1)
    return SignedVector(FULL_N, pos, neg)


def check_restriction(
    kept: tuple[int, ...], conclusion_circuits: tuple[SignedVector, SignedVector]
) -> RestrictionCheck:
    """Verify one designated restriction and lift the relevant forced circuit.

    The relevant circuit is the one whose lift lands on the shared conflict
    support; exactly one of the pair does for each kept set.
    """
    if kept not in (KEPT_A, KEPT_B):
        raise ValueError(f"kept must be one of {KEPT_A} or {KEPT_B}, got {kept}")
    source_ok = alternating_chirotope(FULL_N, SOURCE_RANK).restrict(kept) == alternating_chirotope(
        SEARCH_N, SOURCE_RANK
    )
    target_ok = pair_swap_chirotope(FULL_N).restrict(kept) == pair_swap_chirotope(SEARCH_N)

    lifts = [lift_through_restriction(c, kept) for c in conclusion_circuits]
    lifts = [lift for lift in lifts if lift.support_mask == CONFLICT_MASK]
    if len(lifts) != 1:
        raise VerificationError(
            f"expected exactly one circuit lifting onto {CONFLICT_SUPPORT} through {kept}, got {len(lifts)}"
        )
    return RestrictionCheck(
        kept=kept,
        source_restriction_is_alternating=source_ok,
        target_restriction_matches=target_ok,
        lifted_circuit=lifts[0],
    )


def circuits_conflict(a: SignedVector, b: SignedVector) -> bool:
    """Two circuits on one support that are neither equal nor opposite cannot
    coexist in a uniform oriented matroid."""
    return a.support_mask == b.support_mask and a != b and a != b.opposite()


def _check_circuit_uniqueness(tables: tuple[tuple[SignedVector | None, ...], ...]) -> bool:
    """Every survivor's topes carry exactly one circuit pair per 4-subset:
    its ``circuit_table`` has no None entry (zero or several avoided patterns)."""
    return all(c is not None for table in tables for c in table)


def _check_deletion_circuits(cert: SearchCertificate, tables: tuple[tuple[SignedVector | None, ...], ...]) -> bool:
    """Each survivor's ``vc_witnesses`` lists the instance's 4-subsets in
    lexicographic order, each witness equal up to sign to the circuit the
    survivor's topes carry there (its ``tables`` entry); a None entry is left
    to ``_check_circuit_uniqueness``.

    That covers every 5-element deletion: on a 4-subset Q of the kept set, a
    deletion's topes produce the parent's patterns on Q (restricting to the
    kept set, then to Q, restricts to Q), so the deletion's circuit on Q is
    the restricted parent circuit (README).
    """
    supports = cert.instance.supports
    for survivor, table in zip(cert.survivors, tables):
        if tuple(q for q, _ in survivor.vc_witnesses) != supports:
            return False
        for (_, witness), circuit in zip(survivor.vc_witnesses, table):
            if circuit is not None and witness not in (circuit, circuit.opposite()):
                return False
    return True


def _assumption_records(cert: SearchCertificate) -> tuple[AssumptionRecord, ...]:
    tables = tuple(circuit_table(s.tope_set()) for s in cert.survivors)
    return (
        AssumptionRecord(
            name="deletion-circuits",
            statement=(
                "circuits of a deletion are exactly the circuits of the parent "
                "matroid whose support lies inside the kept set"
            ),
            verified=_check_deletion_circuits(cert, tables),
            note="checked on every 5-element deletion of every survivor",
        ),
        AssumptionRecord(
            name="uniform-circuit-uniqueness",
            statement=(
                "a uniform oriented matroid of rank r carries exactly one circuit "
                "pair per (r+1)-subset of the ground set"
            ),
            verified=_check_circuit_uniqueness(tables),
            note="checked on all 4-subsets of every survivor",
        ),
        AssumptionRecord(
            name="uniform-intermediate",
            statement=(
                "if a corank-2 strong map factors, it factors through a uniform "
                "rank-3 intermediate (perturbation of the extension element)"
            ),
            verified=None,
            note="trusted citation; not verified here",
        ),
    )


def build_contradiction_certificate(search_cert: SearchCertificate) -> ContradictionCertificate:
    """Assemble the given search and every n=8 stage into one record.

    Any failed stage or assumption check yields a certificate whose verdict
    names it; the verdict is "nonfactorizable" only when every one holds.
    """
    source, target = source_topes(FULL_N), target_topes(FULL_N)
    premise = is_strong_map_topes(source, target)

    try:
        search_ok = verify_search_conclusions(search_cert)
    except VerificationError:
        search_ok = False

    ra = check_restriction(KEPT_A, search_cert.conclusion_circuits)
    rb = check_restriction(KEPT_B, search_cert.conclusion_circuits)
    conflict = circuits_conflict(ra.lifted_circuit, rb.lifted_circuit)
    assumptions = _assumption_records(search_cert)

    if not premise.holds:
        failing = "premise"
    elif not search_ok:
        failing = "search"
    elif not ra.passed:
        failing = "restriction-a"
    elif not rb.passed:
        failing = "restriction-b"
    elif not conflict:
        failing = "circuit-conflict"
    else:
        failing = next((a.name for a in assumptions if a.verified is False), None)

    return ContradictionCertificate(
        premise=premise,
        source_tope_count=len(source),
        target_tope_count=len(target),
        search=search_cert,
        search_verified=search_ok,
        restriction_a=ra,
        restriction_b=rb,
        circuits_conflict=conflict,
        assumptions=assumptions,
        verdict="nonfactorizable" if failing is None else f"invalid:{failing}",
    )

