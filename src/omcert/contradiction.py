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
per (rank+1)-subset. Both are checked over the search survivors, reading the
circuit table each survivor record carries, and a failed check fails the
verdict; the reduction of an arbitrary intermediate to a uniform one is
recorded as a trusted citation. The search builds that table from the
survivor's own topes, so on every record it emits the deletion check holds
exactly when the uniqueness check does; the deletion identity rests on the
README's argument and ``TestDeletionCheck::test_mask_fields_match_restricted_tope_sets``.

The n=8 claim is checked apart from this pipeline by ``oracle.direct_search_n8``,
a search over rank-3 chirotopes that shares no code with the n=6 kernel.
"""

from __future__ import annotations

from .matroid import alternating_chirotope, circuit_table, pair_swap_chirotope
from .search import (
    SEARCH_N,
    SOURCE_RANK,
    SearchCertificate,
    SurvivorRecord,
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


def _check_circuit_uniqueness(survivors: tuple[SurvivorRecord, ...]) -> bool:
    """Every survivor carries exactly one circuit pair per 4-subset, i.e. its
    circuit table has no None entry (``circuit_table`` writes None where
    zero or several patterns are avoided)."""
    return all(c is not None for s in survivors for c in s.circuit_table)


def _check_deletion_circuits(survivors: tuple[SurvivorRecord, ...]) -> bool:
    """Circuits of survivor deletions agree with the parent circuits, read
    from each survivor's circuit table, supported in the kept set, across
    every 5-element deletion and every 4-subset of it.

    One table comparison per survivor checks every deletion: the table must
    have an entry for each 4-subset Q, none None, equal up to sign to the
    circuit its topes carry on Q (``matroid.circuit_table``). That is the
    deletion check because a deletion's pattern field on Q is the parent's:
    restricting a tope to the kept set and then to Q restricts it to Q, and
    neither the canonical sign nor deduplication changes the OR of the
    fields. So every deletion has exactly one avoided pattern on each of its
    4-subsets, the restricted parent circuit, exactly when the parent does.
    A record that ``search._survivor_record`` builds carries the
    ``circuit_table`` of its own topes, so on it this holds exactly when
    ``_check_circuit_uniqueness`` does; the deletion identity rests on the
    argument above and ``TestDeletionCheck::test_mask_fields_match_restricted_tope_sets``.
    """
    for survivor in survivors:
        carried = circuit_table(survivor.tope_set())
        if len(survivor.circuit_table) != len(carried):
            return False
        for circuit, want in zip(survivor.circuit_table, carried):
            if circuit is None or want is None or circuit not in (want, want.opposite()):
                return False
    return True


def _assumption_records(cert: SearchCertificate) -> tuple[AssumptionRecord, ...]:
    return (
        AssumptionRecord(
            name="deletion-circuits",
            statement=(
                "circuits of a deletion are exactly the circuits of the parent "
                "matroid whose support lies inside the kept set"
            ),
            verified=_check_deletion_circuits(cert.survivors),
            note="checked on every 5-element deletion of every survivor",
        ),
        AssumptionRecord(
            name="uniform-circuit-uniqueness",
            statement=(
                "a uniform oriented matroid of rank r carries exactly one circuit "
                "pair per (r+1)-subset of the ground set"
            ),
            verified=_check_circuit_uniqueness(cert.survivors),
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

