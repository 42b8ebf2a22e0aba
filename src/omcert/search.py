"""Exhaustive search for uniform rank-3 intermediates on six elements.

A factorizable corank-2 strong map from the rank-4 alternating instance to
the rank-2 pair-swap instance would pass through a uniform rank-3 oriented
matroid whose tope set is wedged strictly between the two: 16 canonical
topes containing all 6 of the target's and drawn from the source's 26. The
search decides all C(20, 10) = 184,756 ways to pick the 10 free topes,
keeps the candidates that satisfy the uniform tope-set axioms, and records
for each survivor the avoided-pattern witnesses, the two named excluded
topes, and its circuit on every 4-subset, among them the two circuits every
survivor is forced to share.

One kernel decides every candidate: a pruned depth-first search over pool
indices in lexicographic order, on bitmasks with one byte per 4-subset
holding which of its 8 canonical restriction patterns a tope produces (the
tope's ``matroid.pattern_bytes``, the fields every tope set's
``hit_patterns`` table is split from). A candidate fails
exactly when some 4-subset's byte saturates (all 8 patterns hit). A tope
sets one bit per byte, so a child saturates a byte only by adding the one bit
a 7-bit byte of the prefix lacks: a node reads those critical bits from the
byte table ``CRITICAL``, and each child is tested against them with one AND.
They only grow along a branch, so a node tests its children against its
parent's critical bits first and reads its own only when a child passes;
after an ascent, the parent resumes where that first test stopped. Bytes
only accumulate as topes are added, so a saturated prefix is pruned and
the combinations below it are decided unvisited. The search ends only
after the root's last child, so it credits every combination, 184,756, by
construction; the tests' recursive reference credits each subtree.
Survivors are re-verified through the ordinary axiom checker, which also
yields the witnesses.

The instance, the certificate, a kernel run and each survivor are records
on ``signed_vector.Immutable``, built by its constructor.
"""

from __future__ import annotations

import math
from itertools import combinations

from .matroid import (
    TopeSet,
    alternating_chirotope,
    canonical_tope_count,
    check_uniform_tope_axioms,
    circuit_table,
    pair_swap_chirotope,
    pattern_bytes,
    subset_ranks,
    topes_of,
)
from .signed_vector import Immutable, SignedVector


class VerificationError(Exception):
    """A mathematical check that the certificates rely on did not hold."""


SEARCH_N = 6
SEARCH_RANK = 3  # the rank of the intermediate sought
SOURCE_RANK = SEARCH_RANK + 1
TARGET_RANK = SEARCH_RANK - 1
CIRCUIT_SUPPORTS = ((1, 2, 3, 4), (1, 2, 5, 6))
FORCED_CIRCUITS = ("+-+-00", "+-00-+")
EXCLUDED_TOPES = ("+-+---", "+----+")


class SearchInstance(Immutable):
    """Frozen input of the search: base topes that every candidate must keep
    and the ordered pool the free picks come from."""

    __slots__ = _fields = ("n", "rank", "choose", "base", "pool")

    n: int
    rank: int
    choose: int
    base: tuple[SignedVector, ...]
    pool: tuple[SignedVector, ...]

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """The (rank+1)-subsets of the ground set, in lexicographic order."""
        return tuple(combinations(range(1, self.n + 1), self.rank + 1))


class SurvivorRecord(Immutable):
    """One candidate that passed the uniform tope-set axioms.

    ``circuit_table`` holds the circuit on every (rank+1)-subset in
    lexicographic order, None where zero or several patterns are avoided;
    ``circuits`` is its entries on the two forced supports. The table is
    derived from the topes and is not serialized. To change one field,
    build a new record from the old one's fields.
    """

    __slots__ = _fields = ("topes", "vc_witnesses", "excluded_absent", "circuits", "circuit_table")

    topes: tuple[SignedVector, ...]
    vc_witnesses: tuple[tuple[tuple[int, ...], SignedVector], ...]
    excluded_absent: tuple[tuple[str, bool], ...]
    circuits: tuple[tuple[tuple[int, ...], SignedVector], ...]
    circuit_table: tuple[SignedVector | None, ...]

    def tope_set(self) -> TopeSet:
        return TopeSet(self.topes[0].n, SEARCH_RANK, frozenset(self.topes))


class SearchCertificate(Immutable):
    """Full record of one exhaustive run: every combination counted, every
    survivor listed in enumeration order, and the circuit pair they share."""

    __slots__ = _fields = ("instance", "combinations_checked", "survivors", "conclusion_circuits")

    instance: SearchInstance
    combinations_checked: int
    survivors: tuple[SurvivorRecord, ...]
    conclusion_circuits: tuple[SignedVector, SignedVector]


def source_topes(n: int) -> TopeSet:
    """Topes of the rank-4 alternating instance on n elements."""
    return topes_of(alternating_chirotope(n, SOURCE_RANK))


def target_topes(n: int) -> TopeSet:
    """Topes of the rank-2 pair-swap instance on n elements."""
    return topes_of(pair_swap_chirotope(n))


def build_search_instance() -> SearchInstance:
    """Base = target topes, pool = the remaining source topes, fixed order."""
    n = SEARCH_N
    source, target = source_topes(n), target_topes(n)
    if not target.topes <= source.topes:
        raise RuntimeError("target topes escaped the source tope set; generation bug")
    base = tuple(sorted(target.topes, key=SignedVector.order_key))
    pool = tuple(sorted(source.topes - target.topes, key=SignedVector.order_key))
    expected = (canonical_tope_count(n, TARGET_RANK), canonical_tope_count(n, SOURCE_RANK))
    if (len(base), len(source)) != expected:
        raise RuntimeError(
            f"unexpected instance sizes: base={len(base)}, pool={len(pool)}; generation bug"
        )
    choose = canonical_tope_count(n, SEARCH_RANK) - len(base)
    return SearchInstance(n=n, rank=SEARCH_RANK, choose=choose, base=base, pool=pool)


# ----------------------------------------------------------------------
# the saturation kernel
# ----------------------------------------------------------------------


def pattern_masks(instance: SearchInstance) -> tuple[int, tuple[int, ...]]:
    """The base topes' OR and each pool tope's ``matroid.pattern_bytes`` at
    the instance's rank 3: one byte per 4-subset, in lexicographic order,
    holding the bit of the canonical pattern the tope's restriction produces
    there, the fields a tope set's ``hit_patterns`` splits apart. ORing tope
    masks accumulates the hit patterns; a byte reaching 0xFF means all 8 are hit."""
    n, r = instance.n, instance.rank
    base = 0
    for t in instance.base:
        base |= pattern_bytes(t.neg, n, r)
    return base, tuple(pattern_bytes(t.neg, n, r) for t in instance.pool)


# For each byte value, the bits a child must not add: the missing bit of a
# 7-bit byte, every bit of a saturated one, none otherwise.
CRITICAL = bytes(0xFF ^ b if b.bit_count() == 7 else 0xFF if b == 0xFF else 0 for b in range(256))


class SaturationRun(Immutable):
    """What one kernel run found and counted."""

    __slots__ = _fields = ("picks", "nodes", "credited")

    picks: tuple[tuple[int, ...], ...]  # unsaturated selections, lexicographic
    nodes: int  # children tried
    credited: int  # selections decided: every one, as the run ends at the root's end


def saturation_search(instance: SearchInstance) -> SaturationRun:
    """Pruned depth-first search for the ``choose``-subsets of the pool whose
    combined pattern mask, with the base's, saturates no byte.

    Pool indices are picked in increasing order, so selections are found in
    lexicographic order. A node is one child tried on top of an unsaturated
    prefix. A child that saturates a byte is pruned exactly, because pattern
    bytes only accumulate along a branch, with its whole subtree unvisited.
    The search is one loop: each level's pick, prefix mask and critical mask
    are kept in preallocated lists, and the end of the child range moves
    with the depth.

    The critical-bit test: every tope's ``pattern_bytes`` holds exactly one
    bit per byte, so a child saturates a byte exactly when that byte of the
    prefix has 7 bits set and the child holds the missing one. ``CRITICAL``
    translates each byte of a prefix mask into ``crit``, the bits a child
    must not add; a child saturates a byte iff its mask ANDed with ``crit``
    is nonzero. A byte the base alone saturates translates to 0xFF, so every
    root child is tried and pruned.

    The parent's critical mask is reused. A child that passes a prefix's test
    adds no bit to a 7-bit byte, so its own critical mask contains the
    prefix's: critical masks only grow along a branch. A node first tests its
    children against its parent's ``crit``, and builds its own only when a
    child passes; that child is then tested again, against the node's mask.
    A node whose children all fail the parent's test never builds one.

    Pruned children cost one bound test, one AND and one increment each,
    and the loop counts nothing. The node count is ``off + i``: ``i`` steps
    once per child tried, and ``off`` takes up its jump back on each ascent.
    The loop leaves only at the root's end, so ``credited`` is
    comb(npool, choose) by construction; the independent count is the tests'
    reference, which credits each subtree.

    A run resumes after an ascent without a rescan. A child's first scan
    tests the pool indices after the parent's pick against the parent's
    critical mask, as the parent would after the ascent, and its range,
    ending at ``end + 1``, covers the parent's; ``nxt[depth]`` keeps the
    index where it stopped. On the ascent the parent resumes there, clamped
    to its own ``end``, one below the child's.
    """
    mask, pool_masks = pattern_masks(instance)
    npool, choose, nbytes = len(pool_masks), instance.choose, len(instance.supports)
    from_bytes, table = int.from_bytes, CRITICAL
    found: list[tuple[int, ...]] = []
    picks, saved_mask, saved_crit, nxt = [0] * choose, [0] * choose, [0] * choose, [0] * choose
    crit = from_bytes(mask.to_bytes(nbytes, "little").translate(table), "little")
    last, depth, i = choose - 1, 0, 0
    off, end = 0, npool - choose + 1
    while True:
        while i < end and pool_masks[i] & crit:
            i += 1
        if i < end:  # child i passes the node's own critical mask
            if depth == last:
                found.append((*picks[:depth], i))
                i += 1
                continue
            picks[depth], saved_mask[depth], saved_crit[depth] = i, mask, crit
            depth += 1
            mask |= pool_masks[i]
            end += 1
            i += 1
            while i < end and pool_masks[i] & crit:  # the parent's critical mask
                i += 1
            nxt[depth - 1] = i
            if i < end:
                crit = from_bytes(mask.to_bytes(nbytes, "little").translate(table), "little")
        elif depth:
            depth -= 1
            end -= 1
            off += i - picks[depth] - 1
            mask, crit = saved_mask[depth], saved_crit[depth]
            i = nxt[depth]
            if i > end:
                i = end
        else:
            break
    return SaturationRun(tuple(found), off + i, math.comb(npool, choose))


def _survivor_record(instance: SearchInstance, picks: tuple[int, ...]) -> SurvivorRecord:
    """The record of the base plus the picked pool topes, with its circuit on
    every support, read off the same ``hit_patterns`` entries as the axiom
    report; raises if they fail the uniform tope-set axioms or carry no
    unique circuit on a forced support."""
    members = frozenset(instance.base) | {instance.pool[i] for i in picks}
    tope_set = TopeSet(instance.n, instance.rank, members)
    report = check_uniform_tope_axioms(tope_set)
    if not report.passed:
        raise VerificationError(f"picks {picks} fail the uniform tope-set axioms")
    table, rank = circuit_table(tope_set), subset_ranks(instance.n, instance.rank + 1)
    circuits = tuple((q, table[rank[q]]) for q in CIRCUIT_SUPPORTS)
    for q, circuit in circuits:
        if circuit is None:
            raise VerificationError(f"picks {picks} carry no unique circuit on {q}")
    strings = tope_set.strings
    return SurvivorRecord(
        topes=tope_set.ordered,
        vc_witnesses=report.witnesses,
        excluded_absent=tuple((t, t not in strings) for t in EXCLUDED_TOPES),
        circuits=circuits,
        circuit_table=table,
    )


def enumerate_survivors(instance: SearchInstance) -> SearchCertificate:
    """Run the kernel once over the whole instance and assemble the
    certificate; the conclusion is the first survivor's circuit pair."""
    run = saturation_search(instance)
    survivors = tuple(_survivor_record(instance, picks) for picks in run.picks)
    if not survivors:
        raise VerificationError("no survivors found; the search instance is corrupt")
    return SearchCertificate(
        instance=instance,
        combinations_checked=run.credited,
        survivors=survivors,
        conclusion_circuits=(survivors[0].circuits[0][1], survivors[0].circuits[1][1]),
    )


def verify_search_conclusions(cert: SearchCertificate) -> bool:
    """Check on every survivor: the two named topes are absent and the two
    circuits equal the forced pair. Raises naming the offending survivor."""
    expected = {
        q: SignedVector.parse(c) for q, c in zip(CIRCUIT_SUPPORTS, FORCED_CIRCUITS)
    }
    for idx, survivor in enumerate(cert.survivors):
        strings = {str(t) for t in survivor.topes}
        for tope, absent in survivor.excluded_absent:
            if not absent or tope in strings:
                raise VerificationError(f"survivor {idx}: excluded tope {tope} present")
        circuits = dict(survivor.circuits)
        for q, want in expected.items():
            got = circuits.get(q)
            if got != want:
                raise VerificationError(
                    f"survivor {idx}: circuit on {q} is {got}, expected {want}"
                )
    if tuple(str(c) for c in cert.conclusion_circuits) != FORCED_CIRCUITS:
        raise VerificationError("conclusion circuits disagree with the forced pair")
    return True
