"""Exhaustive search for uniform rank-3 intermediates on six elements.

A factorizable corank-2 strong map from the rank-4 alternating instance to
the rank-2 pair-swap instance would pass through a uniform rank-3 oriented
matroid whose tope set is wedged strictly between the two: 16 canonical
topes containing all 6 of the target's and drawn from the source's 26. The
search decides all C(20, 10) = 184,756 ways to pick the 10 free topes,
keeps the candidates that satisfy the uniform tope-set axioms, and records
for each survivor the avoided-pattern witnesses, the two named excluded
topes, and the two circuits every survivor is forced to share.

One kernel decides every candidate: a pruned depth-first search over pool
indices in lexicographic order, on bitmasks with one byte per 4-subset
holding which of its 8 canonical restriction patterns a tope produces (the
tope's ``matroid.pattern_bytes``, the fields every tope set's
``hit_patterns`` table is split from). A candidate fails
exactly when some 4-subset's byte saturates (all 8 patterns hit). Each
byte sits in a 9-bit field under a guard bit kept at 0, and adding 1 to
every field carries into a guard exactly where the byte is 0xFF, so one add
tests every byte of a child (Warren, *Hacker's Delight*, ch. 6). Bytes only
accumulate, so a saturated prefix is pruned and the combinations below it
are decided unvisited. The search ends only
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
    """One candidate that passed the uniform tope-set axioms: its fields are
    its certificate entry. ``vc_witnesses`` is the avoided pattern of least
    index on every (rank+1)-subset, ``circuits`` the circuit its topes carry
    on each forced support. To change one field, build a new record from the
    old one's fields. A record the search builds also keeps the ``TopeSet``
    it validated, which is not a field.
    """

    _fields = ("topes", "vc_witnesses", "excluded_absent", "circuits")
    __slots__ = (*_fields, "_tope_set")

    topes: tuple[SignedVector, ...]
    vc_witnesses: tuple[tuple[tuple[int, ...], SignedVector], ...]
    excluded_absent: tuple[tuple[str, bool], ...]
    circuits: tuple[tuple[tuple[int, ...], SignedVector], ...]

    def tope_set(self) -> TopeSet:
        """The TopeSet of ``topes``: the one the search kept, else a new one
        (a record built by hand, copied or unpickled)."""
        kept = getattr(self, "_tope_set", None)
        return kept if kept is not None else TopeSet(self.topes[0].n, SEARCH_RANK, frozenset(self.topes))


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
    The search is one loop: each level's pick and prefix mask are kept in
    preallocated lists, and the end of the child range moves with the
    depth. A descent saves the prefix's mask; an ascent restores it and
    resumes at the next pick.

    The carry test: once per run, each pattern byte is laid into a 9-bit
    field under a guard bit that stays 0. Adding ``low``, each field's
    lowest bit, carries into a guard exactly where the byte is 0xFF and
    never across a field, so a child saturates a byte iff its mask plus
    ``low`` meets ``guard``. A byte the base alone saturates stays 0xFF in
    every child, so every root child is tried and pruned.

    The loop leaves only at the root's end, so ``credited`` is
    comb(npool, choose) by construction; the independent count is the tests'
    reference, which credits each subtree.
    """
    base, pool_bytes = pattern_masks(instance)
    fields = range(len(instance.supports))
    mask, *pool_masks = (sum((m >> 8 * q & 0xFF) << 9 * q for q in fields) for m in (base, *pool_bytes))
    low = sum(1 << 9 * q for q in fields)
    npool, choose, guard = len(pool_masks), instance.choose, low << 8
    found: list[tuple[int, ...]] = []
    picks, saved = [0] * choose, [0] * choose
    last, depth, i, nodes, end = choose - 1, 0, 0, 0, npool - choose + 1
    while True:
        if i < end:
            nodes += 1
            child = mask | pool_masks[i]
            if not (child + low) & guard:
                if depth == last:
                    found.append((*picks[:depth], i))
                else:
                    picks[depth], saved[depth] = i, mask
                    depth += 1
                    mask = child
                    end += 1
            i += 1
        elif depth:
            depth -= 1
            end -= 1
            mask = saved[depth]
            i = picks[depth] + 1
        else:
            break
    return SaturationRun(tuple(found), nodes, math.comb(npool, choose))


def _survivor_record(instance: SearchInstance, picks: tuple[int, ...]) -> SurvivorRecord:
    """The record of the base plus the picked pool topes, with its circuits on
    the forced supports, read off the same ``hit_patterns`` entries as the
    axiom report; raises if they fail the uniform tope-set axioms or carry no
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
    record = SurvivorRecord(
        topes=tope_set.ordered,
        vc_witnesses=report.witnesses,
        excluded_absent=tuple((t, t not in strings) for t in EXCLUDED_TOPES),
        circuits=circuits,
    )
    object.__setattr__(record, "_tope_set", tope_set)
    return record


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
