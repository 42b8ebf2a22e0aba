from __future__ import annotations

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omcert.matroid import (
    TopeSet,
    canonical_tope_count,
    check_covector_axioms,
    check_uniform_tope_axioms,
    circuit_on_support,
    pattern_bytes,
)
from omcert.search import (
    CIRCUIT_SUPPORTS,
    EXCLUDED_TOPES,
    FORCED_CIRCUITS,
    SaturationRun,
    SearchCertificate,
    SearchInstance,
    SurvivorRecord,
    VerificationError,
    pattern_masks,
    saturation_search,
    source_topes,
    target_topes,
    verify_search_conclusions,
)
from omcert.signed_vector import SignedVector
from omcert.strong_map import is_strong_map_topes
from reference import alternating_topes_direct, covectors_from_topes, perpendicular, restrict, restriction_tope_set

sv = SignedVector.parse


def pruned_dfs(instance: SearchInstance) -> SaturationRun:
    """Reference kernel: the recursive pruned search, testing every byte of
    each child's mask with Mycroft's zero-byte test on its complement."""
    base, pool_masks = pattern_masks(instance)
    npool, choose = len(pool_masks), instance.choose
    low = int.from_bytes(b"\x01" * len(instance.supports), "little")
    full, high = (1 << 8 * len(instance.supports)) - 1, low << 7
    found: list[tuple[int, ...]] = []
    nodes = credited = 0

    def walk(children: range, prefix: tuple[int, ...], mask: int, rem: int) -> None:
        """Try each child after ``prefix``."""
        nonlocal nodes, credited
        for i in children:
            nodes += 1
            m = mask | pool_masks[i]
            if ((m ^ full) - low) & m & high:
                credited += math.comb(npool - i - 1, rem - 1)
            elif rem == 1:
                found.append((*prefix, i))
                credited += 1
            else:
                walk(range(i + 1, npool - rem + 2), (*prefix, i), m, rem - 1)

    walk(range(npool - choose + 1), (), base, choose)
    return SaturationRun(tuple(found), nodes, credited)


def n8_instance() -> SearchInstance:
    """The kernel's instance on the n=8 pair, built as ``build_search_instance``
    builds n=6's: the one-bit test reads its 56 bytes."""
    source, target = source_topes(8), target_topes(8)
    base = tuple(sorted(target.topes, key=SignedVector.order_key))
    pool = tuple(sorted(source.topes - target.topes, key=SignedVector.order_key))
    return SearchInstance(n=8, rank=3, choose=canonical_tope_count(8, 3) - len(base), base=base, pool=pool)


def flat_scan(instance: SearchInstance) -> list[tuple[int, ...]]:
    """Reference: visit every combination in lexicographic order and test
    each pattern byte on its own, with no pruning."""
    base, pool_masks = pattern_masks(instance)
    offsets = range(0, 8 * len(instance.supports), 8)
    expected = []
    for combo in combinations(range(len(instance.pool)), instance.choose):
        m = base
        for i in combo:
            m |= pool_masks[i]
        if all((m >> off) & 0xFF != 0xFF for off in offsets):
            expected.append(combo)
    return expected


class TestKernel:
    def test_matches_flat_scan_reference(self, search_instance):
        run = saturation_search(search_instance)
        assert list(run.picks) == flat_scan(search_instance)
        assert run.credited == 184756
        assert run == pruned_dfs(search_instance)

    # the first two examples saturate only the lowest and only the highest
    # byte; in the third the base alone saturates byte 1
    @settings(max_examples=60, deadline=None)
    @example(order=[1, 9, 22, 19, 18, 21, 12, 5, 20, 16, 7], base_size=8, pool_size=3, choose=2)
    @example(order=[17, 23, 1, 10, 19, 25, 6, 5, 9, 13, 18, 0], base_size=6, pool_size=6, choose=2)
    @example(order=[7, 22, 0, 17, 15, 12, 10, 21, 4, 20, 25, 23, 19, 24], base_size=8, pool_size=6, choose=3)
    @given(
        order=st.permutations(range(26)),
        base_size=st.integers(0, 8),
        pool_size=st.integers(1, 10),
        choose=st.integers(1, 4),
    )
    def test_random_instances_match_flat_scan(self, order, base_size, pool_size, choose):
        base = tuple(SOURCE6[i] for i in order[:base_size])
        pool = tuple(SOURCE6[i] for i in order[base_size : base_size + pool_size])
        instance = SearchInstance(n=6, rank=3, choose=choose, base=base, pool=pool)
        run = saturation_search(instance)
        assert list(run.picks) == flat_scan(instance)
        assert run.credited == math.comb(len(pool), choose)
        assert run == pruned_dfs(instance)

    def test_one_bit_per_byte(self, search_instance):
        # a property of pattern_bytes: a tope's restriction to a 4-subset is
        # one pattern; the kernel's carry test does not rely on it
        for instance in (search_instance, n8_instance()):
            pool_masks = pattern_masks(instance)[1]
            nbytes = len(instance.supports)
            for mask in (*pool_masks, *(pattern_bytes(t.neg, instance.n, 3) for t in instance.base)):
                fields = mask.to_bytes(nbytes, "little")
                assert all(field and field & field - 1 == 0 for field in fields)
                assert mask >> 8 * nbytes == 0

    def test_node_total_pinned(self, search_instance):
        assert saturation_search(search_instance).nodes == 12727


class TestInstance:
    def test_sizes(self, search_instance):
        assert len(search_instance.base) == 6
        assert len(search_instance.pool) == 20
        assert search_instance.choose == 10
        assert math.comb(len(search_instance.pool), search_instance.choose) == 184756

    def test_base_and_pool_disjoint_and_ordered(self, search_instance, alt64):
        base = set(search_instance.base)
        pool = set(search_instance.pool)
        assert not base & pool
        assert base | pool == alt64.topes
        assert list(search_instance.pool) == sorted(
            search_instance.pool, key=SignedVector.order_key
        )

    def test_base_inside_source(self, search_instance, alt64):
        assert set(search_instance.base) <= alt64.topes


class TestEnumeration:
    def test_pinned_counts(self, search_certificate):
        assert search_certificate.combinations_checked == 184756
        assert len(search_certificate.survivors) == 20

    def test_survivors_reverified_by_axiom_checker(self, search_certificate):
        for survivor in search_certificate.survivors:
            report = check_uniform_tope_axioms(survivor.tope_set())
            assert report.passed
            assert len(report.witnesses) == 15

    def test_circuit_table_matches_extractor(self, search_certificate):
        quads = tuple(combinations(range(1, 7), 4))
        for survivor in search_certificate.survivors:
            ts = survivor.tope_set()
            table = survivor.circuit_table
            assert table == tuple(circuit_on_support(ts, q) for q in quads)
            assert tuple((q, table[quads.index(q)]) for q in CIRCUIT_SUPPORTS) == survivor.circuits

    def test_survivors_contain_base(self, search_certificate, search_instance):
        base = set(search_instance.base)
        for survivor in search_certificate.survivors:
            members = set(survivor.topes)
            assert len(members) == 16
            assert base <= members

    def test_mask_scan_agrees_with_axiom_checker_on_samples(
        self, search_instance, search_certificate
    ):
        # one candidate per sample: the kernel keeps it exactly when it passes;
        # random picks almost always fail, so the survivors' picks join them
        rng = random.Random(20260810)
        base = search_instance.base
        samples = [tuple(sorted(rng.sample(range(20), 10))) for _ in range(200)]
        for survivor in search_certificate.survivors:
            members = set(survivor.topes)
            samples.append(tuple(i for i, t in enumerate(search_instance.pool) if t in members))
        for picks in samples:
            pool = tuple(search_instance.pool[i] for i in picks)
            report = check_uniform_tope_axioms(TopeSet(6, 3, frozenset(base + pool)))
            single = SearchInstance(n=6, rank=3, choose=10, base=base, pool=pool)
            kept = saturation_search(single).picks == (tuple(range(10)),)
            assert kept == report.passed


# ----------------------------------------------------------------------
# the tope sets' pattern tables, checked against perpendicularity
# ----------------------------------------------------------------------


def perpendicular_patterns(topes: TopeSet, q: tuple[int, ...]) -> list[SignedVector]:
    """Canonical full patterns on q perpendicular to every tope, in the
    witness order: strings compared from the last element back, '+' < '-'."""
    found = []
    for signs in product("+-", repeat=len(q) - 1):
        text = ["0"] * topes.n
        for e, c in zip(q, ("+", *signs)):
            text[e - 1] = c
        pattern = sv("".join(text))
        if all(perpendicular(pattern, t) for t in topes.topes):
            found.append(pattern)
    return sorted(found, key=lambda p: p.order_key()[::-1])


def assert_pattern_table_agrees(topes: TopeSet) -> None:
    report = check_uniform_tope_axioms(topes)
    witnesses = dict(report.witnesses)
    for q in combinations(range(1, topes.n + 1), topes.r + 1):
        perp = perpendicular_patterns(topes, q)
        if not perp:
            assert q in report.missing and q not in witnesses
            with pytest.raises(ValueError, match="no pattern"):
                circuit_on_support(topes, q)
            continue
        assert witnesses[q] == perp[0]
        if len(perp) == 1:
            assert circuit_on_support(topes, q) == perp[0]
        else:
            with pytest.raises(ValueError, match=f"{len(perp)} patterns"):
                circuit_on_support(topes, q)


SOURCE6 = alternating_topes_direct(6, 4).ordered


class TestPatternTable:
    def test_survivors_and_their_deletions(self, search_certificate):
        for survivor in search_certificate.survivors:
            parent = survivor.tope_set()
            assert_pattern_table_agrees(parent)
            for kept in combinations(range(1, 7), 5):
                assert_pattern_table_agrees(restriction_tope_set(parent, kept))

    @settings(max_examples=40, deadline=None)
    @example(picks=[0, 3, 4, 6, 7, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21])
    @given(picks=st.lists(st.integers(0, 25), min_size=16, max_size=16, unique=True))
    def test_sixteen_source_topes(self, picks):
        assert_pattern_table_agrees(TopeSet(6, 3, frozenset(SOURCE6[i] for i in picks)))

    def test_kernel_bytes_match_table(self, search_instance):
        base_mask, pool_masks = pattern_masks(search_instance)
        base = TopeSet(6, 3, frozenset(search_instance.base))
        assert base_mask == sum(hit << 8 * qi for qi, hit in enumerate(base.hit_patterns))
        for tope, mask in zip(search_instance.pool, pool_masks):
            table = TopeSet(6, 3, frozenset({tope})).hit_patterns
            assert [mask >> 8 * qi & 0xFF for qi in range(15)] == list(table)


class TestConclusions:
    def test_verify_passes(self, search_certificate):
        assert verify_search_conclusions(search_certificate) is True

    def test_excluded_topes_absent(self, search_certificate):
        for survivor in search_certificate.survivors:
            strings = {str(t) for t in survivor.topes}
            for tope in EXCLUDED_TOPES:
                assert tope not in strings

    def test_forced_circuits(self, search_certificate):
        for survivor in search_certificate.survivors:
            circuits = dict(survivor.circuits)
            assert str(circuits[(1, 2, 3, 4)]) == "+-+-00"
            assert str(circuits[(1, 2, 5, 6)]) == "+-00-+"
        assert tuple(str(c) for c in search_certificate.conclusion_circuits) == FORCED_CIRCUITS

    def test_witness_and_circuit_built_once(self, search_certificate):
        # a survivor avoids one pattern per 4-subset: its witness is its circuit
        for survivor in search_certificate.survivors:
            assert len(survivor.vc_witnesses) == len(survivor.circuit_table) == 15
            for (_, witness), circuit in zip(survivor.vc_witnesses, survivor.circuit_table):
                assert witness is circuit

    def test_verify_rejects_tampered_certificate(self, search_certificate):
        first = search_certificate.survivors[0]
        bad_survivor = SurvivorRecord(
            topes=first.topes,
            vc_witnesses=first.vc_witnesses,
            excluded_absent=((EXCLUDED_TOPES[0], False), (EXCLUDED_TOPES[1], True)),
            circuits=first.circuits,
            circuit_table=first.circuit_table,
        )
        tampered = SearchCertificate(
            instance=search_certificate.instance,
            combinations_checked=search_certificate.combinations_checked,
            survivors=(bad_survivor,) + search_certificate.survivors[1:],
            conclusion_circuits=search_certificate.conclusion_circuits,
        )
        with pytest.raises(VerificationError, match="survivor 0"):
            verify_search_conclusions(tampered)

    def test_unique_tope_hitting_each_forced_pattern(self, alt64):
        # the named exclusions are forced: only one source tope restricts to
        # the circuit pattern on each support
        for pattern, support, unique in (
            ("+-+-", (1, 2, 3, 4), "+-+---"),
            ("+--+", (1, 2, 5, 6), "+----+"),
        ):
            target = sv(pattern)
            hits = [
                str(t)
                for t in alt64.ordered
                if restrict(t, support) in (target, target.opposite())
            ]
            assert hits == [unique]

    def test_conclusion_circuits_perpendicular_to_survivors(self, search_certificate):
        for survivor in search_certificate.survivors:
            for circuit in search_certificate.conclusion_circuits:
                assert all(perpendicular(circuit, t) for t in survivor.topes)


class TestSurvivorsAreOrientedMatroids:
    def test_sandwich_strong_maps(self, search_certificate, alt64, swap6):
        for survivor in search_certificate.survivors:
            ts = survivor.tope_set()
            assert is_strong_map_topes(alt64, ts).holds
            assert is_strong_map_topes(ts, swap6).holds

    def test_sample_survivor_covector_axioms(self, search_certificate):
        for survivor in search_certificate.survivors[:3]:
            report = check_covector_axioms(covectors_from_topes(survivor.tope_set()))
            assert report.passed
