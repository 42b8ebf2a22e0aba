"""Stage A, the independent oracle over rank-3 chirotopes: its 5-point
table, its restriction masks and packed search against the references in
``tests/reference.py``, the n=6 pair against the kernel's survivors, the n=8
exhaustion, and controls whose leaves are re-checked through ``topes_of``."""

from __future__ import annotations

from itertools import combinations

import pytest

import omcert.oracle
from omcert.matroid import (
    Chirotope,
    TopeSet,
    alternating_chirotope,
    canonical_tope_count,
    pair_swap_chirotope,
    topes_of,
)
from omcert.oracle import LOCAL_TRIPLES, OracleRun, local_table, restrictions, sandwich_search
from omcert.signed_vector import SignedVector
from reference import bitset_sandwich_search, restricted_topes

# sign flips, as 1-based element sets, applied to every tope set of a case
# below; () flips nothing
REORIENTATIONS = ((), (2,), (1, 3, 4))


def alt(n: int, r: int):
    return topes_of(alternating_chirotope(n, r))


def reorient(topes: TopeSet, flip: tuple[int, ...]) -> TopeSet:
    mask = sum(1 << (e - 1) for e in flip)
    return TopeSet(topes.n, topes.r, frozenset(
        SignedVector(topes.n, t.pos ^ mask, t.neg ^ mask).canonical() for t in topes.topes
    ))


def assert_rechecked(leaves: tuple[Chirotope, ...], source, target) -> None:
    """Each leaf is a distinct rank-3 chirotope with χ(1,2,3) = + whose tope
    set, by ``topes_of``, has the uniform count and lies in the sandwich."""
    assert len(set(leaves)) == len(leaves)
    for chi in leaves:
        assert chi.r == 3 and chi.values[0] == 1
        topes = topes_of(chi)
        assert len(topes) == canonical_tope_count(chi.n, 3)
        assert target.topes <= topes.topes <= source.topes


class TestTable:
    def test_table_has_384_maps(self):
        chirotopes, _ = local_table()
        assert chirotopes.bit_count() == 384

    def test_topes_agree_with_topes_of(self):
        # the table's circuit-based tope bits against the cocircuit cover
        chirotopes, holds = local_table()
        lex = sorted(range(len(LOCAL_TRIPLES)), key=lambda k: LOCAL_TRIPLES[k])
        for code in range(1 << len(LOCAL_TRIPLES)):
            if not chirotopes >> code & 1:
                continue
            chi = Chirotope(5, 3, tuple(-1 if code >> k & 1 else 1 for k in lex))
            want = {t.neg >> 1 for t in topes_of(chi).topes}
            assert {v for v in range(16) if holds[v] >> code & 1} == want, code


class TestRestrictions:
    @pytest.mark.parametrize("flip", REORIENTATIONS)
    def test_bit_sliced_equals_reference(self, flip):
        sets = [alt(n, r) for n in range(5, 9) for r in range(1, 5)]
        sets += [topes_of(pair_swap_chirotope(6)), topes_of(pair_swap_chirotope(8))]
        for topes in [reorient(t, flip) for t in sets]:
            want = [restricted_topes(topes, subset) for subset in combinations(range(topes.n), 5)]
            assert restrictions(topes) == want, (topes.n, topes.r)


class TestSandwich:
    @pytest.mark.parametrize("flip", REORIENTATIONS)
    @pytest.mark.parametrize("n, target", [(5, "alt2"), (6, "alt2"), (6, "m2"), (8, "m2")])
    def test_equals_bitset_reference(self, n, target, flip):
        # alt(n,4) over alt(n,2) or m2(n): the same nodes, leaves in order and
        # exhaustion at every budget around the run's start, its powers of two
        # and its end
        source = reorient(alt(n, 4), flip)
        target = reorient(alt(n, 2) if target == "alt2" else topes_of(pair_swap_chirotope(n)), flip)
        whole = bitset_sandwich_search(source, target).nodes
        budgets = {0, 1, 2, 3, whole - 1, whole} | {1 << k for k in range(whole.bit_length())}
        for budget in sorted(budgets):
            run, want = sandwich_search(source, target, budget), bitset_sandwich_search(source, target, budget)
            assert (run.nodes, [c.values for c in run.leaves], run.exhausted) == (
                want.nodes, [c.values for c in want.leaves], want.exhausted,
            ), budget

    def test_ground_sets_must_agree(self, alt84, swap6):
        with pytest.raises(ValueError, match="elements"):
            sandwich_search(alt84, swap6)

    def test_needs_five_elements(self):
        with pytest.raises(ValueError, match="at least 5"):
            sandwich_search(alt(4, 3), alt(4, 2))

    @pytest.mark.parametrize("budget", [-1, 2.5, True, "10"])
    def test_budget_must_be_a_count(self, alt64, swap6, budget):
        with pytest.raises(ValueError, match="budget"):
            sandwich_search(alt64, swap6, budget)

    def test_n6_leaves_are_the_survivors(self, alt64, swap6, search_certificate):
        run = sandwich_search(alt64, swap6)
        assert (run.nodes, len(run.leaves), run.exhausted) == (491, 20, False)
        assert_rechecked(run.leaves, alt64, swap6)
        survivors = {frozenset(s.topes) for s in search_certificate.survivors}
        assert {topes_of(chi).topes for chi in run.leaves} == survivors

    def test_n8_has_no_leaf(self, alt84, swap8):
        assert sandwich_search(alt84, swap8) == OracleRun((), 7_785, False)

    def test_n6_control(self, alt64):
        # alt(6,2) sits below alt(6,4) by a strong map, so the sandwich is not
        # empty: every uniform rank-3 chirotope between them is a leaf
        target = alt(6, 2)
        run = sandwich_search(alt64, target)
        assert (run.nodes, len(run.leaves), run.exhausted) == (1_343, 130, False)
        assert_rechecked(run.leaves, alt64, target)

    @pytest.mark.parametrize("removed", ["++--++", "+--++-"])
    def test_leaf_outside_a_non_alternating_source_is_dropped(self, alt64, removed):
        # with one tope removed the source is not alternating, its local test
        # is only necessary, and the control's leaves whose topes use the
        # removed tope pass it: the re-check drops them instead of raising
        target = alt(6, 2)
        source = TopeSet(6, 4, frozenset(t for t in alt64.topes if str(t) != removed))
        assert len(source) == len(alt64) - 1
        run = sandwich_search(source, target)
        inside = tuple(chi for chi in sandwich_search(alt64, target).leaves if topes_of(chi).topes <= source.topes)
        assert len(inside) == 65
        assert run == OracleRun(inside, 1_343, False)
        assert_rechecked(run.leaves, source, target)

    def test_budget_stops_the_run(self, alt64, swap6):
        whole = sandwich_search(alt64, swap6)
        for budget in (1, 100, whole.nodes - 1):
            run = sandwich_search(alt64, swap6, budget)
            assert run.exhausted and run.nodes == budget
            assert run.leaves == whole.leaves[: len(run.leaves)]
        assert sandwich_search(alt64, swap6, whole.nodes) == whole

    def test_failed_recheck_raises(self, alt64, swap6, monkeypatch):
        # a leaf whose global tope set misses the target's topes is a fault in
        # the local tests, never a leaf
        real = omcert.oracle.topes_of

        def short(chi: Chirotope) -> TopeSet:
            return TopeSet(chi.n, chi.r, real(chi).topes - swap6.topes)

        monkeypatch.setattr(omcert.oracle, "topes_of", short)
        with pytest.raises(RuntimeError, match="global re-check"):
            sandwich_search(alt64, swap6)

    def test_n7_control(self):
        # an independent oracle at n=7: 1,120 leaves, each re-checked through
        # topes_of
        source, target = alt(7, 4), alt(7, 2)
        run = sandwich_search(source, target)
        assert (run.nodes, len(run.leaves), run.exhausted) == (15_665, 1_120, False)
        assert_rechecked(run.leaves, source, target)
