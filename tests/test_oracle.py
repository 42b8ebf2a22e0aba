"""Stage A, the independent oracle over rank-3 chirotopes: its 5-point
table, the n=6 pair against the kernel's survivors, the n=8 exhaustion, and
controls whose leaves are re-checked through ``topes_of``."""

from __future__ import annotations

from itertools import combinations

import pytest

import omcert.oracle
from omcert.matroid import Chirotope, TopeSet, alternating_chirotope, canonical_tope_count, topes_of
from omcert.oracle import LOCAL_TRIPLES, OracleRun, local_table, sandwich_search


def alt(n: int, r: int):
    return topes_of(alternating_chirotope(n, r))


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
        chirotopes, _, _ = local_table()
        assert chirotopes.bit_count() == 384

    def test_topes_agree_with_topes_of(self):
        # the table's circuit-based tope bits against the cocircuit cover
        chirotopes, negative, holds = local_table()
        lex = sorted(range(len(LOCAL_TRIPLES)), key=lambda k: LOCAL_TRIPLES[k])
        for code in range(1 << len(LOCAL_TRIPLES)):
            if not chirotopes >> code & 1:
                continue
            assert [negative[k] >> code & 1 for k in range(10)] == [code >> k & 1 for k in range(10)]
            chi = Chirotope(5, 3, tuple(-1 if code >> k & 1 else 1 for k in lex))
            want = {t.neg >> 1 for t in topes_of(chi).topes}
            assert {v for v in range(16) if holds[v] >> code & 1} == want, code


class TestSandwich:
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
        assert len(run.leaves) == 130 and not run.exhausted
        assert_rechecked(run.leaves, alt64, target)

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
        assert len(run.leaves) == 1_120 and not run.exhausted
        assert_rechecked(run.leaves, source, target)
