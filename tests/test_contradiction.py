from __future__ import annotations

import json
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omcert.contradiction
from omcert.certificate import serialize_certificate, validate_contradiction_document
from omcert.contradiction import (
    CONFLICT_SUPPORT,
    KEPT_A,
    KEPT_B,
    build_contradiction_certificate,
    check_restriction,
    circuits_conflict,
    lift_through_restriction,
    verify_premise,
)
from omcert.matroid import TopeSet, circuit_table
from omcert.oracle import DirectSearchOutcome, direct_search_n8
from omcert.search import SurvivorRecord, source_topes, target_topes
from omcert.signed_vector import SignedVector
from omcert.strong_map import is_strong_map_topes
from reference import alternating_topes_direct, restrict, restriction_tope_set

sv = SignedVector.parse


class TestPremise:
    def test_holds_with_corank_two(self):
        verdict = verify_premise()
        assert verdict.holds and verdict.corank == 2

    def test_small_case_also_holds(self):
        verdict = is_strong_map_topes(source_topes(6), target_topes(6))
        assert verdict.holds and verdict.corank == 2


class TestLift:
    def test_first_restriction_lift(self):
        assert str(lift_through_restriction(sv("+-00-+"), KEPT_A)) == "+-00-+00"

    def test_second_restriction_lift(self):
        assert str(lift_through_restriction(sv("+-+-00"), KEPT_B)) == "+-00+-00"

    @pytest.mark.parametrize("kept", [(1, 2, 3, 4, 6, 5), (1, 2, 3, 4, 5, 9), (0, 2, 3, 4, 5, 6)])
    def test_kept_must_increase_within_eight(self, kept):
        with pytest.raises(ValueError, match=r"kept must be strictly increasing within 1\.\.8"):
            lift_through_restriction(sv("+-00-+"), kept)

    @pytest.mark.parametrize("circuit", ["+-+-00-+", "+-"])
    def test_circuit_must_live_on_the_kept_set(self, circuit):
        # an 8-element circuit would lose its last two signs; a 2-element one
        # would fail on an element it does not have
        with pytest.raises(ValueError, match=re.escape(f"circuit {circuit} lives on {len(circuit)} elements, but 6 are kept")):
            lift_through_restriction(sv(circuit), KEPT_A)

    def test_lift_is_support_faithful(self, contradiction_certificate):
        cert = contradiction_certificate
        for rc, circuit in (
            (cert.restriction_a, "+-00-+"),
            (cert.restriction_b, "+-+-00"),
        ):
            assert str(restrict(rc.lifted_circuit, rc.kept)) == circuit


class TestRestrictionChecks:
    def test_both_reductions_pass(self, search_certificate):
        ra = check_restriction(KEPT_A, search_certificate.conclusion_circuits)
        rb = check_restriction(KEPT_B, search_certificate.conclusion_circuits)
        assert ra.passed and rb.passed
        assert str(ra.lifted_circuit) == "+-00-+00"
        assert str(rb.lifted_circuit) == "+-00+-00"

    def test_lifts_land_on_conflict_support(self, search_certificate):
        for kept in (KEPT_A, KEPT_B):
            rc = check_restriction(kept, search_certificate.conclusion_circuits)
            assert rc.lifted_circuit.support_mask == sum(1 << (e - 1) for e in CONFLICT_SUPPORT)

    def test_other_kept_sets_rejected(self, search_certificate):
        with pytest.raises(ValueError):
            check_restriction((1, 2, 3, 4, 5, 7), search_certificate.conclusion_circuits)


class TestConflict:
    def test_lifted_pair_conflicts(self):
        assert circuits_conflict(sv("+-00-+00"), sv("+-00+-00"))

    def test_equal_circuits_do_not_conflict(self):
        x = sv("+-00-+00")
        assert not circuits_conflict(x, x)

    def test_opposite_circuits_do_not_conflict(self):
        x = sv("+-00-+00")
        assert not circuits_conflict(x, x.opposite())

    def test_different_supports_do_not_conflict(self):
        assert not circuits_conflict(sv("+-00-+00"), sv("+-+-0000"))


class TestCertificate:
    def test_verdict(self, contradiction_certificate):
        assert contradiction_certificate.verdict == "nonfactorizable"
        assert contradiction_certificate.circuits_conflict
        assert contradiction_certificate.search_verified

    def test_tope_counts(self, contradiction_certificate):
        assert contradiction_certificate.source_tope_count == 64
        assert contradiction_certificate.target_tope_count == 8

    def test_assumptions(self, contradiction_certificate):
        byname = {a.name: a for a in contradiction_certificate.assumptions}
        assert byname["deletion-circuits"].verified is True
        assert byname["uniform-circuit-uniqueness"].verified is True
        assert byname["uniform-intermediate"].verified is None

    @pytest.mark.parametrize(
        "check, name",
        [
            ("_check_deletion_circuits", "deletion-circuits"),
            ("_check_circuit_uniqueness", "uniform-circuit-uniqueness"),
        ],
    )
    def test_failed_assumption_fails_verdict(self, monkeypatch, search_certificate, check, name):
        monkeypatch.setattr(omcert.contradiction, check, lambda tables: False)
        cert = build_contradiction_certificate(search_cert=search_certificate)
        assert cert.verdict == f"invalid:{name}"
        doc = json.loads(serialize_certificate(cert))
        assert f"rebuilt verdict is 'invalid:{name}', expected 'nonfactorizable'" in (
            validate_contradiction_document(doc)
        )
        monkeypatch.undo()
        problems = validate_contradiction_document(doc)
        assert any(p.startswith("document.conclusion.verdict is") for p in problems)


def with_table_entry(survivor, index, entry):
    table = list(survivor.circuit_table)
    table[index] = entry
    return SurvivorRecord(
        topes=survivor.topes,
        vc_witnesses=survivor.vc_witnesses,
        excluded_absent=survivor.excluded_absent,
        circuits=survivor.circuits,
        circuit_table=tuple(table),
    )


SOURCE6 = alternating_topes_direct(6, 4).ordered


def deletion_oracle(survivor: SurvivorRecord) -> bool:
    """The deletion check on objects: on every 5-element kept set, the
    circuits of the deletion's own tope set equal, up to sign, the circuit
    table's entries on the kept set's 4-subsets, restricted to it."""
    if len(survivor.circuit_table) != 15:
        return False
    table = dict(zip(combinations(range(1, 7), 4), survivor.circuit_table))
    parent = survivor.tope_set()
    for kept in combinations(range(1, 7), 5):
        carried = circuit_table(restriction_tope_set(parent, kept))
        for q, want in zip(combinations(kept, 4), carried):
            circuit = table[q]
            if circuit is None or want is None or restrict(circuit, kept) not in (want, want.opposite()):
                return False
    return True


class TestDeletionCheck:
    @pytest.mark.parametrize("index", [0, 7, 14])
    def test_swapped_circuit_rejected(self, search_certificate, index):
        # another canonical pattern on the same support: flip its last element
        survivors = search_certificate.survivors
        circuit = survivors[3].circuit_table[index]
        last = 1 << (circuit.support_mask.bit_length() - 1)
        swapped = SignedVector(circuit.n, circuit.pos ^ last, circuit.neg ^ last)
        assert swapped.support_mask == circuit.support_mask and swapped.is_canonical()
        bad = survivors[:3] + (with_table_entry(survivors[3], index, swapped),) + survivors[4:]
        assert omcert.contradiction._check_deletion_circuits(bad) is False

    def test_missing_circuit_rejected(self, search_certificate):
        survivors = search_certificate.survivors
        bad = (with_table_entry(survivors[0], 5, None),) + survivors[1:]
        assert omcert.contradiction._check_deletion_circuits(bad) is False

    def test_mask_fields_match_restricted_tope_sets(self, search_certificate):
        # the identity behind the check: a deletion's pattern field on a
        # 4-subset Q of the kept set is the parent's field on Q, so one table
        # comparison per survivor covers all six deletions
        for survivor in search_certificate.survivors:
            parent = survivor.tope_set()
            fields = dict(zip(combinations(range(1, 7), 4), parent.hit_patterns))
            for kept in combinations(range(1, 7), 5):
                deletion = restriction_tope_set(parent, kept)
                assert list(deletion.hit_patterns) == [fields[q] for q in combinations(kept, 4)]

    @settings(max_examples=80, deadline=None)
    @example(topes=0, mutation="none", index=0, shift=1)
    @example(topes=4, mutation="negate", index=9, shift=1)
    @example(topes=7, mutation="swap", index=3, shift=1)
    @given(
        topes=st.integers(0, 19) | st.lists(st.integers(0, 25), min_size=16, max_size=16, unique=True),
        mutation=st.sampled_from(("none", "swap", "negate", "empty", "move")),
        index=st.integers(0, 14),
        shift=st.integers(1, 14),
    )
    def test_check_equals_object_path_oracle(self, search_certificate, topes, mutation, index, shift):
        # a survivor, or 16 random alt(6,4) topes with their own table; then
        # one table entry swapped, negated, set to None or put on another support
        if isinstance(topes, int):
            record = search_certificate.survivors[topes]
        else:
            tope_set = TopeSet(6, 3, frozenset(SOURCE6[i] for i in topes))
            record = SurvivorRecord(tope_set.ordered, (), (), (), circuit_table(tope_set))
        entry = record.circuit_table[index]
        if mutation == "swap" and entry is not None:
            last = 1 << (entry.support_mask.bit_length() - 1)
            entry = SignedVector(entry.n, entry.pos ^ last, entry.neg ^ last)
        elif mutation == "negate" and entry is not None:
            entry = entry.opposite()
        elif mutation == "empty":
            entry = None
        elif mutation == "move":
            entry = record.circuit_table[(index + shift) % 15]
        record = with_table_entry(record, index, entry)
        expected = deletion_oracle(record)
        assert omcert.contradiction._check_deletion_circuits((record,)) is expected
        if isinstance(topes, int):
            assert expected is (mutation in ("none", "negate"))


class TestDirectSearch:
    def test_budget_exhaustion_reported(self):
        outcome = direct_search_n8(budget=500)
        assert outcome.status == "budget-exhausted"
        assert outcome.nodes == 500
        assert outcome.witness is None

    @pytest.mark.parametrize("budget", [1, 7_784])
    def test_budget_below_the_space_is_used_up(self, budget):
        assert direct_search_n8(budget) == DirectSearchOutcome("budget-exhausted", budget, None)

    @pytest.mark.parametrize("budget", [7_785, 200_000])
    def test_whole_space_finds_nothing(self, budget):
        # stage A exhausts the n=8 space in 7,785 nodes without a leaf
        assert direct_search_n8(budget) == DirectSearchOutcome("none-found", 7_785, None)

    def test_budget_must_be_positive(self):
        for budget in (0, -1, 2.5):
            with pytest.raises(ValueError):
                direct_search_n8(budget=budget)
