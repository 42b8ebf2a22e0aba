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
    FULL_N,
    KEPT_A,
    KEPT_B,
    build_contradiction_certificate,
    check_restriction,
    circuits_conflict,
    lift_through_restriction,
    verify_premise,
)
from omcert.matroid import Chirotope, TopeSet, check_uniform_tope_axioms, circuit_table, subset_ranks
from omcert.oracle import DirectSearchOutcome, direct_search_n8
from omcert.search import SearchCertificate, SurvivorRecord, source_topes, target_topes
from omcert.signed_vector import SignedVector
from omcert.strong_map import StrongMapVerdict, is_strong_map_topes
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
        monkeypatch.setattr(omcert.contradiction, check, lambda *args: False)
        cert = build_contradiction_certificate(search_cert=search_certificate)
        assert cert.verdict == f"invalid:{name}"
        doc = json.loads(serialize_certificate(cert))
        assert f"rebuilt verdict is 'invalid:{name}', expected 'nonfactorizable'" in (
            validate_contradiction_document(doc)
        )
        monkeypatch.undo()
        problems = validate_contradiction_document(doc)
        assert any(p.startswith("document.conclusion.verdict is") for p in problems)


def with_survivors(cert: SearchCertificate, survivors) -> SearchCertificate:
    return SearchCertificate(cert.instance, cert.combinations_checked, tuple(survivors), cert.conclusion_circuits)


def with_witnesses(survivor: SurvivorRecord, witnesses) -> SurvivorRecord:
    return SurvivorRecord(survivor.topes, tuple(witnesses), survivor.excluded_absent, survivor.circuits)


def other_pattern(circuit: SignedVector) -> SignedVector:
    """Another canonical pattern on the same support: the last element flipped."""
    last = 1 << (circuit.support_mask.bit_length() - 1)
    swapped = SignedVector(circuit.n, circuit.pos ^ last, circuit.neg ^ last)
    assert swapped.support_mask == circuit.support_mask and swapped.is_canonical()
    return swapped


def with_swapped_witness(cert: SearchCertificate, survivor: int, index: int) -> SearchCertificate:
    """``cert`` with one survivor's witness on one 4-subset swapped for
    another pattern there; the topes still carry one circuit per 4-subset."""
    survivors = list(cert.survivors)
    witnesses = list(survivors[survivor].vc_witnesses)
    q, witness = witnesses[index]
    witnesses[index] = (q, other_pattern(witness))
    survivors[survivor] = with_witnesses(survivors[survivor], witnesses)
    return with_survivors(cert, survivors)


def check_deletion(cert: SearchCertificate) -> bool:
    tables = tuple(circuit_table(s.tope_set()) for s in cert.survivors)
    return omcert.contradiction._check_deletion_circuits(cert, tables)


QUADS = tuple(combinations(range(1, 7), 4))
SOURCE6 = alternating_topes_direct(6, 4).ordered


def deletion_oracle(survivor: SurvivorRecord) -> bool:
    """The deletion check on objects: the witnesses name the 4-subsets in
    lexicographic order, and on every 5-element kept set each circuit the
    deletion's own tope set carries equals, up to sign, the witness on that
    4-subset restricted to the kept set."""
    if tuple(q for q, _ in survivor.vc_witnesses) != QUADS:
        return False
    witnesses = dict(survivor.vc_witnesses)
    parent = survivor.tope_set()
    for kept in combinations(range(1, 7), 5):
        carried = circuit_table(restriction_tope_set(parent, kept))
        for q, want in zip(combinations(kept, 4), carried):
            if want is not None and restrict(witnesses[q], kept) not in (want, want.opposite()):
                return False
    return True


def least_avoided_witnesses(tope_set: TopeSet) -> tuple:
    """The pattern of least index each 4-subset avoids, ``++++`` on one that avoids none."""
    found = dict(check_uniform_tope_axioms(tope_set).witnesses)
    return tuple((q, found.get(q, SignedVector(6, sum(1 << (e - 1) for e in q), 0))) for q in QUADS)


class TestDeletionCheck:
    @pytest.mark.parametrize("index", [0, 7, 14])
    def test_swapped_circuit_rejected(self, search_certificate, index):
        assert check_deletion(with_swapped_witness(search_certificate, 3, index)) is False

    def test_missing_circuit_rejected(self, search_certificate):
        # the last witness dropped: every remaining one still matches its circuit
        survivors = list(search_certificate.survivors)
        witnesses = list(survivors[0].vc_witnesses)
        del witnesses[-1]
        survivors[0] = with_witnesses(survivors[0], witnesses)
        assert check_deletion(with_survivors(search_certificate, survivors)) is False

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
    @example(topes=2, mutation="reorder", index=14, shift=1)
    @given(
        topes=st.integers(0, 19) | st.lists(st.integers(0, 25), min_size=16, max_size=16, unique=True),
        mutation=st.sampled_from(("none", "swap", "negate", "drop", "move", "reorder")),
        index=st.integers(0, 14),
        shift=st.integers(1, 14),
    )
    def test_check_equals_object_path_oracle(self, search_certificate, topes, mutation, index, shift):
        # a survivor, or 16 random alt(6,4) topes with their least avoided
        # patterns as witnesses; then one witness swapped, negated, dropped,
        # taken from another support or moved to another place
        if isinstance(topes, int):
            record = search_certificate.survivors[topes]
        else:
            tope_set = TopeSet(6, 3, frozenset(SOURCE6[i] for i in topes))
            record = SurvivorRecord(tope_set.ordered, least_avoided_witnesses(tope_set), (), ())
        witnesses = list(record.vc_witnesses)
        q, witness = witnesses[index]
        other = (index + shift) % 15
        if mutation == "swap":
            witnesses[index] = (q, other_pattern(witness))
        elif mutation == "negate":
            witnesses[index] = (q, witness.opposite())
        elif mutation == "drop":
            del witnesses[index]
        elif mutation == "move":
            witnesses[index] = (q, witnesses[other][1])
        elif mutation == "reorder":
            witnesses[index], witnesses[other] = witnesses[other], witnesses[index]
        record = with_witnesses(record, witnesses)
        expected = deletion_oracle(record)
        assert check_deletion(with_survivors(search_certificate, [record])) is expected
        if isinstance(topes, int):
            assert expected is (mutation in ("none", "negate"))


class TestVerdictNames:
    """Each gate forced closed on its own is the one the verdict names."""

    def verdict(self, search_certificate) -> str:
        return build_contradiction_certificate(search_cert=search_certificate).verdict

    def test_premise(self, monkeypatch, search_certificate):
        failed = StrongMapVerdict(holds=False, method="tope-inclusion", corank=2, witness=None)
        monkeypatch.setattr(omcert.contradiction, "is_strong_map_topes", lambda source, target: failed)
        assert self.verdict(search_certificate) == "invalid:premise"

    def test_search(self, search_certificate):
        survivors = list(search_certificate.survivors)
        first = survivors[0]
        excluded = ((first.excluded_absent[0][0], False), *first.excluded_absent[1:])
        survivors[0] = SurvivorRecord(first.topes, first.vc_witnesses, excluded, first.circuits)
        assert self.verdict(with_survivors(search_certificate, survivors)) == "invalid:search"

    @pytest.mark.parametrize(
        "name, family, inside",
        [
            # an n=8 value on a subset inside one kept set only, flipped
            ("restriction-a", "alternating_chirotope", (1, 2, 3, 4)),
            ("restriction-a", "pair_swap_chirotope", (3, 4)),
            ("restriction-b", "alternating_chirotope", (1, 2, 7, 8)),
            ("restriction-b", "pair_swap_chirotope", (7, 8)),
        ],
        ids=["a-source", "a-target", "b-source", "b-target"],
    )
    def test_restriction(self, monkeypatch, search_certificate, name, family, inside):
        build = getattr(omcert.contradiction, family)

        def flipped(n, *rank):
            chi = build(n, *rank)
            if n != FULL_N:
                return chi
            values = list(chi.values)
            values[subset_ranks(n, chi.r)[inside]] *= -1
            return Chirotope(n, chi.r, tuple(values))

        monkeypatch.setattr(omcert.contradiction, family, flipped)
        assert self.verdict(search_certificate) == f"invalid:{name}"

    def test_circuit_conflict(self, monkeypatch, search_certificate):
        monkeypatch.setattr(omcert.contradiction, "circuits_conflict", lambda a, b: False)
        assert self.verdict(search_certificate) == "invalid:circuit-conflict"

    def test_deletion_circuits(self, search_certificate):
        cert = build_contradiction_certificate(with_swapped_witness(search_certificate, 3, 7))
        verified = {a.name: a.verified for a in cert.assumptions}
        assert verified["deletion-circuits"] is False
        assert verified["uniform-circuit-uniqueness"] is True
        assert cert.verdict == "invalid:deletion-circuits"

    def test_uniform_circuit_uniqueness(self, search_certificate):
        # survivor 0 without the tope ++++--: two patterns avoided on
        # {3,4,5,6}, one on every other 4-subset, witnesses as the axiom
        # report gives them
        survivors = list(search_certificate.survivors)
        first = survivors[0]
        tope_set = TopeSet(6, 3, first.tope_set().topes - {sv("++++--")})
        assert [q for q, c in zip(QUADS, circuit_table(tope_set)) if c is None] == [(3, 4, 5, 6)]
        witnesses = check_uniform_tope_axioms(tope_set).witnesses
        survivors[0] = SurvivorRecord(tope_set.ordered, witnesses, first.excluded_absent, first.circuits)
        cert = build_contradiction_certificate(with_survivors(search_certificate, survivors))
        verified = {a.name: a.verified for a in cert.assumptions}
        assert verified["deletion-circuits"] is True
        assert verified["uniform-circuit-uniqueness"] is False
        assert cert.verdict == "invalid:uniform-circuit-uniqueness"


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
