from __future__ import annotations

import json

import pytest

import omcert.contradiction
from omcert.certificate import serialize_certificate, validate_contradiction_document
from omcert.contradiction import (
    CONFLICT_SUPPORT,
    KEPT_A,
    KEPT_B,
    build_contradiction_certificate,
    check_restriction,
    circuits_conflict,
    direct_search_n8,
    lift_through_restriction,
    verify_premise,
)
from omcert.signed_vector import SignedVector

sv = SignedVector.parse


class TestPremise:
    def test_holds_with_corank_two(self):
        verdict = verify_premise(8)
        assert verdict.holds and verdict.corank == 2

    def test_small_case_also_holds(self):
        verdict = verify_premise(6)
        assert verdict.holds and verdict.corank == 2


class TestLift:
    def test_first_restriction_lift(self):
        assert str(lift_through_restriction(sv("+-00-+"), KEPT_A, 8)) == "+-00-+00"

    def test_second_restriction_lift(self):
        assert str(lift_through_restriction(sv("+-+-00"), KEPT_B, 8)) == "+-00+-00"

    def test_lift_is_support_faithful(self, contradiction_certificate):
        cert = contradiction_certificate
        for rc, circuit in (
            (cert.restriction_a, "+-00-+"),
            (cert.restriction_b, "+-+-00"),
        ):
            assert str(rc.lifted_circuit.restrict(rc.kept)) == circuit


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
            assert rc.lifted_circuit.support() == set(CONFLICT_SUPPORT)

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
        assert not circuits_conflict(x, -x)

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


class TestDirectSearch:
    def test_budget_exhaustion_reported(self):
        outcome = direct_search_n8(budget=500)
        assert outcome.status == "budget-exhausted"
        assert outcome.nodes == 500
        assert outcome.witness is None

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            direct_search_n8(budget=0)

    @pytest.mark.slow
    def test_full_exhaustion_finds_nothing(self):
        # independent oracle for the whole result: the kernel tries
        # 177,833,728 nodes (about 108 s on one core, 1.65 million nodes/s) and
        # exhausts the space
        outcome = direct_search_n8(budget=250_000_000)
        assert outcome.status == "none-found"
        assert outcome.witness is None
