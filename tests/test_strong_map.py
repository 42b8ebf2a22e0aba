from __future__ import annotations

from itertools import permutations, product

import pytest

from omcert.matroid import TopeSet, alternating_chirotope, covectors_of, pair_swap_chirotope, topes_of
from omcert.signed_vector import SignedVector
from omcert.strong_map import is_strong_map_covectors, is_strong_map_topes
from reference import covectors_from_topes, is_covector_by_extension

sv = SignedVector.parse


class TestTopeInclusion:
    def test_n6_holds(self, alt64, swap6):
        verdict = is_strong_map_topes(alt64, swap6)
        assert verdict.holds and verdict.corank == 2 and verdict.witness is None

    def test_n8_holds(self, alt84, swap8):
        verdict = is_strong_map_topes(alt84, swap8)
        assert verdict.holds and verdict.corank == 2

    def test_reverse_direction_fails_with_witness(self, alt64, swap6):
        verdict = is_strong_map_topes(swap6, alt64)
        assert not verdict.holds
        assert verdict.witness in alt64.topes and verdict.witness not in swap6.topes
        # the witness is the first missing tope in the fixed order
        missing = [t for t in alt64.ordered if t not in swap6.topes]
        assert verdict.witness == missing[0]

    def test_ground_set_mismatch(self, alt64, swap8):
        with pytest.raises(ValueError):
            is_strong_map_topes(alt64, swap8)


class TestCovectorContainment:
    def test_n6_agrees_with_topes(self, alt64, swap6):
        verdict = is_strong_map_covectors(alternating_chirotope(6, 4), pair_swap_chirotope(6))
        assert verdict.holds and verdict.corank == 2 and verdict.witness is None
        assert verdict.holds == is_strong_map_topes(alt64, swap6).holds

    def test_reflexive(self):
        chi = pair_swap_chirotope(6)
        verdict = is_strong_map_covectors(chi, chi)
        assert verdict.holds and verdict.corank == 0

    def test_reverse_direction_fails(self):
        source, target = pair_swap_chirotope(6), alternating_chirotope(6, 4)
        verdict = is_strong_map_covectors(source, target)
        assert not verdict.holds and verdict.corank == -2
        # the witness is the first target covector missing from the source, in the fixed order
        wanted, had = (covectors_from_topes(topes_of(chi)) for chi in (target, source))
        missing = wanted - had
        assert verdict.witness == min(missing, key=SignedVector.order_key)

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            is_strong_map_covectors(alternating_chirotope(6, 4), pair_swap_chirotope(8))


class TestMethodAgreement:
    def test_chirotope_pairs_agree(self):
        # every ordered pair of alt(6, r), r = 1..6, and m2(6): covector
        # containment, tope inclusion and the reference sets' containment agree
        chirotopes = [alternating_chirotope(6, r) for r in range(1, 7)] + [pair_swap_chirotope(6)]
        topes = [topes_of(chi) for chi in chirotopes]
        covector_sets = [covectors_from_topes(ts) for ts in topes]
        outcomes = set()
        for i, j in permutations(range(len(chirotopes)), 2):
            cov_verdict = is_strong_map_covectors(chirotopes[i], chirotopes[j])
            assert cov_verdict.holds == is_strong_map_topes(topes[i], topes[j]).holds, (i, j)
            assert cov_verdict.holds == (covector_sets[j] <= covector_sets[i]), (i, j)
            outcomes.add(cov_verdict.holds)
        assert outcomes == {True, False}

    def test_inclusion_without_containment_on_a_non_uniform_target(self):
        # {+++, ++-} are the topes of the rank-2 oriented matroid with e1
        # parallel to e2; they lie inside alt(3,2)'s, but the covectors 00+
        # and 00- do not: tope inclusion decides a strong map only on a
        # uniform target, which topes_of guarantees and a hand-built set does not
        source = alternating_chirotope(3, 2)
        target = TopeSet(3, 2, frozenset({sv("+++"), sv("++-")}))
        assert is_strong_map_topes(topes_of(source), target).holds
        gap = {sv("00+"), sv("00-")}
        assert gap <= covectors_from_topes(target)
        assert not gap & covectors_of(source)

    def test_all_instance_pairs_agree(self, alt64, swap6, search_certificate):
        # tope inclusion and covector containment of the reference sets reach
        # the same verdict for every ordered pair of uniform instances, holding
        # or not; the survivors have no chirotope, so their covectors come from
        # the reference enumeration
        instances = [alt64, swap6] + [s.tope_set() for s in search_certificate.survivors]
        covector_sets = [covectors_from_topes(ts) for ts in instances]
        for i, j in permutations(range(len(instances)), 2):
            tope_verdict = is_strong_map_topes(instances[i], instances[j])
            assert tope_verdict.holds == (covector_sets[j] <= covector_sets[i]), (i, j)


class TestCovectorByExtension:
    def test_survivors_reject_named_vector(self, search_certificate):
        x = sv("+-+-00")
        for survivor in search_certificate.survivors:
            assert not is_covector_by_extension(x, survivor.tope_set())

    def test_topes_are_covectors(self, swap6):
        for t in swap6.topes:
            assert is_covector_by_extension(t, swap6)

    def test_zero_is_not_a_covector_of_small_instances(self, swap6):
        assert not is_covector_by_extension(SignedVector(6, 0, 0), swap6)

    def test_matches_membership_for_nonzero_vectors(self, alt64, swap6, search_certificate):
        # the zero vector is the lone exception: it is always a covector, but
        # its completions are all 2**n full vectors, which are topes only at
        # full rank, so the extension criterion reports it false
        instances = [alt64, swap6, search_certificate.survivors[0].tope_set()]
        for ts in instances:
            cov = covectors_from_topes(ts)
            for signs in product("+-0", repeat=6):
                x = sv("".join(signs))
                if not x.support_mask:
                    assert not is_covector_by_extension(x, ts)
                    assert x in cov
                else:
                    assert is_covector_by_extension(x, ts) == (x in cov)
