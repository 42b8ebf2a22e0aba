from __future__ import annotations

import math
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omcert.matroid
from omcert.matroid import (
    Chirotope,
    CovectorAxiomReport,
    TopeSet,
    alternating_chirotope,
    canonical_tope_count,
    check_covector_axioms,
    check_uniform_tope_axioms,
    circuit_on_support,
    covectors_of,
    is_covector,
    pair_swap_chirotope,
    pattern_bytes,
    phi,
    topes_of,
    uniform_covector_count,
)
from omcert.signed_vector import SignedVector
from reference import (
    alternating_topes_direct,
    compose,
    conforms,
    covectors_from_topes,
    elimination_failures,
    pattern_index,
    perpendicular,
    restriction_tope_set,
)

sv = SignedVector.parse

# hand-computed tope set of the n=6 pair-swap instance (points on a line at
# positions 2,1,4,3,6,5; sweep a threshold across the six gaps, canonicalize)
SWAP6_TOPES = ("++++++", "++++-+", "++++--", "++-+--", "++----", "+-++++")


# ----------------------------------------------------------------------
# realization oracle: points t=1..n on the moment curve have chirotope
# sign((product of pairwise differences)); the pair-swap instance lives on a
# line at positions -swap(e), so its signs follow the same product rule
# ----------------------------------------------------------------------


def vandermonde_sign(points) -> int:
    prod = 1
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            prod *= points[j] - points[i]
    return (prod > 0) - (prod < 0)


def swap_position(e: int) -> int:
    return e + 1 if e % 2 else e - 1


def closure_topes(chi: Chirotope) -> frozenset[SignedVector]:
    """Reference tope generator: close both signs of every cocircuit under
    composition breadth-first (composition only grows support, so this
    reaches every covector) and keep the full-support results."""
    n = chi.n
    seeds = set()
    for c in chi.cocircuits():
        seeds |= {(c.pos, c.neg), (c.neg, c.pos)}
    full = (1 << n) - 1
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        fresh = []
        for xp, xn in frontier:
            free = full & ~(xp | xn)
            for yp, yn in seeds:
                z = (xp | (yp & free), xn | (yn & free))
                if z not in seen:
                    seen.add(z)
                    fresh.append(z)
        frontier = fresh
    return frozenset(SignedVector(n, p, m).canonical() for p, m in seen if p | m == full)


class TestPhi:
    def test_pinned_counts(self):
        assert phi(3, 5) == 26
        assert phi(1, 5) == 6
        assert phi(2, 5) == 16

    def test_matches_binomials(self):
        assert phi(0, 7) == 1
        assert phi(7, 7) == 2**7
        assert phi(2, 4) == 1 + 4 + 6

    def test_errors(self):
        with pytest.raises(ValueError):
            phi(4, 3)
        with pytest.raises(ValueError):
            phi(-1, 3)


class TestChirotopeConstruction:
    def test_alternating_all_positive(self):
        assert alternating_chirotope(6, 4).values == (1,) * 15
        assert alternating_chirotope(8, 4).values == (1,) * 70
        assert alternating_chirotope(2, 1).values == (1, 1)

    def test_alternating_rank_range(self):
        with pytest.raises(ValueError):
            alternating_chirotope(4, 5)
        with pytest.raises(ValueError):
            alternating_chirotope(4, 0)

    def test_pair_swap_small_values(self):
        chi = pair_swap_chirotope(4)
        assert chi.values == (1, -1, -1, -1, -1, 1)

    def test_pair_swap_forced_value(self):
        assert pair_swap_chirotope(6).value_sorted((1, 2)) == 1

    def test_pair_swap_uniform(self):
        for n in (2, 4, 6, 8):
            assert pair_swap_chirotope(n).is_uniform()

    def test_pair_swap_odd_rejected(self):
        with pytest.raises(ValueError):
            pair_swap_chirotope(5)

    def test_pair_swap_matches_line_realization(self):
        for n in (4, 6, 8):
            chi = pair_swap_chirotope(n)
            oracle = Chirotope(
                n,
                2,
                tuple(
                    vandermonde_sign((-swap_position(i), -swap_position(j)))
                    for i, j in combinations(range(1, n + 1), 2)
                ),
            )
            assert chi == oracle

    def test_global_sign_identified(self):
        # the second is not uniform: its first value is zero, its first nonzero one fixes the sign
        for chi in (pair_swap_chirotope(4), Chirotope(3, 2, (0, -1, 1))):
            flipped = Chirotope(chi.n, chi.r, tuple(-v for v in chi.values))
            assert chi == flipped
            assert hash(chi) == hash(flipped)
            assert len({chi, flipped}) == 1
            assert chi != chi._key()
        assert pair_swap_chirotope(4) != pair_swap_chirotope(6)
        assert Chirotope(3, 2, (0, -1, 1)) != Chirotope(3, 2, (0, 1, 1))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Chirotope(3, 2, (0, 0, 0))
        with pytest.raises(ValueError):
            Chirotope(3, 2, (1, 2, 0))
        with pytest.raises(ValueError):
            Chirotope(3, 2, (1, 0))


class TestMinors:
    def test_alternating_restrictions(self):
        alt84 = alternating_chirotope(8, 4)
        assert alt84.restrict((1, 2, 3, 4, 5, 6)) == alternating_chirotope(6, 4)
        assert alt84.restrict((1, 2, 5, 6, 7, 8)) == alternating_chirotope(6, 4)

    def test_pair_swap_restrictions(self):
        swap8 = pair_swap_chirotope(8)
        assert swap8.restrict((1, 2, 3, 4, 5, 6)) == pair_swap_chirotope(6)
        # kept pairs (1,2),(5,6),(7,8) relabel to (1,2),(3,4),(5,6)
        assert swap8.restrict((1, 2, 5, 6, 7, 8)) == pair_swap_chirotope(6)

    def test_pair_swap_restriction_value_by_value(self):
        restricted = pair_swap_chirotope(8).restrict((1, 2, 5, 6, 7, 8))
        expected = pair_swap_chirotope(6)
        for pair in combinations(range(1, 7), 2):
            assert restricted.value_sorted(pair) == expected.value_sorted(pair)

    def test_restriction_rank_drop(self):
        loopy = Chirotope(4, 2, (1, 0, 0, 0, 0, 0))  # 3 and 4 are loops
        with pytest.raises(ValueError):
            loopy.restrict((3, 4))
        with pytest.raises(ValueError):
            alternating_chirotope(6, 4).restrict((1, 2, 3))


class TestCocircuits:
    def test_alternating_4_2(self):
        got = {str(c) for c in alternating_chirotope(4, 2).cocircuits()}
        assert got == {"0+++", "+0--", "++0-", "+++0"}

    def test_pair_swap_4(self):
        assert "0+--" in {str(c) for c in pair_swap_chirotope(4).cocircuits()}

    def test_counts(self):
        for n, r in ((4, 2), (6, 4), (8, 4)):
            assert len(alternating_chirotope(n, r).cocircuits()) == math.comb(n, r - 1)

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            Chirotope(4, 2, (1, 0, 0, 0, 0, 0)).cocircuits()

    def test_moment_curve_realization_oracle(self):
        for n, r in ((5, 3), (6, 4), (8, 4)):
            chi = alternating_chirotope(n, r)
            expected = set()
            for z in combinations(range(1, n + 1), r - 1):
                pos = neg = 0
                for e in range(1, n + 1):
                    if e in z:
                        continue
                    s = vandermonde_sign(z + (e,))
                    if s > 0:
                        pos |= 1 << (e - 1)
                    else:
                        neg |= 1 << (e - 1)
                expected.add(SignedVector(n, pos, neg).canonical())
            assert chi.cocircuits() == expected

    def test_pair_swap_position_oracle(self):
        n = 6
        expected = set()
        for z in range(1, n + 1):
            pos = neg = 0
            for e in range(1, n + 1):
                if e == z:
                    continue
                s = swap_position(z) - swap_position(e)
                if s > 0:
                    pos |= 1 << (e - 1)
                else:
                    neg |= 1 << (e - 1)
            expected.add(SignedVector(n, pos, neg).canonical())
        assert pair_swap_chirotope(n).cocircuits() == expected


class TestTopeGeneration:
    def test_counts(self, alt64, swap6, alt84, swap8):
        assert len(alt64) == 26
        assert len(swap6) == 6
        assert len(alt84) == 64
        assert len(swap8) == 8

    def test_counts_match_formula(self, alt64, swap6, alt84, swap8):
        for ts in (alt64, swap6, alt84, swap8):
            assert len(ts) == canonical_tope_count(ts.n, ts.r)

    def test_swap6_exact_set(self, swap6):
        assert swap6.strings == SWAP6_TOPES

    @pytest.mark.parametrize("n", range(1, 9))
    def test_alternating_matches_closure(self, n):
        for r in range(1, n + 1):
            chi = alternating_chirotope(n, r)
            assert topes_of(chi).topes == closure_topes(chi)

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_pair_swap_matches_closure(self, n):
        chi = pair_swap_chirotope(n)
        assert topes_of(chi).topes == closure_topes(chi)

    def test_pair_swap_restrictions_match_closure(self):
        chi = pair_swap_chirotope(8)
        for kept in combinations(range(1, 9), 6):
            restricted = chi.restrict(kept)
            assert topes_of(restricted).topes == closure_topes(restricted)

    def test_direct_rule_agrees_with_topes_of(self):
        for n, r in ((4, 2), (4, 4), (6, 4), (8, 4), (14, 4)):
            assert topes_of(alternating_chirotope(n, r)).topes == alternating_topes_direct(n, r).topes
        assert len(topes_of(alternating_chirotope(14, 4))) == 378

    def test_direct_rule_small_case(self):
        assert alternating_topes_direct(4, 2).strings == ("++++", "+++-", "++--", "+---")

    def test_direct_rule_contains_named_topes(self):
        strings = set(alternating_topes_direct(6, 4).strings)
        assert "+-+---" in strings and "+----+" in strings

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cover_visits_the_closed_form(self, n):
        # the command line refuses an instance by this count before building it
        for chi in [alternating_chirotope(n, r) for r in range(1, n + 1)] + (
            [] if n % 2 else [pair_swap_chirotope(n)]
        ):
            completions = 0  # canonical completions of each signed cocircuit's zeros
            for c in chi.cocircuits():
                for v in (c, c.opposite()):
                    if not v.neg & 1:  # else every completion is negative at element 1
                        free = ~v.support_mask & ((1 << n) - 2)  # zeros other than element 1
                        completions += 1 << free.bit_count()
            assert completions == math.comb(n, chi.r - 1) << (chi.r - 1)
            assert len(topes_of(chi)) == canonical_tope_count(n, chi.r)

    def test_deletion_commutes_with_restriction(self, alt84, swap8, alt64, swap6):
        for kept in ((1, 2, 3, 4, 5, 6), (1, 2, 5, 6, 7, 8)):
            assert restriction_tope_set(alt84, kept).topes == alt64.topes
            assert restriction_tope_set(swap8, kept).topes == swap6.topes


class TestCovectors:
    def test_counts_match_face_oracle(self):
        for chi, count in (
            (alternating_chirotope(6, 4), 345),
            (pair_swap_chirotope(6), 25),
            (alternating_chirotope(8, 4), 929),
            (alternating_chirotope(4, 2), 17),
        ):
            assert len(covectors_of(chi)) == uniform_covector_count(chi.n, chi.r) == count
        # at full rank every sign vector is a covector
        assert [uniform_covector_count(n, n) for n in range(1, 9)] == [3**n for n in range(1, 9)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cover_matches_tope_composition_alternating(self, n):
        # the cocircuit cover against the reference's 3**n composition test, at every rank
        for r in range(1, n + 1):
            chi = alternating_chirotope(n, r)
            cov = covectors_of(chi)
            assert cov == covectors_from_topes(topes_of(chi))
            assert len(cov) == uniform_covector_count(n, r)

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_cover_matches_tope_composition_pair_swap(self, n):
        chi = pair_swap_chirotope(n)
        cov = covectors_of(chi)
        assert cov == covectors_from_topes(topes_of(chi))
        assert len(cov) == uniform_covector_count(n, 2)

    def test_membership_matches_cover(self):
        # the strong-map cross-check's membership test, on all 3**6 sign vectors
        vectors = [sv("".join(signs)) for signs in product("+-0", repeat=6)]
        for chi in (alternating_chirotope(6, 4), pair_swap_chirotope(6)):
            cocircuits = chi.cocircuits()
            assert {x for x in vectors if is_covector(x, cocircuits)} == covectors_of(chi)

    def test_contains_zero_topes_opposites(self, swap6):
        cov = covectors_of(pair_swap_chirotope(6))
        assert SignedVector(6, 0, 0) in cov
        for t in swap6.topes:
            assert t in cov and t.opposite() in cov

    def test_matches_composition_definition(self, alt64, swap6, search_certificate):
        # X is a covector iff X composed with every tope (either sign) is a tope;
        # the reference enumeration and, where there is a chirotope, the cover
        survivor = search_certificate.survivors[0].tope_set()
        chirotopes = {alt64: alternating_chirotope(6, 4), swap6: pair_swap_chirotope(6)}
        for ts in (alt64, swap6, survivor):
            signed = [*ts.topes, *(t.opposite() for t in ts.topes)]
            expected = {
                x
                for signs in product("+-0", repeat=ts.n)
                for x in [sv("".join(signs))]
                if all(compose(x, t).canonical() in ts.topes for t in signed)
            }
            assert covectors_from_topes(ts) == expected
            if ts in chirotopes:
                assert covectors_of(chirotopes[ts]) == expected

    def test_not_a_covector(self):
        # its completion +-+--- has four sign changes, so it cannot extend to topes only
        chi = alternating_chirotope(6, 4)
        assert sv("+-+-00") not in covectors_of(chi)
        assert not is_covector(sv("+-+-00"), chi.cocircuits())

    def test_cocircuits_are_minimal_nonzero_covectors(self):
        for chi in (alternating_chirotope(6, 4), pair_swap_chirotope(6), alternating_chirotope(4, 2)):
            cov = covectors_of(chi)
            nonzero = [v for v in cov if v.support_mask]
            minimal = {
                v.canonical()
                for v in nonzero
                if not any(w != v and conforms(w, v) for w in nonzero)
            }
            assert minimal == chi.cocircuits()


def covector_instances() -> dict[str, list[SignedVector]]:
    """The sorted covectors of alt(n, r) for n <= 6 and of m2(n), each with
    at most 125 covectors, so the definition's scan stays fast."""
    chirotopes = {f"alt({n},{r})": alternating_chirotope(n, r) for n in range(1, 7) for r in range(1, n + 1)}
    chirotopes |= {f"m2({n})": pair_swap_chirotope(n) for n in range(2, 9, 2)}
    return {
        name: sorted(covectors_of(chi), key=lambda v: (v.pos, v.neg))
        for name, chi in chirotopes.items()
        if uniform_covector_count(chi.n, chi.r) <= 125
    }


COVECTOR_INSTANCES = covector_instances()


def assert_axioms_match_definition(vectors: set[SignedVector]) -> None:
    """The whole report against the axioms read straight off their definitions."""
    if not vectors:
        with pytest.raises(ValueError, match="empty input"):
            check_covector_axioms(vectors)
        return
    members = sorted(vectors, key=lambda v: (v.pos, v.neg))
    cap = omcert.matroid._VIOLATION_CAP
    expected = CovectorAxiomReport(
        vector_count=len(members),
        has_zero=SignedVector(members[0].n, 0, 0) in vectors,
        opposite_violations=tuple(v for v in members if v.opposite() not in vectors)[:cap],
        composition_violations=tuple((x, y) for x in members for y in members if compose(x, y) not in vectors)[:cap],
        elimination_violations=tuple(elimination_failures(frozenset(vectors))[:cap]),
    )
    assert check_covector_axioms(vectors) == expected


class TestCovectorAxioms:
    def test_generated_instances_pass(self):
        for chi in (alternating_chirotope(6, 4), pair_swap_chirotope(6), alternating_chirotope(4, 2)):
            report = check_covector_axioms(covectors_of(chi))
            assert report.passed, report

    def test_missing_opposite_reported(self):
        report = check_covector_axioms([SignedVector(2, 0, 0), sv("+-")])
        assert not report.passed
        assert sv("+-") in report.opposite_violations

    def test_missing_zero_reported(self):
        report = check_covector_axioms([sv("+-"), sv("-+")])
        assert not report.has_zero

    def test_elimination_violation_reported(self):
        vectors = [SignedVector(2, 0, 0), sv("++"), sv("--"), sv("+-"), sv("-+")]
        report = check_covector_axioms(vectors)
        assert report.has_zero and not report.opposite_violations
        assert not report.composition_violations
        assert report.elimination_violations

    def test_composition_violation_reported(self):
        vectors = [SignedVector(2, 0, 0), sv("+0"), sv("-0"), sv("0+"), sv("0-")]
        report = check_covector_axioms(vectors)
        assert report.composition_violations

    @settings(max_examples=60, deadline=None)
    @example(n=4, masks=[(0, 0), (1, 2), (2, 1), (3, 0), (0, 3)])
    @given(
        n=st.integers(1, 4),
        masks=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40),
    )
    def test_random_sets_match_definition(self, n, masks):
        full = (1 << n) - 1
        assert_axioms_match_definition({SignedVector(n, p & full, m & full & ~p) for p, m in masks})

    @settings(max_examples=60, deadline=None)
    @example(instance="alt(5,3)", dropped=list(range(0, 83, 3)), added=[])
    @example(instance="alt(6,3)", dropped=list(range(0, 123, 4)), added=[])
    @example(instance="m2(8)", dropped=[], added=[(0b1010, 0b0101), (1, 0)])
    @given(
        # alt(6,3), the one instance with over 100 covectors, only as an example
        # above: the definition's scan takes 0.2-0.4 s on it
        instance=st.sampled_from(sorted(name for name, cov in COVECTOR_INSTANCES.items() if len(cov) < 100)),
        dropped=st.lists(st.integers(0, 124), max_size=30),
        added=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=4),
    )
    def test_edited_covector_sets_match_definition(self, instance, dropped, added):
        # the covectors of an instance with some dropped and some sign vectors added
        members = COVECTOR_INSTANCES[instance]
        n, full = members[0].n, (1 << members[0].n) - 1
        kept = {v for i, v in enumerate(members) if i not in dropped}
        assert_axioms_match_definition(kept | {SignedVector(n, p & full, m & full & ~p) for p, m in added})


class TestUniformTopeAxioms:
    def test_alternating_passes(self, alt64):
        report = check_uniform_tope_axioms(alt64)
        assert report.passed
        assert report.expected_count == report.actual_count == 26
        assert dict(report.witnesses)[(1, 2, 3, 4, 5)] is not None

    def test_wrong_rank_fails_count(self, alt64):
        mislabeled = TopeSet(6, 3, alt64.topes)
        report = check_uniform_tope_axioms(mislabeled)
        assert report.expected_count == 16 and report.actual_count == 26
        assert not report.passed
        # one tope short: every 4-subset still has an avoided pattern, so the
        # count alone fails the report
        alt63 = topes_of(alternating_chirotope(6, 3)).topes
        short = check_uniform_tope_axioms(TopeSet(6, 3, alt63 - {min(alt63, key=SignedVector.order_key)}))
        assert short.missing == ()
        assert short.expected_count == 16 and short.actual_count == 15
        assert not short.passed


class TestPatternBytes:
    @pytest.mark.parametrize("n, r", [(4, 2), (6, 2), (5, 3), (6, 3), (8, 3), (5, 4), (7, 4)])
    def test_fields_agree_with_pattern_index(self, n, r):
        width = 1 << r
        subsets = list(combinations(range(1, n + 1), r + 1))
        for neg in range(1 << n):
            packed = pattern_bytes(neg, n, r)
            assert packed >> width * len(subsets) == 0
            for i, q in enumerate(subsets):
                assert packed >> width * i & (1 << width) - 1 == 1 << pattern_index(neg, q)

    def test_rank_four_fields_are_sixteen_bits(self):
        # element 5 negative puts pattern 8 on {1,...,5}: bit 8 of the first
        # field, which a byte-wide packing would lose into the next field
        neg = 0b010000
        assert pattern_index(neg, (1, 2, 3, 4, 5)) == 8
        fields = [8, 0, 4, 4, 4, 4]
        assert pattern_bytes(neg, 6, 4) == sum(1 << 16 * i + pid for i, pid in enumerate(fields))

    def test_hit_patterns_agree_with_pattern_index(self, alt64, swap6, alt84):
        for topes in (alt64, swap6, alt84):
            subsets = list(combinations(range(1, topes.n + 1), topes.r + 1))
            assert len(topes.hit_patterns) == len(subsets)
            for q, hit in zip(subsets, topes.hit_patterns):
                assert hit == sum({1 << pattern_index(t.neg, q) for t in topes.topes})


class TestCircuitOnSupport:
    def test_alternating_named_circuit(self, alt64):
        assert str(circuit_on_support(alt64, (1, 2, 3, 4, 5))) == "+-+-+0"

    def test_alternating_circuits_alternate(self, alt64, alt84):
        for ts in (alt64, alt84):
            for q in combinations(range(1, ts.n + 1), ts.r + 1):
                circuit = circuit_on_support(ts, q)
                signs = [circuit.sign(e) for e in q]
                assert signs == [(-1) ** i for i in range(len(q))]

    def test_circuits_perpendicular_to_all_covectors(self, alt64, swap6):
        for ts, chi in ((alt64, alternating_chirotope(6, 4)), (swap6, pair_swap_chirotope(6))):
            cov = covectors_of(chi)
            for q in combinations(range(1, ts.n + 1), ts.r + 1):
                circuit = circuit_on_support(ts, q)
                assert all(perpendicular(circuit, v) for v in cov)

    def test_no_admissible_pattern(self):
        # all 8 canonical full-support vectors on 4 elements hit every pattern
        everything = frozenset(
            SignedVector(4, 1 | (bits << 1), ((1 << 4) - 1) & ~(1 | (bits << 1)))
            for bits in range(8)
        )
        with pytest.raises(ValueError, match="no pattern"):
            circuit_on_support(TopeSet(4, 3, everything), (1, 2, 3, 4))

    def test_multiple_admissible_patterns(self):
        tiny = TopeSet(4, 3, frozenset({sv("++++")}))
        with pytest.raises(ValueError, match="patterns"):
            circuit_on_support(tiny, (1, 2, 3, 4))

    def test_wrong_support_size(self, alt64):
        with pytest.raises(ValueError):
            circuit_on_support(alt64, (1, 2, 3))
