from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omcert.signed_vector import SignedVector, sign_string_key
from reference import compose, conforms, full_support_extensions, perpendicular, restrict

sv = SignedVector.parse


def all_vectors(n):
    """Every sign vector on n elements."""
    for signs in product("+-0", repeat=n):
        yield sv("".join(signs))


@st.composite
def vector_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    full = (1 << n) - 1

    def one():
        pos = draw(st.integers(0, full))
        neg = draw(st.integers(0, full)) & ~pos
        return SignedVector(n, pos, neg)

    return one(), one()


class TestParse:
    def test_positive_negative_split(self):
        x = sv("+-+-00")
        assert x.support_mask == 0b001111
        assert x.sign(1) == 1 and x.sign(2) == -1 and x.sign(3) == 1 and x.sign(4) == -1
        assert x.sign(5) == 0 and x.sign(6) == 0

    def test_zero_vector(self):
        assert sv("000000") == SignedVector(6, 0, 0)

    def test_all_plus(self):
        x = sv("++++++")
        assert x == SignedVector(6, 0b111111, 0)
        assert x.has_full_support()

    def test_illegal_character(self):
        with pytest.raises(ValueError):
            sv("+x-")

    def test_inferred_length_round_trips(self):
        for text in ("+", "0-+", "+-+-00"):
            assert str(sv(text)) == text


class TestOpposite:
    def test_examples(self):
        assert str(sv("+-+-00").opposite()) == "-+-+00"
        assert SignedVector(6, 0, 0).opposite() == SignedVector(6, 0, 0)
        assert str(sv("++++++").opposite()) == "------"

    def test_involution(self):
        for x in all_vectors(3):
            assert x.opposite().opposite() == x


class TestCanonical:
    def test_examples(self):
        assert str(sv("-+-+00").canonical()) == "+-+-00"
        assert str(sv("+-0000").canonical()) == "+-0000"
        assert str(sv("0-+000").canonical()) == "0+-000"

    def test_idempotent_and_in_pair(self):
        for x in all_vectors(3):
            c = x.canonical()
            assert c.canonical() == c
            assert c in (x, x.opposite())
            assert c.is_canonical()


# compose, conforms, perpendicular and full_support_extensions are the
# reference definitions in tests/reference.py that the oracles build on


class TestCompose:
    def test_examples(self):
        assert str(compose(sv("+0-0"), sv("-+0-"))) == "++--"
        y = sv("-+0-")
        assert compose(SignedVector(4, 0, 0), y) == y
        assert str(compose(sv("+-+-00"), sv("0000+-"))) == "+-+-+-"

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            compose(sv("+-"), sv("+-0"))

    def test_associative_exhaustive(self):
        vecs = list(all_vectors(3))
        for x in vecs:
            for y in vecs:
                xy = compose(x, y)
                for z in vecs:
                    assert compose(xy, z) == compose(x, compose(y, z))

    def test_left_idempotent_exhaustive(self):
        vecs = list(all_vectors(4))
        for x in vecs:
            for y in vecs:
                xy = compose(x, y)
                assert compose(x, xy) == xy

    @given(vector_pairs())
    def test_support_grows(self, pair):
        x, y = pair
        z = compose(x, y)
        assert z.support_mask == x.support_mask | y.support_mask
        assert conforms(x, z)


class TestConforms:
    def test_examples(self):
        assert conforms(sv("+-0000"), sv("+-+-00"))
        assert not conforms(sv("+-+-00"), sv("+-0000"))
        for y in ("+-+-00", "000000", "------"):
            assert conforms(SignedVector(6, 0, 0), sv(y))

    def test_matches_subset_definition(self):
        for x in all_vectors(3):
            for y in all_vectors(3):
                expected = all(x.sign(e) in (0, y.sign(e)) for e in range(1, 4))
                assert conforms(x, y) == expected


class TestPerpendicular:
    def test_examples(self):
        assert perpendicular(sv("++00"), sv("+-00"))
        assert not perpendicular(sv("+-00"), sv("+-++"))
        assert perpendicular(sv("+000"), sv("0+00"))

    def test_symmetry_and_sign_invariance_exhaustive(self):
        vecs = list(all_vectors(3))
        for x in vecs:
            for y in vecs:
                p = perpendicular(x, y)
                assert p == perpendicular(y, x)
                assert p == perpendicular(x, y.opposite())

    @given(vector_pairs())
    def test_symmetry_random(self, pair):
        x, y = pair
        assert perpendicular(x, y) == perpendicular(y, x) == perpendicular(x.opposite(), y)


class TestRestrict:
    def test_examples(self):
        assert str(restrict(sv("+-+-00"), (1, 2, 5, 6))) == "+-00"
        assert str(restrict(sv("+-00-+00"), (1, 2, 3, 4, 5, 6))) == "+-00-+"
        assert str(restrict(sv("+-00-+00"), (1, 2, 5, 6, 7, 8))) == "+--+00"

    def test_bad_keep(self):
        x = sv("+-+-00")
        with pytest.raises(ValueError):
            restrict(x, ())
        with pytest.raises(ValueError):
            restrict(x, (2, 1))
        with pytest.raises(ValueError):
            restrict(x, (1, 7))

    def test_nested_restriction_all_keep_pairs(self):
        # every nested pair of keep sets: on all 243 vectors at n = 5 (211
        # pairs), and at n = 6 (665 pairs) on the three constant vectors and
        # a sample drawn once with random.Random(665)
        sample6 = (
            "0+-0-- 0-0--- +00-00 0+-+0+ -0-00- --0+0+ +00-0- 0++0+0 -++0+0 +-++-+"
            " -0--+0 0-000- 00+0-- 00+0-+ -++0++ +0++-- +0-0+0 +-+0++ +-0+00 0-0+0-"
            " 0--0-0 0000-0 0+++00 ---0-+ 0++0-+ -+0--- +-0-+- 0--0+- +0++00"
        ).split()
        for n, vectors in (
            (5, list(all_vectors(5))),
            (6, [sv(s) for s in ("++++++", "------", "000000", *sample6)]),
        ):
            pairs = {}  # keep_a -> [(keep_b, the composed keep set)]
            for a_size in range(1, n + 1):
                for keep_a in combinations(range(1, n + 1), a_size):
                    pairs[keep_a] = [
                        (keep_b, tuple(keep_a[j - 1] for j in keep_b))
                        for b_size in range(1, a_size + 1)
                        for keep_b in combinations(range(1, a_size + 1), b_size)
                    ]
            assert sum(map(len, pairs.values())) == {5: 211, 6: 665}[n]
            for x in vectors:
                for keep_a, nested in pairs.items():
                    y = restrict(x, keep_a)
                    # the identity alone holds for any map applied sign by
                    # sign, so each restriction is also read against x
                    assert [y.sign(j) for j in range(1, len(keep_a) + 1)] == [x.sign(e) for e in keep_a]
                    for keep_b, composed in nested:
                        assert restrict(y, keep_b) == restrict(x, composed)


class TestFullSupportExtensions:
    def test_examples(self):
        exts = full_support_extensions(sv("+-+-00"))
        assert {str(e) for e in exts} == {"+-+-++", "+-+-+-", "+-+--+", "+-+---"}
        full = sv("+-+-")
        assert full_support_extensions(full) == {full}
        assert len(full_support_extensions(SignedVector(2, 0, 0))) == 4

    def test_guard_on_too_many_free_positions(self):
        with pytest.raises(ValueError):
            full_support_extensions(SignedVector(22, 0, 0))


class TestPerpRestrictionEquivalence:
    def test_exhaustive_n6(self):
        n = 6
        nonzero = [c for c in all_vectors(n) if c.support_mask]
        topes = [x for x in all_vectors(n) if x.has_full_support()]
        for c in nonzero:
            keep = tuple(e for e in range(1, n + 1) if c.sign(e))
            cr = restrict(c, keep)
            for t in topes:
                expected = restrict(t, keep) not in (cr, cr.opposite())
                assert perpendicular(t, c) == expected


def test_sign_string_order():
    ordered = sorted(["0+", "-+", "++", "+-", "+0"], key=sign_string_key)
    assert ordered == ["++", "+-", "+0", "-+", "0+"]


def test_invalid_construction():
    with pytest.raises(ValueError):
        SignedVector(2, 0b01, 0b01)
    with pytest.raises(ValueError):
        SignedVector(2, 0b100, 0)
    with pytest.raises(ValueError):
        SignedVector(0, 0, 0)
    with pytest.raises(ValueError):
        SignedVector(33, 0, 0)
