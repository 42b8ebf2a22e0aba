"""Chirotopes of small oriented matroids and the sign-vector data derived from them.

The chirotope is the authoritative definition of every instance here; topes,
cocircuits and covectors are derived from it:

  chirotope --(per (r-1)-subset sign reads)--> cocircuits
  cocircuits --(conformal cover)--> topes, covectors

Two instance families are built directly: the alternating chirotope (all
ascending r-tuples positive, realized by points on the moment curve) and the
rank-2 chirotope induced by the permutation swapping adjacent pairs
(1 2)(3 4)..., realized by points on a line listed in swapped order.

Only uniform chirotopes are supported by the cocircuit reader; everything
downstream enumerates explicitly, so ground sets are expected to stay small
(n <= 8 for the shipped instances). Topes and covectors are built only from a
chirotope, whose fields fix the ground set and the rank. The size limits sit
in the command line, which refuses a large tope cover or covector axiom check
before building anything. Covectors are a plain frozenset of sign vectors;
the axiom check reads covector elimination off one index per separation set,
so its cost is quadratic in the covector count.

``Chirotope`` and ``TopeSet`` are immutable value types on
``signed_vector.Immutable``: a hand-written ``__init__`` runs the checks, and
equality, hashing and repr come from ``Immutable``'s key, the fields (taken up
to global sign for a chirotope). The axiom reports are records on the same
base, built by ``Immutable``'s constructor.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cache, cached_property
from itertools import combinations

from .signed_vector import Immutable, SignedVector, increasing_subset

# cap on stored axiom violations; counts past the cap are not recorded
_VIOLATION_CAP = 32


def phi(r: int, n: int) -> int:
    """Partial binomial sum: number of subsets of an n-set of size at most r."""
    if r < 0 or n < 0 or r > n:
        raise ValueError(f"phi requires 0 <= r <= n, got r={r}, n={n}")
    return sum(math.comb(n, i) for i in range(r + 1))


def canonical_tope_count(n: int, r: int) -> int:
    """Expected number of canonical topes of a rank-r oriented matroid on n elements."""
    return phi(r - 1, n - 1)


def uniform_covector_count(n: int, r: int) -> int:
    """Number of covectors of a uniform rank-r oriented matroid on n elements:
    a nonzero covector with j zeros picks a j-subset and a tope of the
    contraction by it, both signs."""
    return 1 + sum(math.comb(n, j) * 2 * phi(r - j - 1, n - j - 1) for j in range(r))


@cache
def subset_ranks(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Lexicographic rank of every sorted k-subset of 1..n, one table per (n, k)."""
    return {q: i for i, q in enumerate(combinations(range(1, n + 1), k))}


class Chirotope(Immutable):
    """Rank-r alternating sign map, stored on sorted r-subsets in lex order.

    ``values[i]`` is the sign of the i-th sorted r-subset of 1..n, read by
    ``value_sorted``. A chirotope and its global negation denote the same
    oriented matroid, so the key that ``Immutable``'s equality and hash read
    negates the values when the first nonzero one is negative.
    """

    __slots__ = ("n", "r", "values")
    _fields = __slots__

    def __init__(self, n: int, r: int, values: tuple[int, ...]) -> None:
        if not 1 <= r <= n:
            raise ValueError(f"rank must be within 1..{n}, got {r}")
        expected = math.comb(n, r)
        if len(values) != expected:
            raise ValueError(f"expected {expected} stored values, got {len(values)}")
        if any(v not in (-1, 0, 1) for v in values):
            raise ValueError("chirotope values must lie in {-1, 0, 1}")
        if not any(values):
            raise ValueError("chirotope must not be identically zero")
        self._set_fields(n, r, values)

    def _key(self) -> tuple:
        values = self.values
        if next(v for v in values if v) < 0:
            values = tuple(-v for v in values)
        return self.n, self.r, values

    def value_sorted(self, tup: tuple[int, ...]) -> int:
        """Stored sign of a strictly increasing r-tuple."""
        return self.values[subset_ranks(self.n, self.r)[tup]]

    def is_uniform(self) -> bool:
        return all(v != 0 for v in self.values)

    # ------------------------------------------------------------------
    # minors
    # ------------------------------------------------------------------

    def restrict(self, keep: tuple[int, ...] | list[int]) -> Chirotope:
        """Deletion of everything outside ``keep``, relabeled to 1..len(keep).

        The rank must survive: some r-subset of ``keep`` must carry a nonzero
        sign, otherwise the restriction is rejected.
        """
        keep = increasing_subset(keep, self.n, "keep")
        if len(keep) < self.r:
            raise ValueError(f"cannot keep {len(keep)} elements at rank {self.r}")
        vals = tuple(
            self.value_sorted(tuple(keep[i - 1] for i in combo))
            for combo in combinations(range(1, len(keep) + 1), self.r)
        )
        if not any(vals):
            raise ValueError(f"restriction to {keep} drops the rank below {self.r}")
        return Chirotope(len(keep), self.r, vals)

    # ------------------------------------------------------------------
    # cocircuits
    # ------------------------------------------------------------------

    def cocircuits(self) -> frozenset[SignedVector]:
        """Canonical cocircuits, one per (r-1)-subset: sign at e is the chirotope
        value on the subset with e appended. Uniform chirotopes only.

        ``z`` is sorted, so that value is the stored sign of ``z`` with ``e``
        inserted in order, negated when an odd number of elements of ``z``
        lie above ``e``.
        """
        if not self.is_uniform():
            raise ValueError("cocircuit extraction supports uniform chirotopes only")
        out = set()
        values, rank = self.values, subset_ranks(self.n, self.r)
        elements = range(1, self.n + 1)
        for z in combinations(elements, self.r - 1):
            pos = neg = 0
            below = 0  # elements of z below e
            for e in elements:
                if below < len(z) and z[below] == e:
                    below += 1
                    continue
                s = values[rank[z[:below] + (e,) + z[below:]]] * (-1) ** (len(z) - below)
                if s > 0:
                    pos |= 1 << (e - 1)
                elif s < 0:
                    neg |= 1 << (e - 1)
            out.add(SignedVector(self.n, pos, neg).canonical())
        return frozenset(out)


def alternating_chirotope(n: int, r: int) -> Chirotope:
    """All ascending r-tuples positive; realized by n points on the moment curve."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must be within 1..{n}, got {r}")
    return Chirotope(n, r, (1,) * math.comb(n, r))


def pair_swap_chirotope(n: int) -> Chirotope:
    """Rank-2 chirotope of points on a line listed in pair-swapped order.

    With s the permutation (1 2)(3 4)...(n-1 n), the sign of (i, j) for
    i < j is +1 iff s(i) > s(j). Requires even n.
    """
    if n < 2 or n % 2:
        raise ValueError(f"pair-swap instance needs even n >= 2, got {n}")
    swap = {e: e + 1 if e % 2 else e - 1 for e in range(1, n + 1)}
    vals = tuple(
        1 if swap[i] > swap[j] else -1
        for i, j in combinations(range(1, n + 1), 2)
    )
    return Chirotope(n, 2, vals)


# ----------------------------------------------------------------------
# tope and covector sets
# ----------------------------------------------------------------------


@cache
def _pattern_slots(n: int, r: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Bit-sliced subset table for ``pattern_bytes``: ``slots[k][e - 1]``
    has the lowest bit of the field of every (r+1)-subset whose k-th element
    is e, and ``low`` has the lowest bit of every field."""
    width = (1 << r) + 1
    slots = [[0] * n for _ in range(r + 1)]
    low = 0
    for i, q in enumerate(combinations(range(1, n + 1), r + 1)):
        low |= 1 << width * i
        for k, e in enumerate(q):
            slots[k][e - 1] |= 1 << width * i
    return tuple(map(tuple, slots)), low


@cache
def pattern_bytes(neg: int, n: int, r: int) -> int:
    """Packed pattern fields of a full-support vector on 1..n, from its
    negative mask: one field per (r+1)-subset Q in lexicographic order, of
    2**r pattern bits holding the single bit of the vector's canonical
    pattern on Q, under one guard bit kept at 0, so 2**r + 1 bits in all.
    That pattern's index normalizes the sign at the least element of Q to
    '+' and sets bit j-1 when the j-th further element then reads '-';
    ``_pattern_vector`` is the inverse. So on (1, 2, 3), '++-' is 2 and
    '+-+' is 1, and the all-plus vector (``neg`` 0) has bit 0 of every field.

    ORing the fields of several vectors gives, field by field, the set of
    canonical patterns their restrictions produce, and the guards stay 0.
    So adding the all-plus vector's fields carries into a guard exactly
    where all 2**r patterns are hit, and never across a field: one add
    tests every field (Warren, *Hacker's Delight*, ch. 6). Cached per
    (neg, n, r): a tope's fields are built once per process.

    All fields are built at once, bit-sliced: ``v[k]`` has the lowest bit of
    each field whose subset's k-th element is negative, so ``v[k] ^ v[0]``
    marks the fields where bit k-1 of the pattern index is set. Starting from
    bit 0 in every field, each such k moves the field's one bit up by
    2**(k-1), which stays below the field's guard because the index so far
    is below 2**(k-1).
    """
    slots, low = _pattern_slots(n, r)
    negative = [e for e in range(n) if neg >> e & 1]
    v = [0] * (r + 1)
    for k, slot in enumerate(slots):
        for e in negative:
            v[k] |= slot[e]
    fill = (1 << (1 << r)) - 1
    packed = low
    for k in range(1, r + 1):
        moved = (v[k] ^ v[0]) * fill
        packed ^= (packed ^ packed << (1 << k - 1)) & moved
    return packed


class TopeSet(Immutable):
    """Canonical full-support covectors of an oriented matroid, with (n, r) metadata.

    The key is (n, r, topes). ``hit_patterns`` is derived from the topes and
    cached on first use: for every (r+1)-subset Q in lexicographic order, a
    bitmask of the canonical patterns (numbered as in ``pattern_bytes``) that
    the topes' restrictions to Q produce. It is the OR of the topes'
    ``pattern_bytes``, split back into one entry per Q without its guard
    bit. Every axiom and circuit check reads it. It is not a field, so
    neither equality nor the certificate bytes read it. The sorted topes, ``ordered``, and their
    ``strings`` are cached the same way; the caches live in the instance
    ``__dict__``, which ``cached_property`` writes directly.
    """

    _fields = ("n", "r", "topes")

    def __init__(self, n: int, r: int, topes: frozenset[SignedVector]) -> None:
        if not 1 <= r <= n:
            raise ValueError(f"rank must be within 1..{n}, got {r}")
        for t in topes:
            if t.n != n:
                raise ValueError(f"tope {t} lives on {t.n} elements, expected {n}")
            if not t.has_full_support():
                raise ValueError(f"tope {t} lacks full support")
            if not t.is_canonical():
                raise ValueError(f"tope {t} is not canonical")
        self._set_fields(n, r, topes)

    def __len__(self) -> int:
        return len(self.topes)

    @cached_property
    def ordered(self) -> tuple[SignedVector, ...]:
        return tuple(sorted(self.topes, key=SignedVector.order_key))

    @cached_property
    def strings(self) -> tuple[str, ...]:
        return tuple(str(t) for t in self.ordered)

    @cached_property
    def hit_patterns(self) -> tuple[int, ...]:
        packed = 0
        for t in self.topes:
            packed |= pattern_bytes(t.neg, self.n, self.r)
        width = (1 << self.r) + 1
        ones = (1 << width - 1) - 1
        count = math.comb(self.n, self.r + 1)
        return tuple(packed >> (width * i) & ones for i in range(count))


def topes_of(chi: Chirotope) -> TopeSet:
    """Tope set of a uniform chirotope: the full-support vectors covered by
    their conformal cocircuits.

    Every covector of an oriented matroid is the composition of the
    cocircuits conformal to it (conformal decomposition, dualized: Björner,
    Las Vergnas, Sturmfels, White & Ziegler, *Oriented Matroids*, §3.7). So a
    full-support X is a tope exactly when the supports of the signed
    cocircuits that agree with X on their support cover the ground set. Each
    signed cocircuit ORs its support into the cover of every canonical
    completion of its zero set; the topes are the completions covered
    everywhere. A rank-r chirotope on n elements has C(n, r-1) cocircuits,
    each with r-1 zeros, so the cover visits C(n, r-1) * 2**(r-1) completions.
    """
    n, full = chi.n, (1 << chi.n) - 1
    cover: dict[int, int] = {}  # positive mask of a canonical completion -> covered elements
    for c in chi.cocircuits():
        for cp, cn in ((c.pos, c.neg), (c.neg, c.pos)):
            if cn & 1:
                continue  # every completion is negative at element 1, so not canonical
            support = cp | cn
            zero = full & ~support
            free = zero & ~1  # element 1 stays positive
            base = cp | (zero & 1)
            neg = free
            while True:  # every subset of the free elements as the negative part
                pos = base | (free & ~neg)
                cover[pos] = cover.get(pos, 0) | support
                if not neg:
                    break
                neg = (neg - 1) & free
    topes = frozenset(
        SignedVector(n, pos, full & ~pos) for pos, covered in cover.items() if covered == full
    )
    return TopeSet(n, chi.r, topes)


def covectors_of(chi: Chirotope) -> frozenset[SignedVector]:
    """Covectors of a uniform chirotope: by conformal decomposition (see
    ``topes_of``), X is a covector exactly when the signed
    cocircuits conformal to X cover its support. Each signed cocircuit ORs its
    support into the cover of its 3**(r-1) conformal extensions, with +, - or
    0 on each of its zeros; the covectors are the zero vector and the
    extensions whose cover is their support."""
    n, full = chi.n, (1 << chi.n) - 1
    cover: dict[int, int] = {}  # pos | neg << n -> covered elements
    for c in chi.cocircuits():
        for cp, cn in ((c.pos, c.neg), (c.neg, c.pos)):
            keys = [cp | cn << n]
            for bit in (1 << e for e in range(n) if not (cp | cn) >> e & 1):
                keys += [k | bit for k in keys] + [k | bit << n for k in keys]
            for k in keys:
                cover[k] = cover.get(k, 0) | cp | cn
    covectors = {SignedVector(n, k & full, k >> n) for k, hit in cover.items() if hit == (k & full) | k >> n}
    return frozenset(covectors | {SignedVector(n, 0, 0)})


def is_covector(x: SignedVector, cocircuits: Iterable[SignedVector]) -> bool:
    """Whether ``x`` is a covector by the test of ``covectors_of``: the canonical
    ``cocircuits``, taken with either sign, that conform to ``x`` cover its support."""
    xp, xn, covered = x.pos, x.neg, 0
    for c in cocircuits:
        cp, cn = c.pos, c.neg
        if not (cp & ~xp or cn & ~xn) or not (cn & ~xp or cp & ~xn):
            covered |= cp | cn
    return covered == xp | xn


# ----------------------------------------------------------------------
# axiom checkers
# ----------------------------------------------------------------------


class CovectorAxiomReport(Immutable):
    """Outcome of checking the four covector axioms on a set of sign vectors."""

    __slots__ = _fields = (
        "vector_count", "has_zero", "opposite_violations", "composition_violations", "elimination_violations"
    )

    vector_count: int
    has_zero: bool
    opposite_violations: tuple[SignedVector, ...]
    composition_violations: tuple[tuple[SignedVector, SignedVector], ...]
    elimination_violations: tuple[tuple[SignedVector, SignedVector, int], ...]

    @property
    def passed(self) -> bool:
        return (
            self.has_zero
            and not self.opposite_violations
            and not self.composition_violations
            and not self.elimination_violations
        )


def check_covector_axioms(covectors: Iterable[SignedVector]) -> CovectorAxiomReport:
    """Check: zero present; closed under opposite; closed under composition;
    covector elimination. Violations are report content, not exceptions.

    Elimination asks, for members X, Y and each e in their separation set S,
    for a member Z with Z(e) = 0 that agrees with X o Y outside S. So for
    each S met, an index built on first use maps a member's signs outside S
    to the OR of the elements of S where some member with those signs is 0;
    it holds only members with a zero in S. A pair then reads one entry, and
    each element of S missing from it is a violation.
    """
    vecs = list(covectors)
    if not vecs:
        raise ValueError("empty input")
    n = vecs[0].n
    for v in vecs:
        if v.n != n:
            raise ValueError("mixed ground sets")
    pairs = {(v.pos, v.neg) for v in vecs}
    pair_list = sorted(pairs)

    has_zero = (0, 0) in pairs
    opp_viol = [
        SignedVector(n, p, m) for p, m in pair_list if (m, p) not in pairs
    ][:_VIOLATION_CAP]

    comp_viol: list[tuple[SignedVector, SignedVector]] = []
    elim_viol: list[tuple[SignedVector, SignedVector, int]] = []
    zeros_in: dict[int, dict[int, int]] = {}  # S -> (signs outside S, pos | neg << n) -> zeros in S

    for xp, xn in pair_list:
        xsupp = xp | xn
        for yp, yn in pair_list:
            free = ~xsupp
            wp = xp | (yp & free)
            wn = xn | (yn & free)
            if (wp, wn) not in pairs and len(comp_viol) < _VIOLATION_CAP:
                comp_viol.append((SignedVector(n, xp, xn), SignedVector(n, yp, yn)))
            smask = (xp & yn) | (xn & yp)
            if not smask:
                continue
            index = zeros_in.get(smask)
            if index is None:
                index = zeros_in[smask] = {}
                for zp, zn in pair_list:
                    zeros = smask & ~(zp | zn)
                    if zeros:
                        key = (zp & ~smask) | (zn & ~smask) << n
                        index[key] = index.get(key, 0) | zeros
            missing = smask & ~index.get((wp & ~smask) | (wn & ~smask) << n, 0)
            while missing and len(elim_viol) < _VIOLATION_CAP:
                ebit = missing & -missing
                missing ^= ebit
                elim_viol.append((SignedVector(n, xp, xn), SignedVector(n, yp, yn), ebit.bit_length()))
    return CovectorAxiomReport(
        vector_count=len(pairs),
        has_zero=has_zero,
        opposite_violations=tuple(opp_viol),
        composition_violations=tuple(comp_viol),
        elimination_violations=tuple(elim_viol),
    )


class UniformTopeReport(Immutable):
    """Outcome of checking the uniform tope-set axioms (count plus, for every
    (r+1)-subset Q, a full pattern on Q avoided by every tope restriction)."""

    __slots__ = _fields = ("expected_count", "actual_count", "witnesses", "missing")

    expected_count: int
    actual_count: int
    witnesses: tuple[tuple[tuple[int, ...], SignedVector], ...]
    missing: tuple[tuple[int, ...], ...]

    @property
    def passed(self) -> bool:
        return self.expected_count == self.actual_count and not self.missing


@cache
def _pattern_vector(n: int, subset: tuple[int, ...], pid: int) -> SignedVector:
    """The pid-th canonical full pattern supported exactly on ``subset``.

    Cached: a survivor's axiom witness and its circuit on a 4-subset are the
    same pattern, so the record builds each vector once."""
    pos = 1 << (subset[0] - 1)
    neg = 0
    for j in range(1, len(subset)):
        bit = 1 << (subset[j] - 1)
        if pid >> (j - 1) & 1:
            neg |= bit
        else:
            pos |= bit
    return SignedVector(n, pos, neg)


def check_uniform_tope_axioms(topes: TopeSet) -> UniformTopeReport:
    """Check the canonical tope count and the per-(r+1)-subset avoided pattern.

    For full-support topes, a pattern supported on Q is perpendicular to a
    tope exactly when the tope's restriction to Q differs from both the
    pattern and its opposite, so each Q is checked against the set of
    canonical restriction patterns its topes produce (the set's
    ``hit_patterns``). The avoided pattern of least index is recorded as
    the witness.
    """
    expected = canonical_tope_count(topes.n, topes.r)
    every = (1 << (1 << topes.r)) - 1  # all 2**(|Q|-1) canonical patterns per (r+1)-subset
    witnesses = []
    missing = []
    subsets = combinations(range(1, topes.n + 1), topes.r + 1)
    for q, hit in zip(subsets, topes.hit_patterns):
        avoided = every & ~hit
        if avoided:
            wid = (avoided & -avoided).bit_length() - 1
            witnesses.append((q, _pattern_vector(topes.n, q, wid)))
        else:
            missing.append(q)
    return UniformTopeReport(
        expected_count=expected,
        actual_count=len(topes),
        witnesses=tuple(witnesses),
        missing=tuple(missing),
    )


def circuit_table(topes: TopeSet) -> tuple[SignedVector | None, ...]:
    """The circuit on every (r+1)-subset in lexicographic order, read off
    ``hit_patterns``: the one canonical pattern every tope avoids there, or
    None where zero or several patterns are avoided."""
    every = (1 << (1 << topes.r)) - 1
    table: list[SignedVector | None] = []
    subsets = combinations(range(1, topes.n + 1), topes.r + 1)
    for q, hit in zip(subsets, topes.hit_patterns):
        avoided = every & ~hit
        if avoided and not avoided & (avoided - 1):
            table.append(_pattern_vector(topes.n, q, avoided.bit_length() - 1))
        else:
            table.append(None)
    return tuple(table)


def circuit_on_support(topes: TopeSet, subset: tuple[int, ...] | list[int]) -> SignedVector:
    """The unique canonical pattern supported exactly on an (r+1)-subset that
    every tope is perpendicular to; this is the circuit carried by that support.

    Raises if no pattern or more than one pattern qualifies (either means the
    input is not the tope set of a uniform oriented matroid at this rank).
    """
    q = increasing_subset(subset, topes.n, "support")
    if len(q) != topes.r + 1:
        raise ValueError(f"support size must be rank+1 = {topes.r + 1}, got {len(q)}")
    hit = topes.hit_patterns[subset_ranks(topes.n, len(q))[q]]
    avoided = ((1 << (1 << topes.r)) - 1) & ~hit
    if not avoided:
        raise ValueError(f"no pattern on {q} avoids every tope; not a uniform tope set")
    if avoided & (avoided - 1):
        raise ValueError(f"{avoided.bit_count()} patterns on {q} avoid every tope; rank or count metadata is wrong")
    return _pattern_vector(topes.n, q, avoided.bit_length() - 1)
