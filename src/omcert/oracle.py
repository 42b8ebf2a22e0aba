"""Stage A: the n=8 claim decided over rank-3 chirotopes.

The claim: no uniform rank-3 oriented matroid on [8] has a tope set lying
between the topes of the rank-2 pair-swap instance and those of the rank-4
alternating instance. ``search``'s kernel decides such questions over tope
sets; this module decides them over sign maps, and shares none of the
kernel's code. What it shares with the rest of the library is
``matroid.Chirotope``, the type of its leaves, ``matroid.topes_of``, which
re-checks every leaf, ``canonical_tope_count``, the instance constructors
``alternating_chirotope`` and ``pair_swap_chirotope``, and the record base
``Immutable``.

The local tests are exact:

- A uniform sign map on the 3-subsets of [n], extended by alternation, is a
  chirotope exactly when it satisfies the 3-term Grassmann-Plücker relations
  (Björner, Las Vergnas, Sturmfels, White & Ziegler, *Oriented Matroids*,
  §3.5-3.6). Each relation involves five elements, so a map is a chirotope
  exactly when its restriction to every 5-subset is one of the 384 maps on
  [5] that satisfy them (``local_table``, built from the relations on the
  first call).
- A full-support vector is a tope exactly when it avoids ±the circuit on
  every 4-subset, and the circuit on a 4-subset is read off the map there.
  So ``target ⊆ T(χ)`` holds exactly when ``target|S ⊆ T(χ|S)`` on every
  5-subset S.
- The alternating source's topes are the vectors with at most 3 sign
  changes. A vector with 4 or more shows 4 on some 5-subset, and every tope
  of a restriction extends to a tope, so ``T(χ) ⊆ source`` holds exactly
  when ``T(χ|S) ⊆ source|S`` on every S. For any other source the test is
  only necessary, and the leaf re-check decides.

The search backtracks over the 3-subsets in colex order, with χ(1,2,3) = +
(χ and -χ are one oriented matroid). Each 5-subset S holds one int bitset
over the table: the maps inside S's sandwich that agree with every sign
assigned so far. A node is one sign tried on one triple: it ANDs the
bitsets of the C(n-3, 2) subsets that hold the triple with the maps carrying
that sign there, and it is pruned when one of them becomes empty. At a leaf
every bitset holds exactly one map, so the leaf is a chirotope inside the
sandwich; ``topes_of`` re-checks it globally. alt(8,4) → m2(8) has no leaf,
in 7,785 nodes.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations

from .matroid import (
    Chirotope,
    TopeSet,
    alternating_chirotope,
    canonical_tope_count,
    pair_swap_chirotope,
    topes_of,
)
from .signed_vector import Immutable, SignedVector

RANK = 3
# the 3-subsets of [5] (0-based) in colex order; a sign map on them is a
# 10-bit code whose bit k is set when the k-th is negative
LOCAL_TRIPLES = tuple(sorted(combinations(range(5), RANK), key=lambda t: t[::-1]))
CODES = 1 << len(LOCAL_TRIPLES)
EVERY = (1 << CODES) - 1  # every code, as a set: bit m is code m


@cache
def local_table() -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The 5-point table, each entry a set of codes as an int over ``EVERY``:
    the codes that satisfy the 3-term Grassmann-Plücker relations, per local
    triple the codes negative there, and per canonical vector on [5] the
    codes it is a tope of. Every entry is computed for all codes at once.

    For each element a and the other four b1 < b2 < b3 < b4, the relation
    asks that χ(a,b1,b2)χ(a,b3,b4), -χ(a,b1,b3)χ(a,b2,b4) and
    χ(a,b1,b4)χ(a,b2,b3) are not all one sign. χ(a,x,y) with x < y is the
    stored sign of the sorted triple, negated once for each of x, y below a.

    A full-support vector is a tope exactly when it is ±the circuit on no
    4-subset. The circuit on q0 < q1 < q2 < q3 has sign (-1)**i χ(Q - q_i)
    at q_i. Vector v (0..15) is the canonical vector whose elements 2..5 are
    negative where v's bits are; on a 4-subset it and a circuit are compared
    by their patterns, bit i-1 set where element i's sign differs from
    element 0's.
    """
    position = {t: k for k, t in enumerate(LOCAL_TRIPLES)}
    negative = tuple(
        # runs of 2**k codes with bit k clear, then 2**k with it set
        sum(((1 << (1 << k)) - 1) << (1 << k) << (j << k + 1) for j in range(CODES >> k + 1))
        for k in range(len(LOCAL_TRIPLES))
    )

    def sign(odd: int, *triples: tuple[int, ...]) -> int:
        """The codes where the product of the triples' signs, negated when
        ``odd``, is negative."""
        out = EVERY if odd else 0
        for t in triples:
            out ^= negative[position[tuple(sorted(t))]] ^ (EVERY if (t[1] < t[0]) ^ (t[2] < t[0]) else 0)
        return out

    violated = 0
    for a in range(5):
        b1, b2, b3, b4 = (b for b in range(5) if b != a)
        x = sign(0, (a, b1, b2), (a, b3, b4))
        y = sign(1, (a, b1, b3), (a, b2, b4))
        z = sign(0, (a, b1, b4), (a, b2, b3))
        violated |= EVERY & ~(x ^ y) & ~(y ^ z)

    hidden = [0] * 16
    for quad in combinations(range(5), 4):
        circuit = [
            negative[position[tuple(e for e in quad if e != d)]] ^ (EVERY if i & 1 else 0)
            for i, d in enumerate(quad)
        ]
        differs = [c ^ circuit[0] for c in circuit[1:]]
        for v in range(16):
            neg = v << 1
            same = EVERY
            for i, e in enumerate(quad[1:]):
                same &= differs[i] ^ (0 if neg >> e & 1 ^ neg >> quad[0] & 1 else EVERY)
            hidden[v] |= same
    return EVERY & ~violated, negative, tuple(EVERY & ~h for h in hidden)


def _restricted_topes(topes: TopeSet, subset: tuple[int, ...]) -> int:
    """The canonical restrictions of ``topes`` to a 5-subset (0-based), as a
    16-bit mask over the vectors numbered as in ``local_table``."""
    out, mask = 0, sum(1 << e for e in subset)
    for neg in {t.neg & mask for t in topes.topes}:
        code = sum((neg >> e & 1) << j for j, e in enumerate(subset))
        out |= 1 << ((code ^ 0b11111 if code & 1 else code) >> 1)
    return out


class OracleRun(Immutable):
    """What one stage-A run found and counted."""

    __slots__ = _fields = ("leaves", "nodes", "exhausted")

    leaves: tuple[Chirotope, ...]  # chirotopes inside the sandwich, each re-checked
    nodes: int  # (triple, sign) pairs tried
    exhausted: bool  # the node budget ran out before the search finished


def sandwich_search(source: TopeSet, target: TopeSet, budget: int | None = None) -> OracleRun:
    """Every uniform rank-3 chirotope χ on [n] with χ(1,2,3) = + and
    ``target ⊆ T(χ) ⊆ source``, by forward checking over 5-point tables.

    ``budget`` caps the nodes tried; a run that reaches it stops with
    ``exhausted`` set. Each leaf's ``topes_of`` must lie between the two
    sets and have the uniform count, or ``RuntimeError`` is raised: the
    local tests are exact, so a failure there is a bug in them.
    """
    n = source.n
    chirotopes, negative, holds = local_table()
    triples = sorted(combinations(range(n), RANK), key=lambda t: t[::-1])
    index = {t: i for i, t in enumerate(triples)}
    signed = [(EVERY ^ m, m) for m in negative]  # per local triple, the codes + there, - there
    # candidates[s]: the codes inside subset s's sandwich; moves[t][bit]: for
    # each subset s holding triple t, (s, the codes with that sign there)
    candidates, moves = [], [([], []) for _ in triples]
    for s, subset in enumerate(combinations(range(n), 5)):
        low, high = _restricted_topes(target, subset), _restricted_topes(source, subset)
        c = chirotopes
        for v in range(16):
            if low >> v & 1:
                c &= holds[v]
            elif not high >> v & 1:
                c &= ~holds[v]
        candidates.append(c)
        for k, local in enumerate(LOCAL_TRIPLES):
            move = moves[index[tuple(subset[j] for j in local)]]
            for bit in (0, 1):
                move[bit].append((s, signed[k][bit]))

    limit = math.inf if budget is None else budget
    signs = [0] * len(triples)
    leaves: list[Chirotope] = []
    nodes = 0

    def descend(depth: int, bitsets: list[int]) -> bool:
        """Try each sign of triple ``depth`` on a copy of the bitsets; False
        once the budget runs out."""
        nonlocal nodes
        if depth == len(triples):
            sign = dict(zip(triples, signs))
            values = tuple(-1 if sign[t] else 1 for t in combinations(range(n), RANK))
            leaves.append(Chirotope(n, RANK, values))
            return True
        for bit in (0,) if depth == 0 else (0, 1):
            if nodes == limit:
                return False
            nodes += 1
            child = bitsets[:]
            for s, mask in moves[depth][bit]:
                c = child[s] & mask
                if not c:
                    break
                child[s] = c
            else:
                signs[depth] = bit
                if not descend(depth + 1, child):
                    return False
        return True

    exhausted = not descend(0, candidates)
    for chi in leaves:
        topes = topes_of(chi)
        if not target.topes <= topes.topes <= source.topes or len(topes) != canonical_tope_count(n, RANK):
            raise RuntimeError(f"leaf {chi.values} fails the global re-check; a local test is wrong")
    return OracleRun(tuple(leaves), nodes, exhausted)


class DirectSearchOutcome(Immutable):
    """Result of the budgeted stage-A search for an n=8 intermediate.

    status is "none-found" when the whole space was exhausted,
    "budget-exhausted" when the node budget ran out first, and "found" if a
    leaf turned up (which would falsify the main result); the witness is
    then its topes."""

    __slots__ = _fields = ("status", "nodes", "witness")

    status: str
    nodes: int
    witness: tuple[SignedVector, ...] | None


def direct_search_n8(budget: int) -> DirectSearchOutcome:
    """Stage A on alt(8,4) → m2(8), at most ``budget`` nodes.

    The whole space is 7,785 nodes and holds no leaf, so any budget of at
    least 7,785 returns "none-found" at 7,785 nodes; a lower one returns
    "budget-exhausted" with ``nodes == budget``. ``ValueError`` if the budget
    is not positive.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    source = topes_of(alternating_chirotope(8, RANK + 1))
    target = topes_of(pair_swap_chirotope(8))
    run = sandwich_search(source, target, budget)
    if run.leaves:
        witness = topes_of(run.leaves[0]).ordered
        return DirectSearchOutcome(status="found", nodes=run.nodes, witness=witness)
    status = "budget-exhausted" if run.exhausted else "none-found"
    return DirectSearchOutcome(status=status, nodes=run.nodes, witness=None)
