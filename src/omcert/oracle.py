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
  only necessary, and the leaf re-check drops a leaf whose topes leave the
  source.

The search backtracks over the 3-subsets in colex order, with χ(1,2,3) = +
(χ and -χ are one oriented matroid). Its whole state is one int. Each
5-subset S owns a field of W bits, W one more than the largest candidate
count: the low bits hold the maps inside S's sandwich (renumbered 0..k-1)
that agree with every sign assigned so far, and the top bit is a guard kept
at 0. A node is one sign tried on one triple: it ANDs the state with a mask
that keeps, in the fields of the C(n-3, 2) subsets holding the triple, the
maps carrying that sign there, and it is pruned when one of those fields
empties. Adding all ones below every guard carries into exactly the
nonempty fields' guards, so one addition tests them all. At a leaf every
field holds exactly one map, so the leaf is a chirotope inside the
sandwich; ``topes_of`` re-checks it globally. alt(8,4) → m2(8) has no
leaf, in 7,785 nodes.
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
def local_table() -> tuple[int, tuple[int, ...]]:
    """The 5-point table, each entry a set of codes as an int over ``EVERY``:
    the codes that satisfy the 3-term Grassmann-Plücker relations, and per
    canonical vector on [5] the codes it is a tope of. Every entry is
    computed for all codes at once.

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
    return EVERY & ~violated, tuple(EVERY & ~h for h in hidden)


def restrictions(topes: TopeSet) -> list[int]:
    """The canonical restrictions of ``topes`` to each 5-subset of [n]
    (0-based, in ``combinations`` order), as 16-bit masks over the vectors
    numbered as in ``local_table``. Bit-sliced over the topes: bit j of
    ``column[e]`` is set when tope j is negative at e, and vector v shows on
    S when some tope differs from S's least element exactly where v's bits
    are."""
    column = [sum((t.neg >> e & 1) << j for j, t in enumerate(topes.topes)) for e in range(topes.n)]
    out = []
    for first, *rest in combinations(column, 5):
        parts = [(1 << len(topes)) - 1]  # per vector so far, the topes showing it
        for c in rest:
            parts = [p & x for x in (~(c ^ first), c ^ first) for p in parts]
        out.append(sum(1 << v for v, p in enumerate(parts) if p))
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
    ``exhausted`` set. Each leaf's ``topes_of`` must contain the target and
    have the uniform count, or ``RuntimeError`` is raised: those local tests
    are exact, so a failure there is a bug in them. A leaf whose topes leave
    the source is dropped, not reported and not a reason to refuse the
    input: for a source that is not alternating the local test
    ``T(χ|S) ⊆ source|S`` is only necessary.
    ``ValueError`` if the two sets lie on different ground sets, n < 5, or
    the budget is neither None nor an int >= 0.
    """
    n = source.n
    if target.n != n:
        raise ValueError(f"source and target lie on {n} and {target.n} elements")
    if n < 5:
        raise ValueError(f"stage A needs at least 5 elements, got {n}")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError(f"budget must be None or an int >= 0, got {budget!r}")
    chirotopes, holds = local_table()
    triples = sorted(combinations(range(n), RANK), key=lambda t: t[::-1])
    index = {t: i for i, t in enumerate(triples)}
    sandwiches = list(zip(restrictions(target), restrictions(source)))
    # per distinct sandwich: its k codes renumbered 0..k-1 in ascending order,
    # as the mask of all k, and per local triple those negative there
    tables = {}
    for low, high in set(sandwiches):
        c = chirotopes
        for v in range(16):
            if low >> v & 1:
                c &= holds[v]
            elif not high >> v & 1:
                c &= ~holds[v]
        codes = [m for m, b in enumerate(f"{c:b}"[::-1]) if b == "1"]
        columns = [sum((m >> k & 1) << i for i, m in enumerate(codes)) for k in range(len(LOCAL_TRIPLES))]
        tables[low, high] = (1 << len(codes)) - 1, columns
    # subset s owns bits s*W .. s*W+W-1; keep[t][bit] is all ones outside the
    # fields of the subsets holding triple t, the codes with that sign inside
    width = max(held.bit_length() for held, _ in tables.values()) + 1
    field = (1 << width) - 1
    keep = [[(1 << width * len(sandwiches)) - 1] * 2 for _ in triples]
    guards = [0] * len(triples)
    state = lows = 0
    for s, (subset, sandwich) in enumerate(zip(combinations(range(n), 5), sandwiches)):
        held, columns = tables[sandwich]
        at = s * width
        state |= held << at
        lows |= 1 << at
        for (x, y, z), column in zip(LOCAL_TRIPLES, columns):
            t = index[subset[x], subset[y], subset[z]]
            keep[t][0] ^= (field ^ held ^ column) << at
            keep[t][1] ^= (field ^ column) << at
            guards[t] |= 1 << (at + width - 1)
    fill = lows * ((1 << (width - 1)) - 1)

    limit = math.inf if budget is None else budget
    signs = [0] * len(triples)
    leaves: list[Chirotope] = []
    nodes = 0

    def descend(depth: int, state: int) -> bool:
        """Try each sign of triple ``depth``; False once the budget runs out."""
        nonlocal nodes
        if depth == len(triples):
            sign = dict(zip(triples, signs))
            values = tuple(-1 if sign[t] else 1 for t in combinations(range(n), RANK))
            leaves.append(Chirotope(n, RANK, values))
            return True
        guard, masks = guards[depth], keep[depth]
        for bit in (0,) if depth == 0 else (0, 1):
            if nodes == limit:
                return False
            nodes += 1
            child = state & masks[bit]
            if (child + fill) & guard == guard:
                signs[depth] = bit
                if not descend(depth + 1, child):
                    return False
        return True

    exhausted = not descend(0, state)
    inside = []
    for chi in leaves:
        topes = topes_of(chi).topes
        if not target.topes <= topes or len(topes) != canonical_tope_count(n, RANK):
            raise RuntimeError(f"leaf {chi.values} fails the global re-check; a local test is wrong")
        if topes <= source.topes:
            inside.append(chi)
    return OracleRun(tuple(inside), nodes, exhausted)


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
    is not a positive int.
    """
    if type(budget) is not int or budget <= 0:
        raise ValueError(f"budget must be a positive int, got {budget!r}")
    source = topes_of(alternating_chirotope(8, RANK + 1))
    target = topes_of(pair_swap_chirotope(8))
    run = sandwich_search(source, target, budget)
    if run.leaves:
        witness = topes_of(run.leaves[0]).ordered
        return DirectSearchOutcome(status="found", nodes=run.nodes, witness=witness)
    status = "budget-exhausted" if run.exhausted else "none-found"
    return DirectSearchOutcome(status=status, nodes=run.nodes, witness=None)
