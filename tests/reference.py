"""Independent reference implementations that tests use as oracles.

The sign-vector relations (``compose``, ``conforms``, ``perpendicular``,
``full_support_extensions``) follow their textbook definitions. On top of
them, ``is_covector_by_extension`` decides covector membership by full-support
completion, ``covectors_from_topes`` lists the covectors of a tope set by
composition with every tope (the survivors have no chirotope, so their
covectors come from here), ``elimination_failures`` checks covector
elimination by scanning every member for each pair and element,
``alternating_topes_direct`` lists the alternating instance's topes by the
sign-change rule, ``restrict`` selects a vector's signs at kept elements,
``restriction_tope_set`` builds a deletion's tope set from topes restricted
that way, and ``pattern_index`` numbers a vector's canonical pattern
on one subset, element by element; the tests compare the library's
cocircuit, tope, covector, axiom, circuit and packed pattern computations
against them. The library itself calls none of these.

``restricted_topes`` reads a tope set's canonical restrictions to one
5-subset tope by tope and element by element, and ``bitset_sandwich_search``
is stage A's forward check as it stood before the packed state: one int
bitset of candidate codes per 5-subset, copied at every node. The tests
compare ``oracle.restrictions`` and ``oracle.sandwich_search`` against them.

``parse`` is the argparse command line that ``omcert.cli`` had before its
table-driven parser; the two must agree on every run configuration, the
certificate path among its fields, and on which command lines are usage
errors.
"""

from __future__ import annotations

import argparse
import math
from itertools import combinations

from omcert.cli import RunConfig
from omcert.matroid import Chirotope, TopeSet
from omcert.oracle import CODES, LOCAL_TRIPLES, RANK, OracleRun, local_table
from omcert.signed_vector import SignedVector, increasing_subset

# refuse enumerating more than 2**20 full-support completions
_EXTENSION_GUARD = 20


def _require_same_ground(x: SignedVector, y: SignedVector) -> None:
    if x.n != y.n:
        raise ValueError(f"ground-set mismatch: {x.n} vs {y.n}")


def compose(x: SignedVector, y: SignedVector) -> SignedVector:
    """Componentwise: the sign of ``x`` where nonzero, the sign of ``y`` elsewhere."""
    _require_same_ground(x, y)
    free = ~x.support_mask
    return SignedVector(x.n, x.pos | (y.pos & free), x.neg | (y.neg & free))


def conforms(x: SignedVector, y: SignedVector) -> bool:
    """Conformal order: both supports of ``x`` sit inside the same-signed ones of ``y``."""
    _require_same_ground(x, y)
    return not (x.pos & ~y.pos) and not (x.neg & ~y.neg)


def perpendicular(x: SignedVector, y: SignedVector) -> bool:
    """The componentwise product has its +1 and -1 sets both empty or both nonempty."""
    _require_same_ground(x, y)
    agree = (x.pos & y.pos) | (x.neg & y.neg)
    clash = (x.pos & y.neg) | (x.neg & y.pos)
    return (agree == 0) == (clash == 0)


def full_support_extensions(x: SignedVector) -> frozenset[SignedVector]:
    """Every sign vector that agrees with ``x`` on its support and has full support."""
    free = [i for i in range(x.n) if not x.support_mask >> i & 1]
    if len(free) > _EXTENSION_GUARD:
        raise ValueError(
            f"{len(free)} free positions exceed the 2**{_EXTENSION_GUARD} enumeration guard"
        )
    out = []
    for assign in range(1 << len(free)):
        pos, neg = x.pos, x.neg
        for j, i in enumerate(free):
            if assign >> j & 1:
                neg |= 1 << i
            else:
                pos |= 1 << i
        out.append(SignedVector(x.n, pos, neg))
    return frozenset(out)


def is_covector_by_extension(x: SignedVector, topes: TopeSet) -> bool:
    """Covector membership via full-support completion.

    In a uniform oriented matroid, x is a covector iff every full-support
    vector conforming to x is a tope: each completion collapses back to x by
    repeated single-index elimination. The zero vector is the exception: it
    is always a covector, but this criterion accepts it only at full rank.
    """
    if x.n != topes.n:
        raise ValueError(f"ground-set mismatch: {x.n} vs {topes.n}")
    return all(ext.canonical() in topes.topes for ext in full_support_extensions(x))


def covectors_from_topes(topes: TopeSet) -> frozenset[SignedVector]:
    """All sign vectors X with X o T a tope for every tope T (both signs of T).

    This is the standard tope-based membership test; the caller is
    responsible for passing a genuine oriented-matroid tope set. It tries
    all 3**n sign vectors.
    """
    n = topes.n
    signed = set()
    for t in topes.topes:
        signed.add((t.pos, t.neg))
        signed.add((t.neg, t.pos))
    tope_list = list(signed)

    full = (1 << n) - 1
    covs = set()
    for pos in range(full + 1):
        rest = full & ~pos
        neg = rest
        while True:
            supp = pos | neg
            ok = True
            for tp, tn in tope_list:
                free = ~supp
                if (pos | (tp & free), neg | (tn & free)) not in signed:
                    ok = False
                    break
            if ok:
                covs.add(SignedVector(n, pos, neg))
            if neg == 0:
                break
            neg = (neg - 1) & rest
    return frozenset(covs)


def elimination_failures(covectors: frozenset[SignedVector]) -> list[tuple[SignedVector, SignedVector, int]]:
    """Covector elimination by its definition: for members X, Y and each e
    in their separation set S, some member Z has Z(e) = 0 and agrees with
    X o Y at every element outside S. Every (X, Y, e) with no such Z, in
    the order of ``check_covector_axioms``: pairs by (pos, neg), then e
    ascending. Every member is scanned for each triple."""
    members = sorted(covectors, key=lambda v: (v.pos, v.neg))
    signs = [(z.pos, z.neg) for z in members]
    failures = []
    for x in members:
        for y in members:
            w = compose(x, y)
            outside = ~((x.pos & y.neg) | (x.neg & y.pos))
            wp, wn = w.pos & outside, w.neg & outside
            for e in range(1, x.n + 1):
                bit = 1 << (e - 1)
                if not outside & bit and not any(
                    not (zp | zn) & bit and zp & outside == wp and zn & outside == wn for zp, zn in signs
                ):
                    failures.append((x, y, e))
    return failures


def pattern_index(neg: int, subset: tuple[int, ...]) -> int:
    """Canonical pattern index of a full-support vector's restriction to
    ``subset``, read from its negative mask, one element at a time.

    The sign at the least element is normalized to '+', and bit j-1 is set
    when the j-th further element then reads '-'. So indices follow the
    string order read from the last element of the subset back, not the
    fixed string order: on (1, 2, 3), '++-' is 2 and '+-+' is 1.
    """
    flip = neg >> (subset[0] - 1) & 1
    pid = 0
    for j in range(1, len(subset)):
        if (neg >> (subset[j] - 1) & 1) != flip:
            pid |= 1 << (j - 1)
    return pid


def alternating_topes_direct(n: int, r: int) -> TopeSet:
    """Topes of the alternating instance straight from the sign-change rule:
    canonical full-support vectors with at most r-1 sign changes."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must be within 1..{n}, got {r}")
    topes = set()
    for bits in range(1 << (n - 1)):
        signs = ["+"]
        for i in range(n - 1):
            signs.append("-" if bits >> i & 1 else "+")
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if changes <= r - 1:
            topes.add(SignedVector.parse("".join(signs)))
    return TopeSet(n, r, frozenset(topes))


def restrict(vector: SignedVector, keep: tuple[int, ...] | list[int]) -> SignedVector:
    """Positional selection: element j of the result is the sign at the j-th kept element.

    ``keep`` must be nonempty and strictly increasing within 1..n.
    """
    keep = increasing_subset(keep, vector.n, "keep")
    if not keep:
        raise ValueError("keep must be nonempty")
    pos = neg = 0
    for j, e in enumerate(keep):
        bit = 1 << (e - 1)
        if vector.pos & bit:
            pos |= 1 << j
        elif vector.neg & bit:
            neg |= 1 << j
    return SignedVector(len(keep), pos, neg)


def restriction_tope_set(topes: TopeSet, keep: tuple[int, ...] | list[int]) -> TopeSet:
    """Canonical dedup of tope restrictions: the tope set of the deletion."""
    keep = tuple(keep)
    restricted = frozenset(restrict(t, keep).canonical() for t in topes.topes)
    r = min(topes.r, len(keep))
    return TopeSet(len(keep), r, restricted)


def restricted_topes(topes: TopeSet, subset: tuple[int, ...]) -> int:
    """The canonical restrictions of ``topes`` to a 5-subset (0-based), as a
    16-bit mask: bit v is set when some tope's sign at ``subset[i + 1]``
    differs from its sign at ``subset[0]`` exactly for the bits i of v."""
    out = 0
    for t in topes.topes:
        signs = [t.sign(e + 1) for e in subset]
        out |= 1 << sum(1 << i for i, x in enumerate(signs[1:]) if x != signs[0])
    return out


def bitset_sandwich_search(source: TopeSet, target: TopeSet, budget: int | None = None) -> OracleRun:
    """Stage A with one int bitset over the 1,024 codes per 5-subset: a node
    ANDs a copy of the bitsets of the subsets that hold its triple with the
    codes carrying its sign there, and is pruned when one of them empties.
    Leaves are not re-checked."""
    n = source.n
    chirotopes, holds = local_table()
    triples = sorted(combinations(range(n), RANK), key=lambda t: t[::-1])
    index = {t: i for i, t in enumerate(triples)}
    negative = [sum(1 << m for m in range(CODES) if m >> k & 1) for k in range(len(LOCAL_TRIPLES))]
    signed = [((1 << CODES) - 1 ^ m, m) for m in negative]
    candidates, moves = [], [([], []) for _ in triples]
    for s, subset in enumerate(combinations(range(n), 5)):
        low, high = restricted_topes(target, subset), restricted_topes(source, subset)
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
    return OracleRun(tuple(leaves), nodes, exhausted)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omcert",
        description=(
            "Oriented-matroid certificates: tope enumeration, axiom checks, "
            "strong-map verdicts, the exhaustive intermediate search on six "
            "elements, and the eight-element nonfactorizability pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", dest="output_path", default=None, metavar="PATH")

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--family", choices=("alternating", "m2"), default="alternating")
    instance.add_argument("--n", type=int, default=6)
    instance.add_argument("--rank", type=int, default=None)

    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility; the search runs in one thread and N has no effect",
    )

    sub.add_parser("topes", parents=[common, instance], help="list canonical topes of one instance")
    sub.add_parser("axioms", parents=[common, instance], help="axiom reports for one instance")
    strongmap = sub.add_parser(
        "strongmap", parents=[common], help="strong-map verdict alternating -> m2"
    )
    strongmap.add_argument("--n", type=int, default=6)
    strongmap.add_argument("--rank", type=int, default=4)
    sub.add_parser(
        "lemma6", parents=[common, threaded], help="exhaustive intermediate search on 6 elements"
    )
    verify = sub.add_parser(
        "verify-n8",
        parents=[common, threaded],
        help="premise, restriction and conflict checks at n=8",
    )
    verify.add_argument(
        "--certificate",
        default=None,
        metavar="PATH",
        help="continue from a search certificate once a fresh search reproduces it",
    )
    sub.add_parser("all", parents=[common, threaded], help="full pipeline certificate")
    for command_parser in sub.choices.values():  # usage errors print the subcommand usage
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    family = getattr(args, "family", "alternating")
    n = getattr(args, "n", 6)
    rank = getattr(args, "rank", None)
    # strongmap's target is always the pair-swap instance, family m2
    if n % 2 and (family == "m2" or args.command == "strongmap"):
        parser.error(f"family m2 needs an even ground set, got n={n}")
    if family == "m2":
        if rank is None:
            rank = 2
        elif rank != 2:
            parser.error("family m2 has rank 2")
    elif rank is None:
        rank = 4
    if not 1 <= n <= 32:
        parser.error(f"n must be within 1..32, got {n}")
    if not 1 <= rank <= n:
        parser.error(f"rank must be within 1..n, got rank={rank}, n={n}")
    if getattr(args, "threads", 1) < 1:
        parser.error(f"threads must be >= 1, got {args.threads}")
    return RunConfig(
        command=args.command,
        n=n,
        rank=rank,
        family=family,
        output_path=args.output_path,
        format=args.format,
        certificate=getattr(args, "certificate", None),
    )


def parse(argv: list[str]) -> RunConfig:
    """The run configuration of ``argv``; raises SystemExit(2) on a usage
    error, as ``omcert.cli.parse_args`` does."""
    args = build_parser().parse_args(argv)
    return _config_from_args(args.command_parser, args)
