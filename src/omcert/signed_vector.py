"""Sign vectors on a small ground set, encoded as bitmask pairs.

Elements are labeled 1..n with n <= 32. A vector keeps one bit per element
in each of two masks (positive / negative), so all set algebra is constant
time. Values are immutable and hashable; every operation returns a fresh
value. Every value type of the package, ``SignedVector`` among them,
subclasses ``Immutable``: plain slotted classes, because a command-line run
is mostly interpreter start-up and generating classes at import time would
add to it. A record takes ``Immutable``'s constructor, with every field
given; only a validated type (``SignedVector``, ``Chirotope``, ``TopeSet``)
writes its own ``__init__``. Assigning to a field raises AttributeError.
Equality, hashing and repr read ``Immutable``'s key, except on
``SignedVector``, the type the pipeline hashes, which keeps its own for speed.

The string form over ``{+,-,0}``, character i the sign of element i, is the
only interchange format, and ``parse`` reads n off its length. Wherever a
listing of vectors must be deterministic, strings are ordered ``'+' < '-' < '0'``.
"""

from __future__ import annotations

MAX_ELEMENTS = 32

_SIGN_ORDER = str.maketrans("+-0", "ABC")


def sign_string_key(text: str) -> str:
    """Sort key realizing the fixed '+' < '-' < '0' order on sign strings."""
    return text.translate(_SIGN_ORDER)


def _check_n(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_ELEMENTS:
        raise ValueError(f"ground set size must be an integer in 1..{MAX_ELEMENTS}, got {n!r}")


def increasing_subset(items: tuple[int, ...] | list[int], n: int, what: str) -> tuple[int, ...]:
    """``items`` as a tuple; raises, naming it ``what``, unless it is strictly
    increasing within 1..n."""
    items = tuple(items)
    prev = 0
    for e in items:
        if not prev < e <= n:
            raise ValueError(f"{what} must be strictly increasing within 1..{n}, got {items}")
        prev = e
    return items


class Immutable:
    """Base of every value type: a subclass names its fields in ``__slots__``
    and ``_fields`` and sets them once, in ``__init__``; assigning or deleting
    an attribute afterwards raises AttributeError. A record, a type without
    checks, uses the constructor here: every field given once, by position,
    then by name. A validated type writes its own ``__init__``, which runs
    its checks and sets the fields through ``_set_fields``. Copies and
    pickles are rebuilt through ``__init__`` from the fields named in
    ``_fields``, so they pass the same checks. Two values are equal when they
    are of one class and their ``_key()`` tuples are equal; the hash is the
    key's hash, and the repr lists the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name} is missing field {field!r}")
            values.append(kwargs.pop(field))
        for field in kwargs:  # a field left here was given by position too
            if field in fields:
                raise TypeError(f"{name} got field {field!r} both by position and by name")
        if kwargs:
            raise TypeError(f"{name} got unexpected fields {', '.join(map(repr, kwargs))}")
        self._set_fields(*values)

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class SignedVector(Immutable):
    """A mapping from elements 1..n to {+1, 0, -1}.

    ``pos`` and ``neg`` are disjoint bitmasks; bit e-1 is set in ``pos``
    (resp. ``neg``) iff element e carries +1 (resp. -1). Equality reads (n, pos, neg) and
    the hash is ``hash((n, pos, neg))``, which fixes the iteration order of
    sets of vectors. Being the type the pipeline hashes, it keeps its own
    equality, hash and repr (the sign string) in place of ``Immutable``'s.
    """

    __slots__ = ("n", "pos", "neg", "_string")
    _fields = ("n", "pos", "neg")

    def __init__(self, n: int, pos: int, neg: int) -> None:
        _check_n(n)
        full = (1 << n) - 1
        if pos & neg:
            raise ValueError("positive and negative supports overlap")
        if (pos | neg) & ~full:
            raise ValueError("support exceeds the ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.pos == other.pos and self.neg == other.neg

    def __hash__(self) -> int:
        return hash((self.n, self.pos, self.neg))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def parse(text: str) -> SignedVector:
        """Parse a string over {+,-,0}; character i is the sign of element i of 1..len(text)."""
        n = len(text)
        _check_n(n)
        pos = neg = 0
        for i, ch in enumerate(text):
            if ch == "+":
                pos |= 1 << i
            elif ch == "-":
                neg |= 1 << i
            elif ch != "0":
                raise ValueError(f"illegal character {ch!r} at position {i + 1}")
        return SignedVector(n, pos, neg)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def sign(self, e: int) -> int:
        """Sign of element e (1-based)."""
        if not 1 <= e <= self.n:
            raise ValueError(f"element {e} outside 1..{self.n}")
        bit = 1 << (e - 1)
        if self.pos & bit:
            return 1
        if self.neg & bit:
            return -1
        return 0

    @property
    def support_mask(self) -> int:
        return self.pos | self.neg

    def has_full_support(self) -> bool:
        return self.support_mask == (1 << self.n) - 1

    def to_string(self) -> str:
        """The sign string, built once per vector and kept in the ``_string``
        slot: sorting by ``order_key`` and serializing ask for it repeatedly."""
        try:
            return self._string
        except AttributeError:
            pos, neg = self.pos, self.neg
            text = "".join(
                ["+" if pos >> i & 1 else "-" if neg >> i & 1 else "0" for i in range(self.n)]
            )
            object.__setattr__(self, "_string", text)
            return text

    def order_key(self) -> str:
        return sign_string_key(self.to_string())

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"SignedVector({self.to_string()!r})"

    # ------------------------------------------------------------------
    # sign algebra
    # ------------------------------------------------------------------

    def opposite(self) -> SignedVector:
        return SignedVector(self.n, self.neg, self.pos)

    def is_canonical(self) -> bool:
        """True iff the lowest-index nonzero sign is positive (or all zero)."""
        supp = self.support_mask
        return supp == 0 or bool(supp & -supp & self.pos)

    def canonical(self) -> SignedVector:
        """The member of {X, -X} whose first nonzero sign is positive."""
        return self if self.is_canonical() else self.opposite()
