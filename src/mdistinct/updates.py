"""The update algebra: CUS maps, transition models, update-set signatures,
legality / implication / intersection / disjointness tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

__all__ = [
    "UpdateModel",
    "USS",
    "validate_update_model",
    "uss_of",
    "is_legal_update_instance",
    "has_matching",
    "implies",
    "intersect",
    "pairwise_disjoint",
]

@dataclass(frozen=True)
class UpdateModel:
    """Per-value transition distributions in one table: successors[a][b]
    is the exact chance that a becomes b.  The keys of a's row are its
    candidate update set, cus(a), which need not contain a itself."""

    sensitive_domain: tuple[str, ...]
    successors: Mapping[str, Mapping[str, Fraction]]

    @classmethod
    def uniform(cls, cus_map: Mapping[str, Iterable[str]],
                domain: Sequence[str] | None = None) -> "UpdateModel":
        """Uniform transition probabilities over each value's CUS.  Each
        row keeps its successors in the order given."""
        table = {}
        for a, targets in cus_map.items():
            row = dict.fromkeys(targets)
            if not row:
                raise ValidationError(f"cus({a!r}) is empty")
            table[a] = dict.fromkeys(row, Fraction(1, len(row)))
        return cls(tuple(sorted(table) if domain is None else domain), table)

    @classmethod
    def from_classes(cls, classes: Sequence[Iterable[str]]) -> "UpdateModel":
        """Equivalence-class model: cus(x) = x's class, uniform inside it."""
        cus = {}
        domain = []
        for group in classes:
            members = list(group)
            domain.extend(members)
            for x in members:
                cus[x] = members
        return cls.uniform(cus, domain)

    @cached_property
    def cus(self) -> dict[str, frozenset[str]]:
        """value -> its CUS, the keys of its row, built once per model."""
        return {a: frozenset(row) for a, row in self.successors.items()}

    @cached_property
    def cus_keys(self) -> dict[str, tuple[str, ...]]:
        """value -> its CUS as a sorted tuple, built once per model; a
        fold that keys many values reads it directly."""
        return {a: tuple(sorted(row)) for a, row in self.successors.items()}

    def prob(self, a: str, b: str) -> Fraction:
        return self.successors.get(a, {}).get(b, Fraction(0))

    def cus_of(self, value: str) -> frozenset[str]:
        return _lookup(self.cus, value)

    def cus_key(self, value: str) -> tuple[str, ...]:
        """value's CUS as a sorted tuple: an entry of a `USS.key`."""
        return _lookup(self.cus_keys, value)


def _lookup(view: Mapping[str, object], value: str):
    try:
        return view[value]
    except KeyError:
        raise ValidationError(f"value {value!r} outside the sensitive domain") from None


def validate_update_model(model: UpdateModel) -> list[str]:
    """Check every model invariant; returns a list of violations (empty = ok)."""
    problems: list[str] = []
    dom = set(model.sensitive_domain)
    for a in model.sensitive_domain:
        if a not in model.successors:
            problems.append(f"no cus defined for {a!r}")
    for a, row in sorted(model.successors.items()):
        if not row:
            problems.append(f"cus({a!r}) is empty")
            continue
        targets = model.cus[a]
        if not targets <= dom:
            problems.append(f"cus({a!r}) leaves the domain: "
                            f"{sorted(targets - dom)}")
        for b, p in sorted(row.items()):
            if p <= 0:
                problems.append(f"p_trans({a!r}, {b!r}) not strictly positive")
        # the sum is 1 when the numerators over the row's lcm add up to it
        den = math.lcm(*(p.denominator for p in row.values()))
        if sum(p.numerator * (den // p.denominator)
               for p in row.values()) != den:
            total = sum(row.values(), Fraction(0))
            problems.append(f"p_trans({a!r}, .) sums to {total}, not 1")
        for b in sorted(row):
            other = model.cus.get(b, frozenset())
            if not other <= targets:
                problems.append(f"closure violated at ({a!r}, {b!r}): "
                                f"cus({b!r}) has {sorted(other - targets)} "
                                f"outside cus({a!r})")
    return problems


def _entry_key(entry: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(entry))


class USS:
    """An update-set signature: a canonicalized multiset of value sets.

    Signatures are dict keys in the publisher's memos, so the hash of the
    key is computed once.  A string's hash differs between interpreter
    runs, so a USS is not meant to be pickled."""

    __slots__ = ("entries", "key", "_hash", "values")

    def __init__(self, entries: Iterable[Iterable[str]]):
        sets = [frozenset(e) for e in entries]
        sets.sort(key=_entry_key)
        self.entries: tuple[frozenset[str], ...] = tuple(sets)
        self.key: tuple[tuple[str, ...], ...] = tuple(
            _entry_key(e) for e in self.entries)
        self._hash = hash(self.key)
        # every value some entry holds
        self.values: frozenset[str] = frozenset().union(*sets)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, USS) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(k) + "}" for k in self.key)
        return f"USS[{inner}]"


def uss_of(values: Sequence[str], model: UpdateModel) -> USS:
    return USS(model.cus_of(v) for v in values)


def is_legal_update_instance(values: Sequence[str], uss: USS) -> bool:
    """Size match + mutual covering, as set algebra: the values, duplicates
    counted, are as many as the entries; every value lies in the union of
    the entries; and no entry is disjoint from the set of values."""
    if len(values) != len(uss.entries):
        return False
    vals = set(values)
    return vals <= uss.values and not any(map(vals.isdisjoint, uss.entries))


def has_matching(adj: Sequence[Iterable[int]], width: int) -> bool:
    """Kuhn's algorithm: True iff every left node i can be matched to a
    distinct right node j < width taken from adj[i]."""
    match_right = [-1] * width

    def try_assign(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] < 0 or try_assign(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    return all(try_assign(i, [False] * width) for i in range(len(adj)))


def implies(a: USS, b: USS) -> bool:
    """True iff some bijection pairs every entry of b with a superset entry
    of a.  Any one-per-entry draw from b is then legal for a as well.

    Equal signatures pair entry with entry.  Otherwise two necessary
    conditions are tested before the matching: every value of b lies in
    some entry of a, and b's entry sizes, both sorted, are each at most
    a's (a bijection into supersets maps the k largest entries of b onto k
    entries of a at least as large)."""
    if a.key == b.key:
        return True
    if len(a) != len(b) or not b.values <= a.values:
        return False
    if any(x > y for x, y in zip(sorted(map(len, b.entries)),
                                 sorted(map(len, a.entries)))):
        return False
    adj = [[j for j, ae in enumerate(a.entries) if be <= ae]
           for be in b.entries]
    return has_matching(adj, len(a))


def _max_assignment(weights: Sequence[Sequence[int]]) -> list[int]:
    """The Hungarian method on an n x n integer weight matrix: the column
    of each row in a perfect matching of maximum total weight.  The O(n^3)
    form, with row and column potentials on the negated weights, adds one
    row at a time along a shortest augmenting path; column 0 is the
    virtual start of each path."""
    n = len(weights)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    row_of = [0] * (n + 1)          # 1-based row matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        slack = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            cost = weights[i0 - 1]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = -cost[j - 1] - u[i0] - v[j]
                    if cur < slack[j]:
                        slack[j] = cur
                        way[j] = j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    pairing = [0] * n
    for j in range(1, n + 1):
        pairing[row_of[j] - 1] = j - 1
    return pairing


def intersect(a: USS, b: USS) -> USS | None:
    """The signature of the best bijection of nonempty pairwise
    intersections between two signatures, or None when there is none.

    A pairing scores sum |X∩Y| / sum |X∪Y| = I / (S - I), where I is its
    total overlap and S = sum |X| + sum |Y| is the same for every pairing,
    so the best pairing has the most overlap; ties go to the
    lexicographically first pairing.  Both are one assignment: pairing a's
    i-th entry with b's j-th weighs |X∩Y| * n^n - j * n^(n-1-i), which
    spells the pairing in base n below the overlap, and a pair with an
    empty intersection weighs less than any full pairing could make up.
    """
    if len(a) != len(b):
        return None
    n = len(a)
    meets = [[ae & be for be in b.entries] for ae in a.entries]
    if not has_matching([[j for j, m in enumerate(row) if m]
                         for row in meets], n):
        return None
    top = n ** n
    barred = -top * (sum(map(len, a.entries)) + 1)
    weights = [[len(m) * top - j * n ** (n - 1 - i) if m else barred
                for j, m in enumerate(row)] for i, row in enumerate(meets)]
    return USS(meets[i][j] for i, j in enumerate(_max_assignment(weights)))


def pairwise_disjoint(sets: Iterable[frozenset[str]]) -> bool:
    """True iff no two of the sets share a value: the test star mode puts
    on a signature's entries and on a group's CUS sets."""
    seen: set[str] = set()
    for s in sets:
        if not seen.isdisjoint(s):
            return False
        seen |= s
    return True
