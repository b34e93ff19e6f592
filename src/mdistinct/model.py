"""Tabular data model: schemas, records, generalization regions, releases.

Numeric attributes generalize to integer intervals, categorical ones to
nodes of a fixed hierarchy tree.  Extents count domain points, so a
degenerate region still covers one point per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import ValidationError

__all__ = [
    "Hierarchy",
    "AttributeSchema",
    "TableSchema",
    "Record",
    "CounterfeitMember",
    "Member",
    "QIGroup",
    "PublishedRelease",
    "ExternalKnowledgeTable",
    "in_release_order",
    "bounding_region",
    "region_contains",
    "cell_tests",
    "generalize",
]

# A region cell is an (lo, hi) int pair for numeric attributes or a node
# name for categorical ones; a region is one cell per QI attribute.
RegionCell = Union[tuple[int, int], str]
Region = tuple[RegionCell, ...]

QIValue = Union[int, str]


class _CoverExtents(dict):
    """`lo * len(leaves) + hi` -> leaf count of the smallest node covering
    the index span [lo, hi], computed on first lookup, so it holds only the
    spans looked up."""

    def __init__(self, hierarchy: "Hierarchy"):
        super().__init__()
        self.hierarchy = hierarchy

    def __missing__(self, key: int) -> int:
        h = self.hierarchy
        lo, hi = divmod(key, len(h.leaves))
        out = self[key] = h.leafcount(h.covering_node(lo, hi))
        return out


class Hierarchy:
    """A rooted tree over an ordered leaf set, with contiguous leaf spans.

    Built from a nested mapping {node: children}, children being leaf names
    or further mappings.  Depth-first traversal fixes the total leaf order,
    so every node covers a contiguous index range.
    """

    def __init__(self, root: str, tree: Mapping[str, object]):
        self.root = root
        self.leaves: tuple[str, ...] = ()
        self._span: dict[str, tuple[int, int]] = {}
        self._children: dict[str, tuple[str, ...]] = {}
        leaves: list[str] = []
        self._build(root, tree, leaves)
        self.leaves = tuple(leaves)
        # every leaf is a node, so _build has refused a repeated leaf
        self.index = {leaf: i for i, leaf in enumerate(self.leaves)}
        self.extent = _CoverExtents(self)

    def _build(self, name: str, subtree: object, leaves: list[str]) -> tuple[int, int]:
        if name in self._span:
            raise ValidationError(f"duplicate hierarchy node {name!r}")
        self._span[name] = (-1, -1)  # reserve to catch cycles/dupes
        if isinstance(subtree, Sequence) and not isinstance(subtree, str):
            subtree = [(child, None) for child in subtree]  # leaf names
        elif isinstance(subtree, Mapping):
            subtree = list(subtree.items())
        if isinstance(subtree, list):
            lo = len(leaves)
            for child, sub in subtree:
                self._build(child, sub, leaves)
            hi = len(leaves) - 1
            if hi < lo:
                raise ValidationError(f"hierarchy node {name!r} has no leaves")
            self._children[name] = tuple(child for child, _ in subtree)
        else:  # leaf
            lo = hi = len(leaves)
            leaves.append(name)
            self._children[name] = ()
        self._span[name] = (lo, hi)
        return (lo, hi)

    @classmethod
    def flat(cls, root: str, leaves: Sequence[str]) -> "Hierarchy":
        """One-level tree: a root directly over the given leaves."""
        return cls(root, {leaf: None for leaf in leaves})

    def __contains__(self, node: str) -> bool:
        return node in self._span

    def span(self, node: str) -> tuple[int, int]:
        try:
            return self._span[node]
        except KeyError:
            raise ValidationError(f"unknown hierarchy node {node!r}") from None

    def leafcount(self, node: str) -> int:
        lo, hi = self.span(node)
        return hi - lo + 1

    def covering_node(self, lo: int, hi: int) -> str:
        """Smallest node whose leaf span contains the index range [lo, hi]."""
        if not (0 <= lo <= hi < len(self.leaves)):
            raise ValidationError(f"leaf index range [{lo}, {hi}] out of bounds")
        node = self.root
        while True:
            for child in self._children[node]:
                clo, chi = self._span[child]
                if clo <= lo and hi <= chi:
                    node = child
                    break
            else:
                return node

    def lca(self, values: Sequence[str]) -> str:
        idx = [self.index[v] for v in values]
        return self.covering_node(min(idx), max(idx))


@dataclass(frozen=True)
class AttributeSchema:
    """One QI attribute: an integer interval or a hierarchy-backed category."""

    name: str
    kind: str  # "numeric" | "categorical"
    lo: int = 0
    hi: int = 0
    hierarchy: Hierarchy | None = None

    def __post_init__(self):
        if self.kind == "numeric":
            if self.lo > self.hi:
                raise ValidationError(f"{self.name}: empty numeric domain")
        elif self.kind == "categorical":
            if self.hierarchy is None or not self.hierarchy.leaves:
                raise ValidationError(f"{self.name}: categorical without hierarchy")
        else:
            raise ValidationError(f"{self.name}: unknown kind {self.kind!r}")

    @classmethod
    def numeric(cls, name: str, lo: int, hi: int) -> "AttributeSchema":
        return cls(name, "numeric", lo=lo, hi=hi)

    @classmethod
    def categorical(cls, name: str, hierarchy: Hierarchy) -> "AttributeSchema":
        return cls(name, "categorical", hierarchy=hierarchy)

    @property
    def size(self) -> int:
        if self.kind == "numeric":
            return self.hi - self.lo + 1
        return len(self.hierarchy.leaves)

    def contains(self, value: QIValue) -> bool:
        if self.kind == "numeric":
            return isinstance(value, int) and self.lo <= value <= self.hi
        return value in self.hierarchy.index

    def to_index(self, value: QIValue) -> int:
        """Map a domain value to its position in the fixed total order."""
        if self.kind == "numeric":
            return int(value) - self.lo
        return self.hierarchy.index[value]


@dataclass(frozen=True)
class TableSchema:
    qi: tuple[AttributeSchema, ...]
    sensitive_name: str
    sensitive_domain: tuple[str, ...]

    @property
    def qi_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.qi)

    def validate_record(self, rec: "Record") -> None:
        if len(rec.qi) != len(self.qi):
            raise ValidationError(f"record {rec.id!r}: expected "
                                  f"{len(self.qi)} QI values, got {len(rec.qi)}")
        for attr, value in zip(self.qi, rec.qi):
            if not attr.contains(value):
                raise ValidationError(
                    f"record {rec.id!r}: {attr.name}={value!r} outside domain")
        if rec.sensitive not in self.sensitive_domain:
            raise ValidationError(
                f"record {rec.id!r}: sensitive value {rec.sensitive!r} "
                f"outside domain")


@dataclass(frozen=True)
class Record:
    id: str
    qi: tuple[QIValue, ...]
    sensitive: str


@dataclass(frozen=True)
class CounterfeitMember:
    """A fabricated group member; carries a sensitive value but no QI vector."""

    sensitive: str


class Member(NamedTuple):
    """One published group member: a named tuple, since a history read
    builds one per row."""

    rid: str
    sensitive: str
    counterfeit: bool = False


@dataclass(frozen=True, slots=True)
class QIGroup:
    """One published group.  `values` is the group's candidate sensitive
    set, counterfeits included: `tuple(m.sensitive for m in members)`,
    stored by whoever builds the members, since the publisher's fold, the
    attack and verify all read it.  It has slots and no instance dict:
    replaying or auditing a history builds thousands of groups."""

    gid: int
    region: Region
    members: tuple[Member, ...]
    values: tuple[str, ...]

    @property
    def counterfeit_count(self) -> int:
        return sum(1 for m in self.members if m.counterfeit)


@dataclass(frozen=True)
class PublishedRelease:
    release_index: int
    groups: tuple[QIGroup, ...]

    @property
    def counterfeit_stats(self) -> dict[int, int]:
        return {g.gid: g.counterfeit_count for g in self.groups
                if g.counterfeit_count > 0}

    def group_of(self) -> dict[str, QIGroup]:
        """Map each real record id to its group."""
        out: dict[str, QIGroup] = {}
        for g in self.groups:
            for m in g.members:
                if not m.counterfeit:
                    if m.rid in out:
                        raise ValidationError(
                            f"release {self.release_index}: id {m.rid!r} "
                            f"appears in two groups")
                    out[m.rid] = g
        return out


def in_release_order(releases: Iterable[PublishedRelease],
                     ) -> list[PublishedRelease]:
    """The releases sorted by index; an index given twice is refused."""
    ordered = sorted(releases, key=lambda r: r.release_index)
    for a, b in zip(ordered, ordered[1:]):
        if a.release_index == b.release_index:
            raise ValidationError(f"release {a.release_index} given twice")
    return ordered


@dataclass(frozen=True)
class ExternalKnowledgeTable:
    release_index: int
    rows: Mapping[str, tuple[QIValue, ...]]


# ---------------------------------------------------------------------------
# region operations


def bounding_region(schema: TableSchema,
                    points: Sequence[tuple[QIValue, ...]]) -> Region:
    """Minimal region covering all points: min/max intervals, hierarchy LCA."""
    if not points:
        raise ValidationError("empty group")
    cells: list[RegionCell] = []
    for j, attr in enumerate(schema.qi):
        col = [p[j] for p in points]
        if attr.kind == "numeric":
            cells.append((min(col), max(col)))
        else:
            cells.append(attr.hierarchy.lca(col))
    return tuple(cells)


def region_contains(schema: TableSchema, region: Region,
                    point: tuple[QIValue, ...]) -> bool:
    for attr, cell, value in zip(schema.qi, region, point):
        if attr.kind == "numeric":
            lo, hi = cell
            if not (lo <= value <= hi):
                return False
        else:
            h = attr.hierarchy
            lo, hi = h.span(cell)
            if not (lo <= h.index[value] <= hi):
                return False
    return True


def cell_tests(schema: TableSchema,
               ) -> list[tuple[Mapping[str, tuple[int, int]],
                               Mapping[str, int]] | None]:
    """Per QI attribute, the maps `region_contains` reads to test a value
    against a cell: None for a numeric attribute, whose cell is its own
    (lo, hi) range, else its hierarchy's node -> leaf span and leaf ->
    index maps.  A loop over many points reads them from here once."""
    return [None if a.kind == "numeric"
            else (a.hierarchy._span, a.hierarchy.index) for a in schema.qi]


def generalize(schema: TableSchema,
               release_index: int,
               groups: Sequence[Sequence[Union[Record, CounterfeitMember]]],
               ) -> PublishedRelease:
    """Turn a member partition into a release: regions from real members only,
    gids in input order, counterfeit tags c1, c2, ... in emission order."""
    out: list[QIGroup] = []
    counterfeit_no = 0
    for gid0, group in enumerate(groups):
        if not group:
            raise ValidationError("empty group")
        reals = sorted((m for m in group if isinstance(m, Record)),
                       key=lambda r: r.id)
        fakes = [m for m in group if isinstance(m, CounterfeitMember)]
        if not reals:
            raise ValidationError("group with no real members")
        region = bounding_region(schema, [r.qi for r in reals])
        members = [Member(r.id, r.sensitive) for r in reals]
        values = [r.sensitive for r in reals]
        for fake in sorted(fakes, key=lambda m: m.sensitive):
            counterfeit_no += 1
            members.append(Member(f"c{counterfeit_no}", fake.sensitive, True))
            values.append(fake.sensitive)
        out.append(QIGroup(gid0 + 1, region, tuple(members), tuple(values)))
    return PublishedRelease(release_index, tuple(out))
