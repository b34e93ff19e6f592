"""Three-phase m-Distinct publisher.

Phase 1 creates buckets keyed by update-set signatures (plus best pairwise
intersections), phase 2 greedily assigns records to bucket entries by a
counterfeit/generalization score, phase 3 pads every entry of a bucket
with counterfeit slots up to the bucket's delta and recursively splits it
into QI-groups with one member per entry and distinct sensitive values.
First-timers with no usable bucket go through a static Mondrian-style
partitioner.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InfeasibilityError, ValidationError
from .model import (AttributeSchema, CounterfeitMember, PublishedRelease,
                    Record, TableSchema, generalize)
from .updates import (USS, UpdateModel, has_matching, implies, intersect,
                      is_legal_update_instance, pairwise_disjoint, uss_of)

__all__ = [
    "Bucket",
    "EngineState",
    "PrevInfo",
    "phase1_create_buckets",
    "phase2_assign",
    "phase3_split",
    "static_partition",
    "publish",
    "verify_m_distinct",
]

class _Extents:
    """Points covered by the generalization of attribute j's index span
    [lo, hi]: hi - lo + 1 for a numeric attribute (width 0), and
    `cover[j][lo * width[j] + hi]` for a categorical one, `cover[j]` being
    its hierarchy's cache (`Hierarchy.extent`), which lives as long as the
    schema.  The hot loops inline `of`."""

    __slots__ = ("width", "cover")

    def __init__(self, qi: Sequence[AttributeSchema]):
        self.width = [0 if a.kind == "numeric" else len(a.hierarchy.leaves)
                      for a in qi]
        self.cover = [None if a.kind == "numeric" else a.hierarchy.extent
                      for a in qi]

    def of(self, j: int, lo: int, hi: int) -> int:
        w = self.width[j]
        return self.cover[j][lo * w + hi] if w else hi - lo + 1


def _point(qi: Sequence[AttributeSchema], rec: Record) -> tuple[int, ...]:
    """A record's QI values as indices in each attribute's total order."""
    return tuple([attr.to_index(v) for attr, v in zip(qi, rec.qi)])


# ---------------------------------------------------------------------------
# buckets


@dataclass
class Bucket:
    """A signature bucket: one entry (record list) per CUS of the signature.

    `_place` keeps the state phase 2 scores against up to date: the size, the
    largest sensitive-value frequency and entry size, and each attribute's
    span of member QI indices with its extent and the extents' product.
    """

    signature: USS
    origin: str  # "signature" | "intersection"
    entries: list[list[Record]] = field(init=False)
    freq: Counter = field(init=False)
    size: int = field(init=False)
    extent_product: int = field(init=False)  # 1 while empty
    _f_max: int = field(init=False)
    _largest: int = field(init=False)
    _lo: list[int] = field(init=False)
    _hi: list[int] = field(init=False)
    _ext: list[int] = field(init=False)

    def __post_init__(self):
        self.entries = [[] for _ in self.signature.entries]
        self.freq = Counter()
        self.size = 0
        self.extent_product = 1
        self._f_max = 0
        self._largest = 0
        self._lo, self._hi, self._ext = [], [], []

    def eligible_entries(self, value: str) -> list[int]:
        return [i for i, cus in enumerate(self.signature.entries)
                if value in cus]

    def delta(self) -> int:
        return max(self._f_max, self._largest)

    def extent_product_with(self, point: Sequence[int],
                            extent: _Extents) -> int:
        """The extent product once a record at `point` joins; 1 while the
        bucket is empty (nothing to grow)."""
        if not self.size:
            return 1
        out = 1
        for j, i in enumerate(point):
            lo, hi = self._lo[j], self._hi[j]
            if i < lo:
                out *= extent.of(j, i, hi)
            elif i > hi:
                out *= extent.of(j, lo, i)
            else:
                out *= self._ext[j]
        return out

    def _place(self, rec: Record, entry_index: int, point: Sequence[int],
               extent: _Extents) -> None:
        entry = self.entries[entry_index]
        entry.append(rec)
        self._largest = max(self._largest, len(entry))
        f = self.freq[rec.sensitive] = self.freq[rec.sensitive] + 1
        self._f_max = max(self._f_max, f)
        if not self.size:
            self._lo, self._hi = list(point), list(point)
            self._ext = [extent.of(j, i, i) for j, i in enumerate(point)]
        else:
            lo, hi, ext = self._lo, self._hi, self._ext
            for j, i in enumerate(point):
                if i < lo[j]:
                    lo[j] = i
                elif i > hi[j]:
                    hi[j] = i
                else:
                    continue
                ext[j] = extent.of(j, lo[j], hi[j])
        self.size += 1
        self.extent_product = prod(self._ext)


def phase1_create_buckets(prev_signatures: Sequence[USS]) -> list[Bucket]:
    """One bucket per distinct signature in scan order, then best pairwise
    intersections appended (deduplicated, single pass - intersections of
    intersections are not generated).

    A pair can intersect only when both signatures have the same size and
    every entry of each meets the other's values, as a perfect matching of
    nonempty intersections needs; other pairs are skipped untried."""
    queue: list[USS] = []
    seen: set[USS] = set()
    for sig in prev_signatures:
        if sig not in seen:
            seen.add(sig)
            queue.append(sig)
    values = [sig.values for sig in queue]
    extra: list[USS] = []
    for i, a in enumerate(queue):
        for j in range(i + 1, len(queue)):
            b = queue[j]
            if (len(a) != len(b)
                    or any(values[j].isdisjoint(e) for e in a.entries)
                    or any(values[i].isdisjoint(e) for e in b.entries)):
                continue
            both = intersect(a, b)
            if both is not None and both not in seen:
                seen.add(both)
                extra.append(both)
    return ([Bucket(sig, "signature") for sig in queue]
            + [Bucket(sig, "intersection") for sig in extra])


# ---------------------------------------------------------------------------
# engine state


class PrevInfo(NamedTuple):
    value: str
    signature: USS
    release_index: int


@dataclass
class EngineState:
    m: int
    mode: str = "m_distinct"
    release_count: int = 0
    prev: dict[str, PrevInfo] = field(default_factory=dict)

    @property
    def star(self) -> bool:
        return self.mode == "m_distinct_star"

    def apply(self, release: PublishedRelease, model: UpdateModel) -> None:
        """Fold a release in: each real member's value, its group's
        signature and the release index become its previous publication.

        A group's `USS.key` is the sorted tuple of its values' CUS keys, so
        groups with the same such tuple share one `USS`."""
        signatures: dict[tuple, USS] = {}
        index = release.release_index
        prev = self.prev
        for group in release.groups:
            members = group.members
            values = [mm.sensitive for mm in members]
            key = tuple(sorted(map(model.cus_key, values)))
            sig = signatures.get(key)
            if sig is None:
                sig = signatures[key] = uss_of(values, model)
            for mm in members:
                if not mm.counterfeit:
                    prev[mm.rid] = PrevInfo(mm.sensitive, sig, index)
        self.release_count = index


def _eligible_buckets(prev: PrevInfo | None, covering: Sequence[int],
                      buckets: Sequence[Bucket], star: bool,
                      implies_rows: dict[tuple, list[bool | None]],
                      ) -> list[int]:
    """The buckets among `covering`, those whose signature covers the
    record's value, that the record may join given its previous
    publication.  `implies_rows` holds, per previous-signature key, the
    `implies` verdict of each bucket, filled as buckets are asked about."""
    if prev is None:
        return [b for b in covering if not star
                or pairwise_disjoint(buckets[b].signature.entries)]
    signature = prev.signature
    row = implies_rows.get(signature.key)
    if row is None:
        row = implies_rows[signature.key] = [None] * len(buckets)
    out = []
    for b in covering:
        ok = row[b]
        if ok is None:
            ok = row[b] = implies(signature, buckets[b].signature)
        if ok:
            out.append(b)
    return out


# ---------------------------------------------------------------------------
# phase 2


def _epsilon(bucket: Bucket, entry_index: int, value: str) -> int:
    """-1 when the record's value frequency or its entry's size already
    equals delta, so padding grows; +1 otherwise, and in an empty bucket,
    where there is nothing to conflict with."""
    if not bucket.size:
        return 1
    delta = bucket.delta()
    if bucket.freq[value] == delta or len(bucket.entries[entry_index]) == delta:
        return -1
    return 1


def _score(epsilon: int, before: int, after: int) -> tuple[int, int]:
    """The score 1/lam (epsilon +1) or -lam (epsilon -1), lam = after /
    before, as (numerator, positive denominator)."""
    return (before, after) if epsilon == 1 else (-after, before)


def phase2_assign(records: Sequence[Record],
                  prev_of: Mapping[str, PrevInfo],
                  buckets: Sequence[Bucket],
                  schema: TableSchema,
                  star: bool = False) -> list[Record]:
    """Assign records to bucket entries in increasing CNT_buc order.

    Returns the leftover pool (CNT_buc = 0, necessarily first-timers) for
    the static partitioner.  A returning record with no bucket means the
    microdata contradicts the update model, which is an input error.

    Eligibility depends only on the previous signature and the value, so
    each such pair's bucket list is found once, among the buckets that
    cover the value.  In one bucket lam does not depend on the entry and a
    larger epsilon always scores higher (1/lam > 0 > -lam), so the best
    entry has the largest epsilon, then the fewest records, then comes
    first.  That is the first least-filled eligible entry: in an empty
    bucket every entry's epsilon is +1, when the value's frequency equals
    delta every entry's is -1, and otherwise epsilon is -1 exactly on the
    entries already holding delta records, so `_epsilon` runs once per
    bucket, on that entry.  Scores are compared as integer pairs by
    cross-multiplication.
    """
    covering: dict[str, list[int]] = {}
    for b, bucket in enumerate(buckets):
        for value in bucket.signature.values:
            covering.setdefault(value, []).append(b)
    implies_rows: dict[tuple, list[bool | None]] = {}
    options_for: dict[tuple, list[tuple[int, list[int]]]] = {}
    pool: list[Record] = []
    assignable: list[tuple[int, str, Record, list, tuple[int, ...]]] = []
    for rec in records:
        prev = prev_of.get(rec.id)
        key = (None if prev is None else prev.signature.key, rec.sensitive)
        options = options_for.get(key)
        if options is None:
            options = options_for[key] = [
                (b, buckets[b].eligible_entries(rec.sensitive))
                for b in _eligible_buckets(
                    prev, covering.get(rec.sensitive, ()), buckets, star,
                    implies_rows)]
        if not options:
            if prev is not None:
                raise ValidationError(
                    f"returning record {rec.id!r} fits no bucket; its update "
                    f"{prev.value!r} -> {rec.sensitive!r} contradicts the model")
            pool.append(rec)
            continue
        assignable.append((len(options), rec.id, rec, options,
                           _point(schema.qi, rec)))
    assignable.sort(key=lambda t: (t[0], t[1]))

    extent = _Extents(schema.qi)
    for _, _, rec, options, point in assignable:
        value = rec.sensitive
        best_num, best_den, best = 0, 0, None  # best: (bucket, entry)
        for b, entry_ids in options:
            bucket = buckets[b]
            entries = bucket.entries
            entry = entry_ids[0]
            for i in entry_ids:
                if len(entries[i]) < len(entries[entry]):
                    entry = i
            num, den = _score(_epsilon(bucket, entry, value),
                              bucket.extent_product,
                              bucket.extent_product_with(point, extent))
            if best is None or num * best_den > best_num * den:
                best_num, best_den, best = num, den, (b, entry)
        buckets[best[0]]._place(rec, best[1], point, extent)
    return pool


# ---------------------------------------------------------------------------
# phase 3


class _Cell(NamedTuple):
    entry: int
    seq: int                 # tie-breaker, creation order within the entry
    record: Record | None    # None: counterfeit slot


def _pick_sequence(entry_at: Sequence[int], value_at: Sequence[int], k: int,
                   max_picks: int) -> list[list[int]]:
    """Greedy pick-out sequence over one queue, as queue positions.

    Each pick takes one untaken position per entry with pairwise-distinct
    real values (value < 0 marks a counterfeit slot).  It is the first pick
    in queue order, the one a backtracking search that prefers the queue head
    finds first; the sequence ends at max_picks or where no pick is left.

    A pick first walks the queue, taking each untaken position in turn whose
    entry is open and whose value is unused.  When that walk takes all k
    entries, it is the first pick.  Otherwise a pick is a system of distinct
    representatives: the entries match to distinct unused values ahead, and
    an entry with a counterfeit slot ahead needs none.  If a matching says a
    pick exists, the walk runs again and takes a position only when the
    entries still open can then be completed from the positions after it.
    """
    n = len(entry_at)
    width = max(value_at, default=-1) + 1
    taken = [False] * n
    head = 0                         # no untaken position before it

    def completes(start: int, wanted: Iterable[int],
                  used: set[int]) -> bool:
        """Whether the wanted entries can take untaken positions from start
        on whose real values are distinct and not in used."""
        offers: dict[int, set[int]] = {e: set() for e in wanted}
        free: set[int] = set()           # entries with a counterfeit ahead
        for p in range(start, n):
            e = entry_at[p]
            if not taken[p] and e in offers:
                v = value_at[p]
                if v < 0:
                    free.add(e)
                elif v not in used:
                    offers[e].add(v)
        return has_matching([vs for e, vs in offers.items() if e not in free],
                            width)

    def walk(checked: bool) -> list[int] | None:
        chosen: list[int] = []
        wanted = set(range(k))
        used: set[int] = set()
        for p in range(head, n):
            if taken[p]:
                continue
            e = entry_at[p]
            if e in wanted:
                v = value_at[p]
                if v < 0 or v not in used:
                    wanted.discard(e)
                    used.add(v)
                    if checked and not completes(p + 1, wanted, used):
                        wanted.add(e)
                        used.discard(v)
                        continue
                    chosen.append(p)
                    if not wanted:
                        return chosen
        return None

    picks: list[list[int]] = []
    while len(picks) < max_picks:
        while head < n and taken[head]:
            head += 1
        pick = walk(False)
        if pick is None:
            if not completes(head, range(k), set()):
                break
            pick = walk(True)
        picks.append(pick)
        for p in pick:
            taken[p] = True
    return picks


def _emit_group(cells: Sequence[_Cell], cus_list: Sequence[frozenset[str]],
                rng: random.Random) -> list[Record | CounterfeitMember]:
    used = {c.record.sensitive for c in cells if c.record is not None}
    out: list[Record | CounterfeitMember] = []
    for cell in cells:
        if cell.record is not None:
            out.append(cell.record)
        else:
            options = sorted(cus_list[cell.entry] - used)
            if not options:
                raise InfeasibilityError("counterfeit value exhaustion")
            value = rng.choice(options)
            used.add(value)
            out.append(CounterfeitMember(value))
    return out


def _fallback_decompose(cells_by_entry: list[list[_Cell]]) -> list[list[_Cell]]:
    """Deterministic decomposition into delta one-per-entry groups with
    distinct real values: round-robin order repaired by bipartite
    edge-coloring (delta colors always suffice: column degree = delta and
    every value frequency <= delta), then a swap pass so no group is left
    all-counterfeit.  Each entry's cells come in the first QI attribute's
    queue order: reals by (index, id), then counterfeit slots by seq."""
    delta = len(cells_by_entry[0])
    k = len(cells_by_entry)
    # proper-coloring bookkeeping: per color, which columns/values are taken
    col_used: list[dict[int, _Cell]] = [dict() for _ in range(delta)]
    val_used: list[dict[str, _Cell]] = [dict() for _ in range(delta)]
    color_of: dict[tuple[int, int], int] = {}  # (entry, seq) -> color

    def insert(cell: _Cell) -> None:
        e, v = cell.entry, cell.record.sensitive
        free_e = [c for c in range(delta) if e not in col_used[c]]
        free_v = [c for c in range(delta) if v not in val_used[c]]
        common = set(free_e) & set(free_v)
        if common:
            c = min(common)
        else:
            a, b = free_e[0], free_v[0]
            # walk the a/b alternating path starting at value v (the path
            # can never loop back to column e, so swapping a<->b along it
            # frees color a at both endpoints)
            path: list[_Cell] = []
            at_value, node, want = True, v, a
            while True:
                nxt = (val_used[want].get(node) if at_value
                       else col_used[want].get(node))
                if nxt is None:
                    break
                path.append(nxt)
                node = nxt.entry if at_value else nxt.record.sensitive
                at_value = not at_value
                want = b if want == a else a
            flips = [(p, b if color_of[(p.entry, p.seq)] == a else a)
                     for p in path]
            for p, _ in flips:
                c_old = color_of[(p.entry, p.seq)]
                del col_used[c_old][p.entry]
                del val_used[c_old][p.record.sensitive]
            for p, c_new in flips:
                col_used[c_new][p.entry] = p
                val_used[c_new][p.record.sensitive] = p
                color_of[(p.entry, p.seq)] = c_new
            c = a
        col_used[c][e] = cell
        val_used[c][v] = cell
        color_of[(cell.entry, cell.seq)] = c

    for cells in cells_by_entry:
        for cell in cells:
            if cell.record is not None:
                insert(cell)
    # counterfeit slots take the leftover colors per column
    for cells in cells_by_entry:
        free = sorted(set(range(delta)) - {color_of[(c.entry, c.seq)]
                                           for c in cells
                                           if (c.entry, c.seq) in color_of})
        it = iter(free)
        for cell in cells:
            if cell.record is None:
                color_of[(cell.entry, cell.seq)] = next(it)
    groups: list[list[_Cell]] = [[None] * k for _ in range(delta)]
    for e in range(k):
        for cell in cells_by_entry[e]:
            groups[color_of[(cell.entry, cell.seq)]][e] = cell
    # no emitted group may be all-counterfeit: move a spare real in
    def reals(g: list[_Cell]) -> list[int]:
        return [i for i, c in enumerate(g) if c.record is not None]

    for gi, group in enumerate(groups):
        while not reals(group):
            donor = next(g for g in range(len(groups))
                         if len(reals(groups[g])) >= 2)
            for e in reals(groups[donor]):
                cell = groups[donor][e]
                v = cell.record.sensitive
                if all(c.record is None or c.record.sensitive != v
                       for c in group):
                    groups[donor][e], group[e] = group[e], cell
                    break
            else:  # pragma: no cover - a legal swap always exists
                raise AssertionError("stranded all-counterfeit group")
    return groups


def phase3_split(bucket: Bucket, schema: TableSchema, rng: random.Random,
                 ) -> list[list[Record | CounterfeitMember]]:
    """Pad every entry with counterfeit slots up to the bucket's delta, then
    recursively bisect the bucket into one-per-entry QI-groups.

    At each level, every QI attribute contributes one greedy pick-out
    sequence from its sorted queue; prefix sizes delta_A in 1..delta-1 form
    the candidate splits, children must stay balanced with F_max bounded by
    their entry size, and the minimum split score wins.  delta = 1 emits the
    group, drawing counterfeit sensitive values from the entry's CUS.

    A queue orders real cells by (index, record id), then counterfeit slots
    by (entry, seq).  The keys are unique, so each attribute is sorted once
    for the whole bucket and a child's queue is its parent's with the other
    child's cells filtered out.  Reals lead every queue, so side B's spans
    are two pointers over that prefix, and its largest value frequency only
    falls as side A grows.

    A pick is the first valid one in queue order, so the winning
    attribute's sequence is passed down: child A's is its first delta_A - 1
    picks, and child B's is the picks after delta_A.  An attribute whose
    sequence repeats an earlier one's scores the same and cannot win the
    tie-break, so it is not swept.
    """
    cus_list = bucket.signature.entries
    cells: list[_Cell] = []
    for e, entry in enumerate(bucket.entries):
        cells += [_Cell(e, s, rec) for s, rec in enumerate(entry)]
        cells += [_Cell(e, s, None) for s in range(len(entry), bucket.delta())]

    k = len(bucket.entries)
    qi = schema.qi
    n_attr = len(qi)
    entry_of = [c.entry for c in cells]
    value_ids: dict[str, int] = {}
    value_of = [-1 if c.record is None
                else value_ids.setdefault(c.record.sensitive, len(value_ids))
                for c in cells]
    n_values = len(value_ids)
    reals = [i for i, c in enumerate(cells) if c.record is not None]
    fakes = [i for i, c in enumerate(cells) if c.record is None]
    point = [() if c.record is None else _point(qi, c.record)
             for c in cells]
    root = [sorted(reals, key=lambda i: (point[i][j], cells[i].record.id))
            + fakes for j in range(n_attr)]

    extent = _Extents(qi)
    width, cover = extent.width, extent.cover
    mark = [0] * len(cells)
    stamp = 0
    out: list[list[Record | CounterfeitMember]] = []

    def recurse(orders: list[list[int]], n_real: int,
                known: tuple[int, list[list[int]]] | None) -> None:
        """`known`: an attribute position and this node's pick sequence on
        it, when the parent's sequence already gave it."""
        nonlocal stamp
        first = orders[0]
        delta = len(first) // k
        if delta == 1:
            group: list[_Cell] = [None] * k
            for c in first:
                group[entry_of[c]] = cells[c]
            out.append(_emit_group(group, cus_list, rng))
            return
        parent_extents = [extent.of(j, point[o[0]][j], point[o[n_real - 1]][j])
                          for j, o in enumerate(orders)]
        freq = [0] * n_values
        for c in first[:n_real]:
            freq[value_of[c]] += 1
        hist = [0] * (max(freq) + 1)     # hist[f]: values with frequency f
        for f in freq:
            hist[f] += 1
        # candidate scores share the denominator prod(parent_extents), so they
        # compare as integer numerators sum_side |side| * sum_j ext_j * cof[j]
        denom = prod(parent_extents)
        cof = [denom // e for e in parent_extents]

        best_score = 0
        best = None  # (attr_pos, delta_a, picks)
        swept: list[list[list[int]]] = []
        for attr_pos, queue in enumerate(orders):
            if known is not None and known[0] == attr_pos:
                picks = known[1]
            else:
                found = _pick_sequence(
                    [entry_of[c] for c in queue], [value_of[c] for c in queue],
                    k, delta - 1)
                picks = [[queue[p] for p in pick] for pick in found]
            if not picks or picks in swept:
                continue
            swept.append(picks)
            # sweep delta_a over pick prefixes; side B's largest frequency
            # only falls, tracked with a histogram of frequencies, and each
            # side's score numerator changes only with the spans that moved:
            # A's as a member widens one, B's once a scored step finds a
            # pointer's cell taken
            stamp += 1
            b_freq = freq[:]
            b_hist = hist[:]
            f_max = len(hist) - 1
            lo_ptr = [0] * n_attr
            hi_ptr = [n_real - 1] * n_attr
            a_lo = [sys.maxsize] * n_attr
            a_hi = [-1] * n_attr
            a_ext = [0] * n_attr
            b_ext = parent_extents[:]        # B starts as the whole node
            a_num = 0
            b_num = n_attr * denom
            a_reals = 0
            for delta_a, pick in enumerate(picks, start=1):
                for c in pick:
                    v = value_of[c]
                    if v < 0:
                        continue
                    mark[c] = stamp
                    a_reals += 1
                    f = b_freq[v]
                    b_freq[v] = f - 1
                    b_hist[f] -= 1
                    b_hist[f - 1] += 1
                    if f == f_max and not b_hist[f]:
                        f_max -= 1
                    for j, i in enumerate(point[c]):
                        lo = a_lo[j]
                        hi = a_hi[j]
                        if lo <= i <= hi:
                            continue
                        if i < lo:
                            a_lo[j] = lo = i
                        if i > hi:
                            a_hi[j] = hi = i
                        w = width[j]
                        x = cover[j][lo * w + hi] if w else hi - lo + 1
                        a_num += (x - a_ext[j]) * cof[j]
                        a_ext[j] = x
                b_reals = n_real - a_reals
                if a_reals == 0 or b_reals == 0:
                    continue
                if f_max > delta - delta_a:
                    continue
                # F_max(A) <= delta_a holds by construction (distinct per pick)
                for j, o in enumerate(orders):
                    lo = lo_ptr[j]
                    hi = hi_ptr[j]
                    if mark[o[lo]] != stamp and mark[o[hi]] != stamp:
                        continue
                    while mark[o[lo]] == stamp:
                        lo += 1
                    while mark[o[hi]] == stamp:
                        hi -= 1
                    lo_ptr[j] = lo
                    hi_ptr[j] = hi
                    lo, hi, w = point[o[lo]][j], point[o[hi]][j], width[j]
                    x = cover[j][lo * w + hi] if w else hi - lo + 1
                    b_num += (x - b_ext[j]) * cof[j]
                    b_ext[j] = x
                score = a_reals * a_num + b_reals * b_num
                # candidates come in increasing (attr_pos, delta_a), so
                # only a strictly lower score can win the tie-break
                if best is None or score < best_score:
                    best_score = score
                    best = (attr_pos, delta_a, picks)
        if best is None:
            by_entry: list[list[_Cell]] = [[] for _ in range(k)]
            for c in first:
                by_entry[entry_of[c]].append(cells[c])
            for group in _fallback_decompose(by_entry):
                out.append(_emit_group(group, cus_list, rng))
            return
        attr_pos, delta_a, picks = best
        stamp += 1
        side = stamp
        a_reals = 0
        for pick in picks[:delta_a]:
            for c in pick:
                mark[c] = side
                a_reals += value_of[c] >= 0
        child_a = [[c for c in o if mark[c] == side] for o in orders]
        child_b = [[c for c in o if mark[c] != side] for o in orders]
        recurse(child_a, a_reals, (attr_pos, picks[:delta_a - 1]))
        recurse(child_b, n_real - a_reals, (attr_pos, picks[delta_a:]))

    recurse(root, len(reals), None)
    return out


# ---------------------------------------------------------------------------
# static partitioner for first-timers


def _color_key(rec: Record, model: UpdateModel, star: bool):
    if star:
        return model.cus_key(rec.sensitive)
    return rec.sensitive


def _deal(records: list[Record], n_groups: int, model: UpdateModel,
          star: bool) -> Iterator[list[Record]]:
    """Rarest-color-first cyclic deal; a color's records land in distinct
    groups because consecutive cursor slots never repeat within n_groups.
    Ids are unique, so the deal does not depend on the records' order.
    In star mode each group is checked as it is yielded, so a caller that
    pads group by group meets a failing check and a failing pad in deal
    order."""
    by_color: dict = {}
    for rec in records:
        by_color.setdefault(_color_key(rec, model, star), []).append(rec)
    groups: list[list[Record]] = [[] for _ in range(n_groups)]
    cursor = 0
    for color in sorted(by_color, key=lambda c: (len(by_color[c]), c)):
        for rec in sorted(by_color[color], key=lambda r: r.id):
            groups[cursor % n_groups].append(rec)
            cursor += 1
    for group in groups:
        if star:
            _check_star(group, model)
        yield group


def _pad_group(group: list[Record | CounterfeitMember], m: int,
               model: UpdateModel, star: bool, rng: random.Random,
               ) -> list[Record | CounterfeitMember]:
    def value_of(x):
        return x.sensitive

    while len(group) < m:
        used = {value_of(x) for x in group}
        if star:
            taken = [model.cus_of(value_of(x)) for x in group]
            options = sorted(v for v in model.sensitive_domain
                             if all(not (model.cus_of(v) & t) for t in taken))
        else:
            options = sorted(v for v in model.sensitive_domain if v not in used)
        if not options:
            raise InfeasibilityError(
                "sensitive domain too small to pad a group to m distinct "
                "values" + (" with disjoint CUS" if star else ""))
        group.append(CounterfeitMember(rng.choice(options)))
    return group


def static_partition(records: Sequence[Record], m: int, schema: TableSchema,
                     model: UpdateModel, rng: random.Random,
                     star: bool = False) -> list[list[Record | CounterfeitMember]]:
    """Partition history-free records into m-unique groups.

    Top-down: recursively apply the best eligible cut (multiples of m along
    each attribute's sorted order, minimum split score), then deal each leaf
    rarest-value-first into floor(N/m) groups.  An ineligible root pool
    falls back to a counterfeit-padded deal.  In star mode the distinctness
    unit is the whole CUS, making group CUS's pairwise disjoint.

    Records are sorted by (index, id) along each attribute once, and a
    child's orders are its parent's filtered.  Every cut of one node shares
    the split score's denominator, the product of the node's extents, so
    cuts are ranked by integer numerators.  Each side's numerator is carried
    along its scan as the side's spans widen, and no cut rebuilds it.
    """
    if not records:
        return []
    out: list[list[Record | CounterfeitMember]] = []
    pool = sorted(records, key=lambda r: r.id)
    keys = [_color_key(r, model, star) for r in pool]
    f_root = max(Counter(keys).values())
    if len(pool) < m or f_root > len(pool) // m:
        # not m-eligible: deal into max-frequency many groups, pad with
        # counterfeits
        for group in _deal(pool, f_root, model, star):
            out.append(_pad_group(group, m, model, star, rng))
        return out

    qi = schema.qi
    n_attr = len(qi)
    color_ids: dict = {}
    color = [color_ids.setdefault(key, len(color_ids)) for key in keys]
    point = [_point(qi, rec) for rec in pool]
    extent = _Extents(qi)
    width, cover = extent.width, extent.cover

    def side_numerators(order: list[int], cof: list[int], forward: bool,
                        ) -> dict[int, int]:
        """cut -> numerator of the side before (forward) or after the cut,
        for every cut at a multiple of m that leaves that side m-eligible."""
        n = len(order)
        lo = [sys.maxsize] * n_attr
        hi = [-1] * n_attr
        ext = [0] * n_attr
        num = 0
        freq = [0] * len(color_ids)
        f_max = 0
        found = {}
        for size, p in enumerate(range(n - 1) if forward
                                 else range(n - 1, 0, -1), start=1):
            r = order[p]
            for j, i in enumerate(point[r]):
                a, b = lo[j], hi[j]
                if a <= i <= b:
                    continue
                if i < a:
                    lo[j] = a = i
                if i > b:
                    hi[j] = b = i
                w = width[j]
                x = cover[j][a * w + b] if w else b - a + 1
                num += (x - ext[j]) * cof[j]
                ext[j] = x
            c = color[r]
            freq[c] += 1
            if freq[c] > f_max:
                f_max = freq[c]
            cut = size if forward else n - size
            # a side of fewer than m records fails the frequency test
            if cut % m or f_max > size // m:
                continue
            found[cut] = num
        return found

    def recurse(orders: list[list[int]]) -> None:
        n = len(orders[0])
        best = None  # (numerator, attr_pos, cut)
        if n >= 2 * m:
            parent = [extent.of(j, point[o[0]][j], point[o[-1]][j])
                      for j, o in enumerate(orders)]
            denom = prod(parent)
            cof = [denom // e for e in parent]
            for attr_pos, order in enumerate(orders):
                after = side_numerators(order, cof, forward=False)
                before = side_numerators(order, cof, forward=True)
                for cut, a_num in before.items():
                    if cut not in after:
                        continue
                    score = cut * a_num + (n - cut) * after[cut]
                    # candidates come in increasing (attr_pos, cut), so
                    # only a strictly lower score wins the tie-break
                    if best is None or score < best[0]:
                        best = (score, attr_pos, cut)
        if best is None:
            out.extend(_deal([pool[i] for i in orders[0]], max(n // m, 1),
                             model, star))
            return
        _, attr_pos, cut = best
        side_a = set(orders[attr_pos][:cut])
        recurse([[i for i in o if i in side_a] for o in orders])
        recurse([[i for i in o if i not in side_a] for o in orders])

    recurse([sorted(range(len(pool)), key=lambda i: (point[i][j], i))
             for j in range(n_attr)])
    return out


def _check_star(group: Sequence[Record | CounterfeitMember],
                model: UpdateModel) -> None:
    # distinct CUS keys do not guarantee disjointness when one CUS nests
    # inside another, so verify before publishing
    if not pairwise_disjoint(model.cus_of(x.sensitive) for x in group):
        raise InfeasibilityError("static partition cannot keep group CUS "
                                 "pairwise disjoint under this update model")


# ---------------------------------------------------------------------------
# publish / verify


def publish(records: Sequence[Record], state: EngineState,
            model: UpdateModel, schema: TableSchema, seed: int,
            ) -> tuple[PublishedRelease, EngineState]:
    """Run phases 1-3 and emit the next release, updating per-record state."""
    rng = random.Random(seed)
    ordered = sorted(records, key=lambda r: r.id)
    if len({r.id for r in ordered}) != len(ordered):
        raise ValidationError("duplicate record ids in one release")
    for rec in ordered:
        schema.validate_record(rec)
    returning = [r for r in ordered if r.id in state.prev]
    for rec in returning:
        last = state.prev[rec.id].release_index
        if last != state.release_count:
            # the attack and verify model one update step between a
            # record's consecutive appearances, so a gap is refused
            raise ValidationError(
                f"record {rec.id!r} last appeared in release {last} and "
                f"returns in release {state.release_count + 1}; a record "
                f"may not skip a release")
    buckets = phase1_create_buckets([state.prev[r.id].signature
                                     for r in returning])
    pool = phase2_assign(ordered, state.prev, buckets, schema,
                         star=state.star)
    groups: list[list[Record | CounterfeitMember]] = []
    for bucket in buckets:
        if bucket.size == 0:
            continue  # over-generated candidate, nothing assigned
        groups.extend(phase3_split(bucket, schema, rng))
    groups.extend(static_partition(pool, state.m, schema, model, rng,
                                   star=state.star))
    if not groups:
        raise ValidationError("nothing to publish")
    release = generalize(schema, state.release_count + 1, groups)
    state.apply(release, model)
    return release, state


def verify_m_distinct(releases: Sequence[PublishedRelease],
                      model: UpdateModel, m: int,
                      star: bool = False) -> tuple[bool, list[str]]:
    """Check every release is m-unique with each record in one group, every
    record's candidate set is a legal update instance of its previous
    group's signature, and no record skips a release between two of its
    appearances (star mode: CUS of first-appearance groups pairwise
    disjoint).  Each release is folded into the state once checked."""
    violations: list[str] = []
    state = EngineState(m)
    for rel in sorted(releases, key=lambda r: r.release_index):
        i = rel.release_index
        placed: set[str] = set()
        for group in rel.groups:
            where = f"release {i} group {group.gid}"
            values = group.values
            if len(group.members) < m:
                violations.append(f"{where}: fewer than {m} members")
            if len(set(values)) != len(values):
                violations.append(f"{where}: duplicate sensitive values")
            first_timer = any(not mm.counterfeit and mm.rid not in state.prev
                              for mm in group.members)
            if star and first_timer and not pairwise_disjoint(
                    model.cus_of(v) for v in values):
                violations.append(f"{where}: first-release CUS not pairwise "
                                  f"disjoint")
            for member in group.members:
                if member.counterfeit:
                    continue
                if member.rid in placed:
                    violations.append(f"release {i}: id {member.rid!r} "
                                      f"appears in two groups")
                    continue
                placed.add(member.rid)
                prev = state.prev.get(member.rid)
                if prev is None:
                    continue
                if prev.release_index < i - 1:
                    violations.append(
                        f"{where}: {member.rid!r} last appeared in release "
                        f"{prev.release_index}; a record may not skip a "
                        f"release")
                if not is_legal_update_instance(values, prev.signature):
                    violations.append(
                        f"{where}: candidate set not a legal update instance "
                        f"of {member.rid!r}'s previous signature")
        state.apply(rel, model)
    return (not violations, violations)
