"""Three-phase m-Distinct publisher.

Phase 1 creates buckets keyed by update-set signatures (plus best pairwise
intersections), phase 2 greedily assigns records to bucket entries by a
counterfeit/generalization score, phase 3 pads every entry of a bucket
with counterfeit slots up to the bucket's delta and splits it, top down,
into QI-groups with one member per entry and distinct sensitive values.
First-timers with no usable bucket go through a static Mondrian-style
partitioner.  Both top-down partitioners pick their cuts with one split
sweep (`_Sweep`).  Phase 3's split is a function of the bucket alone;
`publish` draws the counterfeit values group by group, bucket by bucket,
then the static partitioner's pads, so the seed chooses counterfeit
values and nothing else.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InfeasibilityError, ValidationError
from .model import (AttributeSchema, CounterfeitMember, PublishedRelease,
                    Record, TableSchema, generalize, in_release_order)
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
    schema.  The split sweep's inner loops inline `of`."""

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


class Bucket:
    """A signature bucket: one entry (record list) per CUS of the signature.

    `_place` keeps the state phase 2 scores against up to date: the size, the
    largest sensitive-value frequency and entry size, and each attribute's
    span of member QI indices with its extent and the extents' product.
    """

    __slots__ = ("signature", "origin", "entries", "freq", "size",
                 "extent_product", "_f_max", "_largest", "_lo", "_hi", "_ext")

    def __init__(self, signature: USS, origin: str):
        self.signature = signature
        self.origin = origin  # "signature" | "intersection"
        self.entries: list[list[Record]] = [[] for _ in signature.entries]
        self.freq: Counter = Counter()
        self.size = 0
        self.extent_product = 1  # 1 while empty
        self._f_max = 0
        self._largest = 0
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._ext: list[int] = []

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
    queue = list(dict.fromkeys(prev_signatures))
    seen = set(queue)
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
    """What the publisher carries from one release to the next: each real
    record's previous publication, and two memos that outlive a release.

    `signatures` maps a sorted tuple of CUS keys to its `USS`, so a
    signature is built once per state, the first time a group with that
    tuple is folded in.  `verdicts` holds the `implies` verdict of each
    (previous signature, bucket signature) pair phase 2 has asked about.
    Both are exact: a `USS` is its key, and `implies` reads nothing but
    the two signatures.  They grow with the distinct keys and pairs the
    history has shown."""

    m: int
    mode: str = "m_distinct"
    release_count: int = 0
    prev: dict[str, PrevInfo] = field(default_factory=dict)
    signatures: dict[tuple, USS] = field(default_factory=dict)
    verdicts: dict[tuple[USS, USS], bool] = field(default_factory=dict)

    @property
    def star(self) -> bool:
        return self.mode == "m_distinct_star"

    def implied(self, previous: USS, bucket: USS) -> bool:
        """`implies(previous, bucket)`, decided once per state."""
        pair = (previous, bucket)
        ok = self.verdicts.get(pair)
        if ok is None:
            ok = self.verdicts[pair] = implies(previous, bucket)
        return ok

    def apply(self, release: PublishedRelease, model: UpdateModel) -> None:
        """Fold a release in: each real member's value, its group's
        signature and the release index become its previous publication.

        A group's `USS.key` is the sorted tuple of its values' CUS keys,
        read off `model.cus_keys`, so groups with the same such tuple, in
        this release or an earlier one, share one `USS`.  The publisher,
        `verify_m_distinct` and `HistoryStore.replay_state` all fold with
        it, so each entry is made by `tuple.__new__`, not by the named
        tuple's Python-level constructor."""
        signatures = self.signatures
        cus_keys = model.cus_keys
        index = release.release_index
        prev = self.prev
        new = tuple.__new__
        for group in release.groups:
            values = group.values
            try:
                key = tuple(sorted(map(cus_keys.__getitem__, values)))
            except KeyError:
                for v in values:
                    model.cus_key(v)  # names the first value outside it
                raise
            sig = signatures.get(key)
            if sig is None:
                sig = signatures[key] = uss_of(values, model)
            for rid, value, counterfeit in group.members:
                if not counterfeit:
                    prev[rid] = new(PrevInfo, (value, sig, index))
        self.release_count = index


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


def phase2_assign(records: Sequence[Record], state: EngineState,
                  buckets: Sequence[Bucket],
                  schema: TableSchema) -> list[Record]:
    """Assign records to bucket entries in increasing CNT_buc order.

    Returns the leftover pool (CNT_buc = 0, necessarily first-timers) for
    the static partitioner.  A returning record with no bucket means the
    microdata contradicts the update model, which is an input error.
    Previous publications, the mode and the `implies` verdicts come from
    `state`; the verdicts it has not seen yet are added to it.

    Eligibility is one rule over two tables built once per call: the
    covering index, each value's (bucket, entry ids) pairs in bucket and
    entry order, and the allowed table, each previous signature's set of
    buckets that `state.implied` accepts, built when the signature first
    comes up.  Its `None` row, for first-timers, is every bucket (star
    mode: those with pairwise-disjoint entries).  A record's options are
    its value's covering pairs whose bucket is in its signature's row.
    In one bucket lam does not depend on the entry and a larger epsilon
    always scores higher (1/lam > 0 > -lam), so the best entry has the
    largest epsilon, then the fewest records, then comes first.  That is
    the first least-filled eligible entry: in an empty bucket every
    entry's epsilon is +1, when the value's frequency equals delta every
    entry's is -1, and otherwise epsilon is -1 exactly on the entries
    already holding delta records, so `_epsilon` runs once per bucket, on
    that entry.  Scores are compared as integer pairs by
    cross-multiplication.  No option scores above 1 and ties keep the
    first, so the scan stops at the first score 1: epsilon +1 and an
    extent product that does not grow (a categorical point outside the
    spans can), as in an empty bucket.
    """
    covering: dict[str, list[tuple[int, list[int]]]] = {}
    for b, bucket in enumerate(buckets):
        entry_ids: dict[str, list[int]] = {}
        for i, cus in enumerate(bucket.signature.entries):
            for value in cus:
                entry_ids.setdefault(value, []).append(i)
        for value, ids in entry_ids.items():
            covering.setdefault(value, []).append((b, ids))
    allowed: dict[USS | None, set[int]] = {}
    prev_of = state.prev
    pool: list[Record] = []
    assignable: list[tuple[int, str, Record, list, tuple[int, ...]]] = []
    for rec in records:
        prev = prev_of.get(rec.id)
        signature = None if prev is None else prev.signature
        row = allowed.get(signature)
        if row is None:
            row = allowed[signature] = {
                b for b, bucket in enumerate(buckets)
                if (not state.star
                    or pairwise_disjoint(bucket.signature.entries)
                    if signature is None
                    else state.implied(signature, bucket.signature))}
        options = [option for option in covering.get(rec.sensitive, ())
                   if option[0] in row]
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
                if num == den:
                    break   # the score 1, which no later option beats
        buckets[best[0]]._place(rec, best[1], point, extent)
    return pool


# ---------------------------------------------------------------------------
# the split sweep of phase 3 and the static partitioner


class _Sweep:
    """The split sweep and child split of both top-down partitioners.

    A cell is an index into `point`, its QI indices, and `value_of`, its
    value id (star mode: its CUS key's), or -1 for a counterfeit slot.  A
    node is its orders, one list of its cells per QI attribute with its
    n_real real cells first, sorted by index.  Cell c is on side A of the
    current sweep or split while `mark[c] == stamp`."""

    __slots__ = ("point", "value_of", "n_values", "extent", "mark", "stamp")

    def __init__(self, qi: Sequence[AttributeSchema],
                 point: Sequence[Sequence[int]], value_of: Sequence[int]):
        self.point = point
        self.value_of = value_of
        self.n_values = max(value_of, default=-1) + 1
        self.extent = _Extents(qi)
        self.mark = [0] * len(point)
        self.stamp = 0

    def best(self, orders: list[list[int]], n_real: int,
             sequences: Sequence[Sequence[int]], unit: int,
             ) -> tuple[int, int] | None:
        """The lowest-scoring (attribute position, cut), or None.

        Side A is the first `cut` cells of `sequences[attr_pos]`, side B the
        rest of the node.  A cut comes after every `unit` cells and is a
        candidate when each side holds a real cell and no value more than
        cells(side) // unit times, so B keeps `unit` cells at least.  The
        split score's denominator, prod(parent extents), is shared, so a
        cut scores reals_A * num_A + reals_B * num_B, num being a side's
        sum_j ext_j * cof[j].  Ties go to the first (attr_pos, cut).

        A's numerator changes as its real cells widen its spans.  B's spans
        are two pointers per order over the node's reals, moved past A's
        cells only when a candidate is scored, and B's largest value
        frequency only falls, tracked with a histogram of frequencies.

        Every extent is at least 1, so num_B >= floor = sum_j cof[j], and
        a cut scores at least a_reals * (num_A - floor) + n_real * floor.
        Later cuts of the sequence only widen side A, so that bound never
        falls along it: once it reaches the best score so far, no later
        cut of the sequence can win, ties going to the first."""
        total = len(orders[0])
        if total < 2 * unit:
            return None
        point, value_of, mark = self.point, self.value_of, self.mark
        extent = self.extent
        width, cover = extent.width, extent.cover
        n_attr = len(orders)
        n_values = self.n_values
        parent = [extent.of(j, point[o[0]][j], point[o[n_real - 1]][j])
                  for j, o in enumerate(orders)]
        denom = prod(parent)
        cof = [denom // e for e in parent]
        floor = sum(cof)
        n_floor = n_real * floor
        freq = [0] * n_values
        for c in orders[0][:n_real]:
            freq[value_of[c]] += 1
        hist = [0] * (max(freq) + 1)     # hist[f]: values with frequency f
        for f in freq:
            hist[f] += 1

        best_score = 0
        best = None
        for attr_pos, seq in enumerate(sequences):
            self.stamp += 1
            stamp = self.stamp
            a_freq = [0] * n_values
            a_max = 0
            b_freq = freq[:]
            b_hist = hist[:]
            b_max = len(hist) - 1
            lo_ptr = [0] * n_attr
            hi_ptr = [n_real - 1] * n_attr
            a_lo = [sys.maxsize] * n_attr
            a_hi = [-1] * n_attr
            a_ext = [0] * n_attr
            b_ext = parent[:]                # B starts as the whole node
            a_num = 0
            b_num = n_attr * denom
            a_reals = 0
            for cut in range(unit, min(len(seq), total - unit) + 1, unit):
                for c in seq[cut - unit:cut]:
                    v = value_of[c]
                    if v < 0:
                        continue
                    mark[c] = stamp
                    a_reals += 1
                    f = a_freq[v] + 1
                    a_freq[v] = f
                    if f > a_max:
                        a_max = f
                    f = b_freq[v]
                    b_freq[v] = f - 1
                    b_hist[f] -= 1
                    b_hist[f - 1] += 1
                    if f == b_max and not b_hist[f]:
                        b_max -= 1
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
                if (best is not None
                        and a_reals * (a_num - floor) + n_floor >= best_score):
                    break
                b_reals = n_real - a_reals
                if (not a_reals or not b_reals or a_max > cut // unit
                        or b_max > (total - cut) // unit):
                    continue
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
                if best is None or score < best_score:
                    best_score = score
                    best = (attr_pos, cut)
        return best

    def split(self, orders: list[list[int]], side: Iterable[int],
              ) -> tuple[list[list[int]], list[list[int]]]:
        """The orders of the child holding the cells of `side` and of the
        other child: the parent's orders, filtered, so still sorted."""
        self.stamp += 1
        stamp = self.stamp
        mark = self.mark
        for c in side:
            mark[c] = stamp
        return ([[c for c in o if mark[c] == stamp] for o in orders],
                [[c for c in o if mark[c] != stamp] for o in orders])


# ---------------------------------------------------------------------------
# phase 3


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


def _emit_group(records: Sequence[Record | None],
                cus_list: Sequence[frozenset[str]],
                rng: random.Random) -> list[Record | CounterfeitMember]:
    """One member per entry: its record, or for a counterfeit slot (None) a
    value drawn from the entry's CUS that the group does not hold yet."""
    used = {rec.sensitive for rec in records if rec is not None}
    out: list[Record | CounterfeitMember] = []
    for e, rec in enumerate(records):
        if rec is not None:
            out.append(rec)
        else:
            options = sorted(cus_list[e] - used)
            if not options:
                raise InfeasibilityError("counterfeit value exhaustion")
            value = rng.choice(options)
            used.add(value)
            out.append(CounterfeitMember(value))
    return out


def _fallback_decompose(by_entry: list[list[int]], value_of: Sequence[int],
                        ) -> list[list[int]]:
    """Deterministic decomposition of cells into delta one-per-entry groups
    with distinct real values: round-robin order repaired by bipartite
    edge-coloring (delta colors always suffice: column degree = delta and
    every value frequency <= delta), then a swap pass so no group is left
    all-counterfeit.  `by_entry[e]` lists entry e's cells in the first QI
    attribute's queue order: reals by (index, id), then counterfeit slots
    (value_of < 0); a group lists one cell per entry."""
    delta = len(by_entry[0])
    entry_of = {c: e for e, cells in enumerate(by_entry) for c in cells}
    # proper-coloring bookkeeping: per color, which columns/values are taken
    col_used: list[dict[int, int]] = [dict() for _ in range(delta)]
    val_used: list[dict[int, int]] = [dict() for _ in range(delta)]
    color_of: dict[int, int] = {}

    def insert(cell: int) -> None:
        e, v = entry_of[cell], value_of[cell]
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
            path: list[int] = []
            at_value, node, want = True, v, a
            while True:
                nxt = (val_used[want].get(node) if at_value
                       else col_used[want].get(node))
                if nxt is None:
                    break
                path.append(nxt)
                node = entry_of[nxt] if at_value else value_of[nxt]
                at_value = not at_value
                want = b if want == a else a
            for p in path:
                del col_used[color_of[p]][entry_of[p]]
                del val_used[color_of[p]][value_of[p]]
            for p in path:
                color_of[p] = b if color_of[p] == a else a
                col_used[color_of[p]][entry_of[p]] = p
                val_used[color_of[p]][value_of[p]] = p
            c = a
        col_used[c][e] = cell
        val_used[c][v] = cell
        color_of[cell] = c

    for cells in by_entry:
        for cell in cells:
            if value_of[cell] >= 0:
                insert(cell)
    # counterfeit slots take the leftover colors per column
    for cells in by_entry:
        free = iter(sorted(set(range(delta))
                           - {color_of[c] for c in cells if c in color_of}))
        for cell in cells:
            if value_of[cell] < 0:
                color_of[cell] = next(free)
    groups = [[0] * len(by_entry) for _ in range(delta)]
    for e, cells in enumerate(by_entry):
        for cell in cells:
            groups[color_of[cell]][e] = cell
    # no emitted group may be all-counterfeit: move a spare real in (any
    # real fits a group that holds none)
    def reals(group: list[int]) -> list[int]:
        return [e for e, c in enumerate(group) if value_of[c] >= 0]

    for group in groups:
        if not reals(group):
            donor = next(g for g in groups if len(reals(g)) >= 2)
            e = reals(donor)[0]
            donor[e], group[e] = group[e], donor[e]
    return groups


def phase3_split(bucket: Bucket, schema: TableSchema,
                 ) -> list[list[Record | None]]:
    """Pad every entry with counterfeit slots up to the bucket's delta, then
    bisect the bucket, top down, into one-per-entry QI-groups: one slot per
    entry, its record or None for a counterfeit slot.  The split is a
    function of the bucket; `publish` draws the counterfeit values
    (`_emit_group`).

    At each level, every QI attribute contributes one greedy pick-out
    sequence from its sorted queue, and the split sweep (`_Sweep.best`)
    cuts it after each pick, with unit k: side A is the first delta_A
    picks.  A pick holds one cell per entry, so the children's entries hold
    delta_A and delta - delta_A cells, and distinct values, so A meets the
    sweep's frequency bound by construction and B may hold no value more
    than delta - delta_A times.  delta = 1 is a group.

    A cell is an index: the reals in entry order, then each entry's
    counterfeit slots.  A queue orders real cells by (index, record id),
    then the slots by cell.  The keys are unique, so each attribute is
    sorted once for the whole bucket and a child's queue is its parent's
    with the other child's cells filtered out (`_Sweep.split`).

    A pick is the first valid one in queue order, so the winning
    attribute's sequence is passed down: child A's is its first delta_A - 1
    picks, and child B's is the picks after delta_A.  An attribute whose
    sequence repeats an earlier one's scores the same and cannot win the
    tie-break, so it is not swept.
    """
    entries = bucket.entries
    record_of: list[Record | None] = [rec for entry in entries
                                      for rec in entry]
    entry_of = [e for e, entry in enumerate(entries) for _ in entry]
    n_real = len(record_of)
    for e, entry in enumerate(entries):
        slots = bucket.delta() - len(entry)
        record_of += [None] * slots
        entry_of += [e] * slots

    k = len(entries)
    qi = schema.qi
    value_ids: dict[str, int] = {}
    value_of = [-1 if rec is None
                else value_ids.setdefault(rec.sensitive, len(value_ids))
                for rec in record_of]
    point = [() if rec is None else _point(qi, rec) for rec in record_of]
    root = [sorted(range(n_real),
                   key=lambda i: (point[i][j], record_of[i].id))
            + list(range(n_real, len(record_of))) for j in range(len(qi))]
    sweep = _Sweep(qi, point, value_of)
    out: list[list[int]] = []        # groups of cells, in entry order

    # a node: its orders, its real-cell count, and `known`, an attribute
    # position and the node's pick sequence on it, its picks' cells in pick
    # order, when the parent's sequence already gave it.  Child B is pushed
    # before child A, so nodes are taken depth first, A before B.
    stack: list[tuple[list[list[int]], int, tuple | None]] = [
        (root, n_real, None)]
    while stack:
        orders, reals, known = stack.pop()
        first = orders[0]
        delta = len(first) // k
        if delta == 1:
            out.append(sorted(first, key=entry_of.__getitem__))
            continue
        sequences: list[list[int]] = []
        for attr_pos, queue in enumerate(orders):
            if known is not None and known[0] == attr_pos:
                seq = known[1]
            else:
                seq = [queue[p] for pick in _pick_sequence(
                    [entry_of[c] for c in queue], [value_of[c] for c in queue],
                    k, delta - 1) for p in pick]
            sequences.append([] if seq in sequences else seq)
        best = sweep.best(orders, reals, sequences, k)
        if best is None:
            by_entry: list[list[int]] = [[] for _ in range(k)]
            for c in first:
                by_entry[entry_of[c]].append(c)
            out += _fallback_decompose(by_entry, value_of)
            continue
        attr_pos, cut = best
        seq = sequences[attr_pos]
        child_a, child_b = sweep.split(orders, seq[:cut])
        a_reals = sum(value_of[c] >= 0 for c in seq[:cut])
        stack.append((child_b, reals - a_reals, (attr_pos, seq[cut:])))
        stack.append((child_a, a_reals, (attr_pos, seq[:cut - k])))
    return [[record_of[c] for c in group] for group in out]


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
    while len(group) < m:
        used = {x.sensitive for x in group}
        if star:
            taken = [model.cus_of(x.sensitive) for x in group]
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

    Top-down: keep applying the best eligible cut, then deal each leaf
    rarest-value-first into floor(N/m) groups.  The cut is the split
    sweep's (`_Sweep.best`) over each attribute's order as it stands with
    unit m: a cut at a multiple of m whose sides are both m-eligible, with
    the minimum split score.  An ineligible root pool falls back to a
    counterfeit-padded deal.  In star mode the distinctness unit is the
    whole CUS, making group CUS's pairwise disjoint.

    Records are sorted by (index, id) along each attribute once, and a
    child's orders are its parent's filtered (`_Sweep.split`).
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
    color_ids: dict = {}
    color = [color_ids.setdefault(key, len(color_ids)) for key in keys]
    point = [_point(qi, rec) for rec in pool]
    sweep = _Sweep(qi, point, color)

    # child B is pushed before child A, so nodes are taken depth first,
    # A before B
    stack = [[sorted(range(len(pool)), key=lambda i: (point[i][j], i))
              for j in range(len(qi))]]
    while stack:
        orders = stack.pop()
        n = len(orders[0])
        best = sweep.best(orders, n, orders, m)
        if best is None:
            out.extend(_deal([pool[i] for i in orders[0]], max(n // m, 1),
                             model, star))
            continue
        attr_pos, cut = best
        child_a, child_b = sweep.split(orders, orders[attr_pos][:cut])
        stack += (child_b, child_a)
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
    pool = phase2_assign(ordered, state, buckets, schema)
    groups: list[list[Record | CounterfeitMember]] = []
    for bucket in buckets:
        if bucket.size == 0:
            continue  # over-generated candidate, nothing assigned
        groups += (_emit_group(group, bucket.signature.entries, rng)
                   for group in phase3_split(bucket, schema))
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
    disjoint).  A release index given twice is refused.

    Each release is folded into the state once checked, so each distinct
    signature is built once.  Legality depends only on the group's values
    and the previous signature, so it is decided once per group for each
    distinct previous signature among its returning members; each failing
    member still gets its own violation line, in member order.  Each
    member is unpacked once, and a group's place is spelled out only in
    the violations that name it.  Star mode's CUS test waits for the
    member walk to find a first-timer, and its line goes before the
    group's member lines."""
    violations: list[str] = []
    state = EngineState(m)
    prev = state.prev
    for rel in in_release_order(releases):
        i = rel.release_index
        placed: set[str] = set()
        for group in rel.groups:
            values = group.values
            if len(group.members) < m:
                violations.append(f"release {i} group {group.gid}: fewer "
                                  f"than {m} members")
            if len(set(values)) != len(values):
                violations.append(f"release {i} group {group.gid}: "
                                  f"duplicate sensitive values")
            at = len(violations)
            first_timer = False
            legal: dict[USS, bool] = {}
            for rid, _, counterfeit in group.members:
                if counterfeit:
                    continue
                before = prev.get(rid)
                if before is None:
                    first_timer = True
                if rid in placed:
                    violations.append(f"release {i}: id {rid!r} appears in "
                                      f"two groups")
                    continue
                placed.add(rid)
                if before is None:
                    continue
                _, signature, last = before
                if last < i - 1:
                    violations.append(
                        f"release {i} group {group.gid}: {rid!r} last "
                        f"appeared in release {last}; a record may not skip "
                        f"a release")
                ok = legal.get(signature)
                if ok is None:
                    ok = legal[signature] = is_legal_update_instance(
                        values, signature)
                if not ok:
                    violations.append(
                        f"release {i} group {group.gid}: candidate set not a "
                        f"legal update instance of {rid!r}'s previous "
                        f"signature")
            if star and first_timer and not pairwise_disjoint(
                    model.cus_of(v) for v in values):
                violations.insert(at, f"release {i} group {group.gid}: "
                                      f"first-release CUS not pairwise "
                                      f"disjoint")
        state.apply(rel, model)
    return (not violations, violations)
