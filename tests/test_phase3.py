"""Phase-3 split kernel against the straightforward implementation.

`reference_phase3_split` is the per-level kernel that `engine.phase3_split`
replaced: it re-sorts every cell per attribute at each recursion level,
re-runs a fresh backtracking pick-out search over a rebuilt `avail` list
per pick and recomputes side B's spans from run-length columns.  The engine
sorts once per bucket, carries the orders down the recursion and finds each
pick by a walk that a bipartite matching guides; the properties below
require both to make the same groups, slot by slot (a record, or None for
a counterfeit slot), including when no split is valid and the fallback
decomposition takes over.  The split draws nothing, so no random generator
takes part.  The reference keeps its own cell tuples and fallback
decomposition, so the engine's index-based ones are checked against an
independent copy; `_fallback_decompose` is also checked on its own against
the properties a decomposition must have, and `_emit_group`, which fills
the counterfeit slots, against the draws it must make.
"""

import random
import time
from collections import Counter
from typing import Iterable, NamedTuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdistinct import engine
from mdistinct.engine import Bucket, _emit_group, _pick_sequence, phase3_split
from mdistinct.errors import InfeasibilityError
from mdistinct.evaluation import ExperimentConfig, run_experiment
from mdistinct.fileio import synthetic_schema
from mdistinct.model import (AttributeSchema, CounterfeitMember, Hierarchy,
                             Record, TableSchema)
from mdistinct.updates import USS, has_matching

from conftest import add, span_extent

_span_extent = span_extent  # the name the reference kernel calls

# ---------------------------------------------------------------------------
# the reference kernel, as it was before the presorted rewrite


class _Cell(NamedTuple):
    entry: int
    seq: int                 # tie-breaker, creation order within the entry
    record: Record | None    # None: counterfeit slot


def reference_fallback(cells_by_entry: list[list[_Cell]]) -> list[list[_Cell]]:
    """Delta one-per-entry groups with distinct real values: bipartite
    edge-coloring of the reals, leftover colors for the counterfeit slots,
    then a swap pass so no group is left all-counterfeit."""
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
            # swap a<->b along the a/b alternating path from value v
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

    def reals(g: list[_Cell]) -> list[int]:
        return [i for i, c in enumerate(g) if c.record is not None]

    for group in groups:
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
    return groups


def _cell_key(cell: _Cell, attr_pos: int, schema: TableSchema):
    if cell.record is None:
        return (1, cell.entry, cell.seq)
    attr = schema.qi[attr_pos]
    return (0, attr.to_index(cell.record.qi[attr_pos]), cell.record.id)


def _one_pick(avail: list[_Cell], k: int) -> list[int] | None:
    """Pick one cell per entry with pairwise-distinct real values, preferring
    the queue head; backtracking.  Returns indices into avail, or None."""
    last_pos: dict[int, int] = {}
    for idx, cell in enumerate(avail):
        last_pos[cell.entry] = idx
    chosen: list[int] = []
    open_entries = set(range(k))
    used_values: set[str] = set()

    def feasible(idx: int) -> bool:
        # an entry is still reachable iff its last queue position is ahead
        return all(last_pos.get(e, -1) >= idx for e in open_entries)

    def dfs(start: int) -> bool:
        if not open_entries:
            return True
        if not feasible(start):
            return False
        for idx in range(start, len(avail)):
            cell = avail[idx]
            if cell.entry not in open_entries:
                continue
            value = None if cell.record is None else cell.record.sensitive
            if value is not None and value in used_values:
                continue
            chosen.append(idx)
            open_entries.discard(cell.entry)
            if value is not None:
                used_values.add(value)
            if dfs(idx + 1):
                return True
            chosen.pop()
            open_entries.add(cell.entry)
            if value is not None:
                used_values.discard(value)
        return False

    return list(chosen) if dfs(0) else None


class _Extents:
    """Per-attribute min/max of a shrinking real-record multiset, tracked in
    index space as run-length-encoded sorted columns with monotone pointers."""

    def __init__(self, schema: TableSchema, records: Iterable[Record]):
        self.schema = schema
        self.runs: list[list[tuple[int, int]]] = []  # per attr: (value, count)
        recs = list(records)
        for j, attr in enumerate(schema.qi):
            rle: list[tuple[int, int]] = []
            for v in sorted(attr.to_index(rec.qi[j]) for rec in recs):
                if rle and rle[-1][0] == v:
                    rle[-1] = (v, rle[-1][1] + 1)
                else:
                    rle.append((v, 1))
            self.runs.append(rle)
        self.removed: list[Counter] = [Counter() for _ in schema.qi]
        self.lo_ptr = [0] * len(schema.qi)
        self.hi_ptr = [len(r) - 1 for r in self.runs]

    def remove(self, rec: Record) -> None:
        for j, attr in enumerate(self.schema.qi):
            self.removed[j][attr.to_index(rec.qi[j])] += 1

    def span(self, j: int) -> tuple[int, int]:
        runs = self.runs[j]
        rem = self.removed[j]
        lo = self.lo_ptr[j]
        while lo < len(runs) and rem[runs[lo][0]] >= runs[lo][1]:
            lo += 1
        self.lo_ptr[j] = lo
        hi = self.hi_ptr[j]
        while hi >= 0 and rem[runs[hi][0]] >= runs[hi][1]:
            hi -= 1
        self.hi_ptr[j] = hi
        if lo > hi:
            raise InfeasibilityError("no real records left")
        return runs[lo][0], runs[hi][0]


def reference_phase3_split(bucket, schema):
    # every entry is padded to delta, its largest entry or value frequency
    delta = max([len(entry) for entry in bucket.entries]
                + list(Counter(r.sensitive for entry in bucket.entries
                               for r in entry).values()))
    cells_by_entry: list[list[_Cell]] = []
    for e, entry in enumerate(bucket.entries):
        cells = [_Cell(e, s, rec) for s, rec in enumerate(entry)]
        cells += [_Cell(e, s, None) for s in range(len(entry), delta)]
        cells_by_entry.append(cells)

    out = []

    def recurse(by_entry: list[list[_Cell]]) -> None:
        delta = len(by_entry[0])
        if delta == 1:
            out.append([cells[0].record for cells in by_entry])
            return
        k = len(by_entry)
        all_cells = [c for cells in by_entry for c in cells]
        reals = [c.record for c in all_cells if c.record is not None]
        parent_extents = []
        for j, attr in enumerate(schema.qi):
            idx = [attr.to_index(r.qi[j]) for r in reals]
            parent_extents.append(_span_extent(attr, min(idx), max(idx)))
        total_freq = Counter(r.sensitive for r in reals)
        denom = 1
        for e in parent_extents:
            denom *= e
        cof = [denom // e for e in parent_extents]

        best = None  # (score, attr_pos, delta_a, picks)
        for attr_pos in range(len(schema.qi)):
            queue = sorted(all_cells,
                           key=lambda c: _cell_key(c, attr_pos, schema))
            picks: list[list[_Cell]] = []
            avail = queue
            while len(picks) < delta - 1:
                pick_idx = _one_pick(avail, k)
                if pick_idx is None:
                    break
                pick = [avail[i] for i in pick_idx]
                pick.sort(key=lambda c: c.entry)
                picks.append(pick)
                taken = set(pick_idx)
                avail = [c for i, c in enumerate(avail) if i not in taken]
            if not picks:
                continue
            b_side = _Extents(schema, reals)
            a_freq: Counter = Counter()
            a_reals = 0
            a_spans: list[tuple[int, int] | None] = [None] * len(schema.qi)
            for delta_a in range(1, len(picks) + 1):
                for cell in picks[delta_a - 1]:
                    if cell.record is None:
                        continue
                    rec = cell.record
                    a_freq[rec.sensitive] += 1
                    a_reals += 1
                    b_side.remove(rec)
                    for j, attr in enumerate(schema.qi):
                        i = attr.to_index(rec.qi[j])
                        span = a_spans[j]
                        a_spans[j] = (i, i) if span is None else \
                            (min(span[0], i), max(span[1], i))
                if delta_a > delta - 1:
                    break
                b_reals = len(reals) - a_reals
                if a_reals == 0 or b_reals == 0:
                    continue
                delta_b = delta - delta_a
                if any(total_freq[v] - a_freq[v] > delta_b
                       for v in total_freq):
                    continue
                a_num = b_num = 0
                for j, attr in enumerate(schema.qi):
                    lo, hi = a_spans[j]
                    a_num += _span_extent(attr, lo, hi) * cof[j]
                    lo, hi = b_side.span(j)
                    b_num += _span_extent(attr, lo, hi) * cof[j]
                score_num = a_reals * a_num + b_reals * b_num
                cand = (score_num, attr_pos, delta_a)
                if best is None or cand < (best[0], best[1], best[2]):
                    best = (score_num, attr_pos, delta_a, picks[:delta_a])
        if best is None:
            # the engine's fallback takes each entry in attribute-0 order
            ordered = [sorted(cells, key=lambda c: _cell_key(c, 0, schema))
                       for cells in by_entry]
            for group in reference_fallback(ordered):
                out.append([cell.record for cell in group])
            return
        _, _, delta_a, chosen = best
        picked = {(c.entry, c.seq) for pick in chosen for c in pick}
        child_a = [[c for pick in chosen for c in pick if c.entry == e]
                   for e in range(k)]
        child_b = [[c for c in by_entry[e] if (c.entry, c.seq) not in picked]
                   for e in range(k)]
        recurse(child_a)
        recurse(child_b)

    recurse(cells_by_entry)
    return out


# ---------------------------------------------------------------------------
# random buckets

DOMAIN = tuple(f"v{i}" for i in range(7))

AGE = AttributeSchema.numeric("age", 20, 27)
TREE = AttributeSchema.categorical("region", Hierarchy("any", {
    "north": {"n1": {"a", "b"}, "n2": ["c"]},
    "south": ["d", "e", "f"],
    "west": ["g"],
}))
FLAT = AttributeSchema.categorical("sex", Hierarchy.flat("any_sex",
                                                         ["f", "m"]))
ATTRS = (AGE, TREE, FLAT)


def _draw_qi(attr: AttributeSchema, draw):
    if attr.kind == "numeric":
        return draw(st.integers(attr.lo, attr.hi))
    return draw(st.sampled_from(attr.hierarchy.leaves))


@st.composite
def buckets(draw):
    """A schema and a bucket of 1-4 entries with up to 12 records each;
    records in one entry may share values, QI points may tie."""
    picked = draw(st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3,
                           unique_by=lambda a: a.name))
    schema = TableSchema(tuple(picked), "s", DOMAIN)
    k = draw(st.integers(1, 4))
    cus = draw(st.lists(st.frozensets(st.sampled_from(DOMAIN), min_size=1,
                                      max_size=4),
                        min_size=k, max_size=k))
    bucket = Bucket(USS(cus), "signature")
    counts = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k)
                  .filter(lambda c: sum(c) > 0))
    ids = draw(st.permutations(range(sum(counts))))
    n = 0
    for e, (values, count) in enumerate(zip(bucket.signature.entries,
                                            counts)):
        for _ in range(count):
            qi = tuple(_draw_qi(a, draw) for a in schema.qi)
            value = draw(st.sampled_from(sorted(values)))
            add(bucket, Record(f"r{ids[n]:02d}", qi, value), e, schema)
            n += 1
    return schema, bucket


def _outcome(split, bucket, schema):
    try:
        return split(bucket, schema)
    except InfeasibilityError as exc:
        return type(exc), str(exc)


def _bucket(schema: TableSchema, entries) -> tuple[TableSchema, Bucket]:
    """A bucket from per-entry (QI tuple, value) lists.  Each list's CUS
    is its values plus v6, and the list goes to an entry with that CUS:
    `USS` sorts its entries, so list i need not be entry i."""
    values = [frozenset(v for _, v in entry) | {"v6"} for entry in entries]
    bucket = Bucket(USS(values), "signature")
    free = list(bucket.signature.entries)
    for e, (cus, entry) in enumerate(zip(values, entries)):
        slot = free.index(cus)
        free[slot] = None
        for s, (qi, value) in enumerate(entry):
            add(bucket, Record(f"r{e}{s}", qi, value), slot, schema)
    return schema, bucket


# two entries of six records whose values shift by one between them
_SIX_BY_TWO = _bucket(TableSchema((AGE, TREE), "s", DOMAIN), [
    [((20 + i, TREE.hierarchy.leaves[i]), f"v{i}") for i in range(6)],
    [((27 - i, TREE.hierarchy.leaves[-1 - i]), f"v{(i + 1) % 6}")
     for i in range(6)]])
# three entries with shared values
_CLASHING = _bucket(TableSchema((AGE,), "s", DOMAIN), [
    [((20 + (e + s) % 4,), f"v{(e * s) % 3}") for s in range(4)]
    for e in range(3)])
# the first walk takes v0 at age 20 and v1 at 21, the only values the
# first entry has, so the pick comes from the matching-guided walk
_BLOCKED = _bucket(TableSchema((AGE,), "s", DOMAIN), [
    [((22,), "v0"), ((23,), "v1")], [((20,), "v0"), ((24,), "v2")],
    [((21,), "v1"), ((25,), "v2")]])


@settings(max_examples=400, deadline=None)
@given(buckets())
@example(_SIX_BY_TWO)
@example(_CLASHING)
@example(_BLOCKED)
def test_matches_reference(case):
    schema, bucket = case
    assert (_outcome(phase3_split, bucket, schema)
            == _outcome(reference_phase3_split, bucket, schema))


def test_example_buckets_hold_each_value_in_its_cus():
    for _, bucket in (_SIX_BY_TWO, _CLASHING, _BLOCKED):
        for cus, records in zip(bucket.signature.entries, bucket.entries):
            assert all(rec.sensitive in cus for rec in records)


def test_blocked_bucket_takes_the_matching_guided_walk(monkeypatch):
    """The first walk of `_BLOCKED` fails, so phase 3 asks the matching."""
    calls = []

    def counted(adj, width):
        calls.append(width)
        return has_matching(adj, width)

    monkeypatch.setattr(engine, "has_matching", counted)
    schema, bucket = _BLOCKED
    _outcome(phase3_split, bucket, schema)
    assert calls


class _Recording(random.Random):
    """A seeded generator that keeps each `choice`'s options and pick."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def choice(self, seq):
        value = super().choice(seq)
        self.draws.append((list(seq), value))
        return value


@settings(max_examples=200, deadline=None)
@given(buckets(), st.integers(0, 2 ** 16))
@example(_CLASHING, 3)
def test_emit_group_draws_each_slot_from_its_entry(case, seed):
    """`_emit_group` keeps each record in its slot and fills the
    counterfeit slots entry by entry, each with one draw from its entry's
    CUS minus the values the group holds so far (its records' and the
    earlier draws'), so a group's values are distinct.  A slot with no
    value left raises, after the draws before it."""
    schema, bucket = case
    cus_list = bucket.signature.entries
    for group in phase3_split(bucket, schema):
        rng = _Recording(seed)
        try:
            members = _emit_group(group, cus_list, rng)
        except InfeasibilityError as exc:
            assert str(exc) == "counterfeit value exhaustion"
            members = None
        held = {rec.sensitive for rec in group if rec is not None}
        draws = iter(rng.draws)
        expected = []
        for cus, rec in zip(cus_list, group):
            if rec is not None:
                expected.append(rec)
                continue
            options = sorted(cus - held)
            if not options:
                expected = None
                break
            drawn, value = next(draws)
            assert drawn == options
            held.add(value)
            expected.append(CounterfeitMember(value))
        assert next(draws, None) is None
        assert members == expected
        if members is not None:
            values = [member.sensitive for member in members]
            assert len(set(values)) == len(values)


def test_emit_group_exhausts_a_shared_cus():
    """Three entries share the CUS {a, b}: the one record holds a, the
    second entry's slot draws b, and the third entry has nothing left."""
    schema = TableSchema((AGE,), "s", DOMAIN)
    bucket = Bucket(USS([frozenset("ab")] * 3), "signature")
    add(bucket, Record("r0", (20,), "a"), 0, schema)
    (group,) = phase3_split(bucket, schema)
    assert group == [bucket.entries[0][0], None, None]
    with pytest.raises(InfeasibilityError,
                       match="^counterfeit value exhaustion$"):
        _emit_group(group, bucket.signature.entries, random.Random(0))


def reference_pick_sequence(entry_at, value_at, k, max_picks):
    """The pick loop of `reference_phase3_split` on a bare queue, as queue
    positions in the order the search chose them."""
    queue = [_Cell(e, p, None if v < 0 else Record(f"p{p}", (), f"v{v}"))
             for p, (e, v) in enumerate(zip(entry_at, value_at))]
    avail = list(range(len(queue)))
    picks = []
    while len(picks) < max_picks:
        pick_idx = _one_pick([queue[p] for p in avail], k)
        if pick_idx is None:
            break
        picks.append([avail[i] for i in pick_idx])
        taken = set(pick_idx)
        avail = [p for i, p in enumerate(avail) if i not in taken]
    return picks


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.tuples(st.integers(0, k - 1), st.integers(-1, 3)),
             max_size=24))))
# an unreachable entry while two others are still open
@example((4, list(zip([1, 2, 3, 3, 1, 3, 2, 2, 1, 0, 0, 2, 1, 1],
                      [0, 0, 1, 0, 1, 0, -1, 1, 1, 1, 0, 1, -1, -1]))))
# a pick takes an entry's last untaken cell, so later picks must do
# without that entry's earlier cells
@example((4, list(zip([1, 0, 1, 2, 3, 1, 2, 0, 3, 1, 2, 0, 3, 0],
                      [1, -1, 0, 1, 0, 0, 1, 1, 0, -1, -1, 0, -1, 1]))))
# every first walk fails: the head's value recurs in the only cell of the
# other entry ahead of it, so each pick passes over the head
@example((2, list(zip([0, 0, 1, 0, 0, 1, 0, 1],
                      [0, 1, 0, 2, 3, 2, 1, 1]))))
# three entries whose first walks run out of one entry midway
@example((3, list(zip([0, 1, 0, 2, 1, 2, 0, 1, 2],
                      [0, 1, 1, 0, 0, 1, 2, 2, 2]))))
def test_pick_sequence_matches_the_reference(case):
    """The matching-guided walk makes the picks the backtracking search
    makes, in the same order.  Entries may be missing or uneven, so some
    picks exist only off the first walk and some queues have none."""
    k, queue = case
    entry_at = [e for e, _ in queue]
    value_at = [v for _, v in queue]
    assert (_pick_sequence(entry_at, value_at, k, len(queue))
            == reference_pick_sequence(entry_at, value_at, k, len(queue)))


def test_pick_sequence_without_a_pick_ends_at_once():
    """Ten entries that offer nine values between them have no pick; the
    matching says so before any walk, where a backtracking search tries
    every way to fill nine of the ten entries first."""
    entry_at = [e for e in range(10) for _ in range(9)]
    value_at = [v for _ in range(10) for v in range(9)]
    start = time.perf_counter()
    assert _pick_sequence(entry_at, value_at, 10, 5) == []
    assert time.perf_counter() - start < 0.5


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.tuples(st.integers(0, k - 1), st.integers(-1, 3)),
             max_size=24))), st.integers(1, 12))
def test_children_repeat_the_parent_sequence(case, max_picks):
    """What `phase3_split` passes down.  Over the cells of its first d
    picks (child A), a fresh sequence makes the first d - 1 picks again;
    over the cells they leave (child B), it makes the picks after d."""
    k, queue = case
    entry_at = [e for e, _ in queue]
    value_at = [v for _, v in queue]
    picks = _pick_sequence(entry_at, value_at, k, max_picks)

    def over(positions, n_picks):
        found = _pick_sequence([entry_at[p] for p in positions],
                               [value_at[p] for p in positions], k, n_picks)
        return [[positions[p] for p in pick] for pick in found]

    for d in range(1, len(picks) + 1):
        inside = {p for pick in picks[:d] for p in pick}
        assert over(sorted(inside), d - 1) == picks[:d - 1]
        outside = [p for p in range(len(queue)) if p not in inside]
        assert over(outside, max_picks - d) == picks[d:]


def test_extent_lookup_matches_the_hierarchy(disease_schema):
    """`engine._Extents` gives the extent of every index span of every attribute,
    and a hierarchy's cache starts empty and holds only the spans looked
    up, whatever the number of leaves."""
    fresh = synthetic_schema()[0]
    for attr in fresh.qi:
        if attr.kind == "categorical":
            assert len(attr.hierarchy.extent) == 0
    for schema in (fresh, disease_schema, TableSchema(ATTRS, "s", DOMAIN)):
        extent = engine._Extents(schema.qi)
        for j, attr in enumerate(schema.qi):
            for hi in range(attr.size):
                for lo in range(hi + 1):
                    assert (extent.of(j, lo, hi)
                            == span_extent(attr, lo, hi)), (attr.name, lo, hi)
    leaves = [f"l{i}" for i in range(1000)]
    wide = AttributeSchema.categorical("wide", Hierarchy.flat("any", leaves))
    extent = engine._Extents((wide,))
    assert extent.of(0, 3, 997) == 1000 and extent.of(0, 5, 5) == 1
    assert len(wide.hierarchy.extent) == 2


def test_unsplittable_bucket_reaches_fallback(monkeypatch):
    """Two entries, [(25, v2), (22, v0)] and [(26, v2), (24, v1)], on age:
    the one pick takes ages 22 and 24, which leaves both v2 cells on side
    B, so no split is valid and the fallback decomposes the bucket.  Both
    kernels must agree, and every group must hold distinct values."""
    schema, bucket = _bucket(TableSchema((AGE,), "s", DOMAIN), [
        [((25,), "v2"), ((22,), "v0")], [((26,), "v2"), ((24,), "v1")]])
    fallbacks = []

    fallback = engine._fallback_decompose

    def counted(by_entry, value_of):
        fallbacks.append(len(by_entry[0]))
        return fallback(by_entry, value_of)

    monkeypatch.setattr(engine, "_fallback_decompose", counted)
    groups = _outcome(phase3_split, bucket, schema)
    assert fallbacks == [2]
    assert groups == _outcome(reference_phase3_split, bucket, schema)
    assert sorted(sorted(m.sensitive for m in g) for g in groups) == [
        ["v0", "v2"], ["v1", "v2"]]


@st.composite
def fallback_cases(draw):
    """k entries of delta cells each, every entry's reals (value >= 0)
    before its counterfeit slots (-1), no real value more than delta times
    and at least delta reals in all; cells are shuffled indices."""
    k = draw(st.integers(1, 4))
    delta = draw(st.integers(1, 5))
    values = draw(st.lists(st.lists(st.integers(-1, 5), min_size=delta,
                                    max_size=delta),
                           min_size=k, max_size=k))
    reals = [v for entry in values for v in entry if v >= 0]
    assume(len(reals) >= delta)
    assume(max(Counter(reals).values()) <= delta)
    cells = draw(st.permutations(range(k * delta)))
    value_of = [0] * (k * delta)
    by_entry = []
    for e, entry in enumerate(values):
        mine = cells[e * delta:(e + 1) * delta]
        for c, v in zip(mine, sorted(entry, key=lambda v: v < 0)):
            value_of[c] = v
        by_entry.append(mine)
    return by_entry, value_of


@settings(max_examples=400, deadline=None)
@given(fallback_cases())
def test_fallback_groups_are_one_per_entry_distinct_and_real(case):
    """Every group holds one cell of each entry and every cell lands in
    exactly one group; a group's real values are distinct, and no group is
    all counterfeit."""
    by_entry, value_of = case
    groups = engine._fallback_decompose([list(c) for c in by_entry],
                                        value_of)
    assert len(groups) == len(by_entry[0])
    for group in groups:
        assert len(group) == len(by_entry)
        assert all(c in cells for c, cells in zip(group, by_entry))
        reals = [value_of[c] for c in group if value_of[c] >= 0]
        assert reals and len(set(reals)) == len(reals)
    assert sorted(c for group in groups for c in group) == sorted(
        c for cells in by_entry for c in cells)


@settings(max_examples=200, deadline=None)
@given(fallback_cases())
def test_fallback_matches_the_reference(case):
    """The engine's decomposition of cell indices makes the groups the
    reference makes of cell tuples."""
    by_entry, value_of = case
    tuples = {c: _Cell(e, s, None if value_of[c] < 0
                       else Record(f"c{c}", (), f"v{value_of[c]}"))
              for e, cells in enumerate(by_entry)
              for s, c in enumerate(cells)}
    expected = reference_fallback([[tuples[c] for c in cells]
                                   for cells in by_entry])
    got = engine._fallback_decompose([list(c) for c in by_entry], value_of)
    assert [[tuples[c] for c in group] for group in got] == expected


def test_workload_buckets_match_reference(monkeypatch):
    """Every bucket a small synthetic m=2 and m=4 run sends to phase 3 (four
    QI attributes, three of them hierarchies) splits as the reference
    does."""
    seen = []

    def checked(bucket, schema):
        got = phase3_split(bucket, schema)
        assert got == reference_phase3_split(bucket, schema)
        seen.append(len(got))
        return got

    monkeypatch.setattr(engine, "phase3_split", checked)
    for m in (2, 4):
        run_experiment(ExperimentConfig(
            m=m, n_records=120, n_releases=3, inserts=20, deletes=10,
            internal_updates=30, n_queries=1, thetas=(0.5,), seed=5))
    assert len(seen) > 10 and max(seen) > 5
