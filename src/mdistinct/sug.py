"""The adversary: sensitive-attribute update graphs (SUGs), pruning to the
feasible subgraph, exact path mass and per-version disclosure risks.

All results are exact: node and edge weights are `fractions.Fraction`s and
risks come out as the golden rationals with no tolerance.  The
forward/backward path masses never enumerate a path.  `disclosure_risks`
runs them on a graph's own `Fraction`s, record by record; it is the
reference route.  The attack on a release sequence runs them on
integers, for all the records it attacks at once: it scales the model's
table by one lcm denominator and weights each node by its multiplicity,
so each path mass carries the same factor and one exact division per
risk cancels it.  It batches the records by history length into numpy
chunks of bounded size (a history too wide for any chunk, and every
history of a model too large for the dense transition table, runs alone
on its layers' successor rows), and runs a chunk in int64 only when an
integer bound proves that no mass can wrap, else on Python ints in object
arrays, so every numerator and total is exact either way.  A report is its
integer numerators and the shared total, and divides only when a risk is
read; whether a risk is exactly 1 is an integer test, made when the
report is.  The attack builds no graph and skips pruning, which cannot
change a risk.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, TypeVar

import numpy as np

from .errors import CapExceededError, InconsistentHistoryError, ValidationError
from .model import (ExternalKnowledgeTable, PublishedRelease, QIGroup,
                    TableSchema, cell_tests, in_release_order,
                    region_contains)
from .updates import UpdateModel

__all__ = [
    "SugNode",
    "Sug",
    "RiskReport",
    "build_sug",
    "prune",
    "disclosure_risks",
    "risks_by_joint_oracle",
    "AttackMemo",
    "attack_release_sequence",
]

JOINT_ORACLE_CAP = 1_000_000

_W = TypeVar("_W")


@dataclass(frozen=True)
class SugNode:
    value: str
    weight: Fraction


@dataclass(frozen=True)
class Sug:
    """Layered weighted digraph; edges only between consecutive layers.

    out[i][u] lists (v, weight) successors of node u of layer i in layer
    i+1; node order within a layer is first appearance in the candidate
    multiset, which keeps reruns byte-identical.
    """

    layers: tuple[tuple[SugNode, ...], ...]
    out: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def node_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def edge_count(self) -> int:
        return sum(len(adj) for gap in self.out for adj in gap)


def _tally(values: Sequence[str]) -> dict[str, int]:
    """Multiplicity per distinct value, keys in first-appearance order."""
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


def _collapse(values: Sequence[str]) -> tuple[list[str], list[Fraction]]:
    """Distinct values in first-appearance order with multiplicity shares."""
    counts = _tally(values)
    total = len(values)
    return list(counts), [Fraction(c, total) for c in counts.values()]


def _check_layer(i: int, values: Sequence[str], model: UpdateModel) -> None:
    """Reject an empty candidate set or a value outside the model.  One
    subset test passes a good multiset; the values are walked one by one
    only to name the first bad one."""
    if not values:
        raise ValidationError(f"layer {i + 1}: empty candidate set")
    if not model.cus.keys() >= set(values):
        for v in values:
            model.cus_of(v)  # raises on unknown values


def _gap(sources: Sequence[str], targets: Sequence[str],
         table: Mapping[str, Mapping[str, _W]],
         ) -> tuple[tuple[tuple[int, _W], ...], ...]:
    """Per source value, its (target position, weight) successors, read off
    a {value: {successor: weight}} table."""
    gap = []
    for a in sources:
        row = table.get(a, {})
        gap.append(tuple([(k, row[b]) for k, b in enumerate(targets)
                          if b in row]))
    return tuple(gap)


def build_sug(candidates: Sequence[Sequence[str]], model: UpdateModel) -> Sug:
    """Build the SUG for one record's candidate sensitive sets.

    Duplicate values in a candidate multiset collapse to one node whose
    prior is the multiplicity share.
    """
    if not candidates:
        raise ValidationError("empty candidate history")
    layers: list[tuple[SugNode, ...]] = []
    for i, cand in enumerate(candidates):
        _check_layer(i, cand, model)
        order, shares = _collapse(cand)
        layers.append(tuple(SugNode(v, w) for v, w in zip(order, shares)))
    values = [[node.value for node in layer] for layer in layers]
    return Sug(tuple(layers), tuple(_gap(a, b, model.successors)
                                    for a, b in zip(values, values[1:])))


def prune(sug: Sug) -> Sug:
    """The feasible subgraph: the nodes reachable from layer 1 that reach
    the last layer, the fixed point of iterated dead-end removal.

    When nothing reaches layer j + 1 the published history has no feasible
    explanation, and the error names layer j: the first layer that
    in-order dead-end sweeps would empty, since a node reachable from
    layer 1 dies in the first sweep only if it has no successor at all.
    A graph with no dead end comes back unchanged.
    """
    alive = [[True] * len(sug.layers[0])]
    for i, gap in enumerate(sug.out):
        reached = [False] * len(sug.layers[i + 1])
        for u, adj in enumerate(gap):
            if alive[i][u]:
                for v, _ in adj:
                    reached[v] = True
        if not any(reached):
            raise InconsistentHistoryError(
                f"layer {i + 1} has no feasible node")
        alive.append(reached)
    for i in range(sug.depth - 2, -1, -1):
        alive[i] = [ok and any(alive[i + 1][v] for v, _ in adj)
                    for ok, adj in zip(alive[i], sug.out[i])]
    if all(map(all, alive)):
        return sug
    keep = [[u for u, ok in enumerate(layer) if ok] for layer in alive]
    remap = [{u: k for k, u in enumerate(layer)} for layer in keep]
    layers = tuple(tuple(sug.layers[i][u] for u in keep[i])
                   for i in range(sug.depth))
    out = tuple(
        tuple(tuple((remap[i + 1][v], w) for v, w in sug.out[i][u]
                    if alive[i + 1][v])
              for u in keep[i])
        for i in range(sug.depth - 1))
    return Sug(layers, out)


class RiskReport:
    """One record's disclosure risk per version (release index per layer).

    `RiskReport(record_id, versions, numerators, total)` holds per
    version an exact numerator over one shared positive total: fwd * bwd
    of the actual value's node (0 when it has none), the joint oracle's
    `Fraction` masses, or given risks over 1, and nothing else, so it
    reads the same whatever happens to the memo that made it.  `risks`
    divides each time it is read; `baselines.max_risk` takes the worst
    risk of many reports.  `vulnerable`, the number of versions at risk
    exactly 1 (numerator equal to the total), is counted when the report
    is made.  Equality, hashing and printing go by (record_id, versions,
    risks), as for a frozen dataclass."""

    __slots__ = ("record_id", "versions", "numerators", "total", "vulnerable")

    def __init__(self, record_id: str, versions: tuple[int, ...],
                 numerators: tuple[_W, ...], total: _W):
        self.record_id = record_id
        self.versions = versions
        self.numerators = numerators
        self.total = total
        self.vulnerable = numerators.count(total)

    @property
    def risks(self) -> tuple[Fraction, ...]:
        total = self.total
        return tuple([Fraction(n, total) for n in self.numerators])

    def _key(self) -> tuple:
        return self.record_id, self.versions, self.risks

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"RiskReport(record_id={self.record_id!r}, "
                f"versions={self.versions!r}, risks={self.risks!r})")


_Masses = tuple[list[Sequence[_W]], list[list[_W]], _W]


def _masses(nodes: Sequence[Sequence[_W]],
            edges: Sequence[Sequence[Sequence[tuple[int, _W]]]],
            ) -> _Masses[_W]:
    """Forward/backward path mass per node and total path mass.

    `nodes[i]` holds layer i's node weights and `edges[i]` the (successor,
    weight) rows of the gap from layer i to i + 1: a graph's `Fraction`s,
    or the attack's integers for a history too wide for its chunks.
    `_chunk_masses` runs the same recursion on integers in numpy.  Integer
    weights are the true ones times a positive factor per layer and gap.
    Every path mass is then the true one times the product of all those
    factors, the same for every path, which cancels in fwd * bwd / total.
    """
    depth = len(nodes)
    fwd = [list(nodes[0])]
    for i in range(1, depth):
        mass = [0] * len(nodes[i])
        for base, adj in zip(fwd[-1], edges[i - 1]):
            for v, w in adj:
                mass[v] += base * w
        fwd.append([m * w for m, w in zip(mass, nodes[i])])
    bwd: list[list[int]] = [[] for _ in range(depth)]
    bwd[depth - 1] = [1] * len(nodes[depth - 1])
    for i in range(depth - 2, -1, -1):
        after = [w * b for w, b in zip(nodes[i + 1], bwd[i + 1])]
        row = []
        for adj in edges[i]:
            acc = 0
            for v, w in adj:
                acc += w * after[v]
            row.append(acc)
        bwd[i] = row
    return fwd, bwd, sum(fwd[depth - 1])


def _report(positions: Sequence[Mapping[str, int]], masses: _Masses,
            actual: Sequence[str], record_id: str,
            versions: Sequence[int]) -> RiskReport:
    """Per-version risk: the mass of the paths crossing the actual value's
    node (`positions[i]` maps layer i's values to node indices) over the
    total.  An actual value with no node, or on a node no path crosses,
    gets risk 0.  The report holds the numerators; nothing is divided
    until a risk is read."""
    fwd, bwd, total = masses
    numerators = []
    for i, value in enumerate(actual):
        k = positions[i].get(value)
        numerators.append(0 if k is None else fwd[i][k] * bwd[i][k])
    return RiskReport(record_id, tuple(versions), tuple(numerators), total)


def disclosure_risks(fs: Sug, actual: Sequence[str],
                     record_id: str = "",
                     versions: Sequence[int] | None = None) -> RiskReport:
    """Per-version risk: mass of feasible paths crossing the actual value's
    node over the total path mass."""
    if fs.depth == 0 or not fs.layers[0]:
        raise ValidationError("empty graph")
    if len(actual) != fs.depth:
        raise ValidationError("one actual value per layer required")
    masses = _masses([[n.weight for n in layer] for layer in fs.layers],
                     fs.out)
    if masses[2] == 0:
        raise InconsistentHistoryError("no feasible path")
    positions = [{n.value: k for k, n in enumerate(layer)}
                 for layer in fs.layers]
    if versions is None:
        versions = range(1, fs.depth + 1)
    return _report(positions, masses, actual, record_id, versions)


def risks_by_joint_oracle(candidates: Sequence[Sequence[str]],
                          model: UpdateModel,
                          actual: Sequence[str],
                          cap: int = JOINT_ORACLE_CAP,
                          record_id: str = "",
                          versions: Sequence[int] | None = None) -> RiskReport:
    """Independent oracle: enumerate every joint value assignment outright.

    Must agree exactly with disclosure_risks(prune(build_sug(...))); kept
    as the cross-check for the graph computation.
    """
    layer_data = []
    size = 1
    for cand in candidates:
        order, shares = _collapse(cand)
        layer_data.append(list(zip(order, shares)))
        size *= len(order)
    if size > cap:
        raise CapExceededError(f"joint enumeration size {size} exceeds cap {cap}")
    total = Fraction(0)
    mass: list[dict[str, Fraction]] = [dict() for _ in layer_data]
    for combo in itertools.product(*layer_data):
        weight = Fraction(1)
        for (v, share) in combo:
            weight *= share
        for (a, _), (b, _) in zip(combo, combo[1:]):
            p = model.prob(a, b)
            if p == 0:
                weight = Fraction(0)
                break
            weight *= p
        if weight == 0:
            continue
        total += weight
        for i, (v, _) in enumerate(combo):
            mass[i][v] = mass[i].get(v, Fraction(0)) + weight
    if total == 0:
        raise InconsistentHistoryError("no feasible joint assignment")
    numerators = tuple(mass[i].get(value, Fraction(0))
                       for i, value in enumerate(actual))
    if versions is None:
        versions = range(1, len(candidates) + 1)
    return RiskReport(record_id, tuple(versions), numerators, total)


# Up to this many model values the scaled weights sit in a dense table,
# one per dtype: (1,025)**2 int64 entries take 8 MB.  Past it every history
# runs through `_masses` on its layers' successor rows, as a history too
# wide for any chunk does.
_DENSE_CAP = 1024
# Entries in the largest array of one chunk of the batch.  A history whose
# own transitions would pass it runs alone, on its successor rows.
_CHUNK = 1 << 17
_INT64_LIMIT = 1 << 63
# The leaf span the fold's region test gives a cell that names no node: no
# value lies in it, so the record is checked again by `region_contains`,
# which raises the cell's error.
_NO_SPAN = (0, -1)


class _Transitions:
    """The model's transition probabilities times their one lcm
    denominator, as integers indexed by value id.

    Every value of the table, row key or successor, gets an id in table
    order; id `pad` is no value's and has no transitions, so a padding
    node gathers weight 0.  `rows[a][b]` is the weight from id a to id b.
    A chunk gathers weights from a dense (pad + 1)**2 table, in int64 or
    in Python ints (object), each made from `rows` when first used; only
    a model of at most `_DENSE_CAP` values is batched."""

    def __init__(self, model: UpdateModel):
        table = model.successors
        scale = math.lcm(*(p.denominator for row in table.values()
                           for p in row.values()))
        ids: dict[str, int] = {}
        for a, row in table.items():
            ids.setdefault(a, len(ids))
            for b in row:
                ids.setdefault(b, len(ids))
        self.ids = ids
        self.pad = len(ids)
        self.rows = {ids[a]: {ids[b]: p.numerator * (scale // p.denominator)
                              for b, p in row.items()}
                     for a, row in table.items()}
        # bounds every mass's magnitude, whatever the weights' signs
        self.largest = max((abs(w) for row in self.rows.values()
                            for w in row.values()), default=0)
        self.dense: dict[object, np.ndarray] = {}

    def gather(self, sources: np.ndarray, targets: np.ndarray,
               dtype: object) -> np.ndarray:
        """The weight from each source id `sources[..., u]` to each target
        id `targets[..., v]`, at [..., u, v]."""
        weights = self.dense.get(dtype)
        if weights is None:
            span = self.pad + 1
            weights = self.dense[dtype] = np.zeros((span, span), dtype)
            for a, row in self.rows.items():
                weights[a, list(row)] = list(row.values())
        return weights[sources[..., :, None], targets[..., None, :]]


def _chunk_masses(nodes: np.ndarray, mults: np.ndarray, table: _Transitions,
                  dtype: object) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward path masses of a chunk of equally long
    histories: `nodes[r, i, k]` is the value id of history r's k-th node
    in layer i and `mults[r, i, k]` its weight, its multiplicity (padding
    nodes: id `table.pad`, weight 0).  The same recursion as `_masses`,
    one matrix product per layer for the whole chunk."""
    depth = nodes.shape[1]
    if dtype is object:
        mults = mults.astype(object)   # Python ints, which never wrap
    fwd = np.empty(nodes.shape, dtype)
    bwd = np.empty(nodes.shape, dtype)
    fwd[:, 0] = mults[:, 0]
    bwd[:, -1] = 1
    if depth > 1:
        edges = table.gather(nodes[:, :-1], nodes[:, 1:], dtype)
        for i in range(1, depth):
            fwd[:, i] = np.matmul(fwd[:, i - 1, None],
                                  edges[:, i - 1])[:, 0] * mults[:, i]
        for i in range(depth - 2, -1, -1):
            after = mults[:, i + 1] * bwd[:, i + 1]
            bwd[:, i] = np.matmul(edges[:, i], after[..., None])[..., 0]
    return fwd, bwd


def _score(memo: "AttackMemo", rids: Sequence[str],
           histories: Mapping[str, Mapping[int, str]]) -> None:
    """Put the reports of `rids` (in id order) into `memo.reports`, or raise
    the error of the first record in id order that has one.

    Each record's layers are rows of the memo's interned multisets
    (`_Multisets`); a row `_check_layer` refuses raises its error at the
    first record in id order that holds it.  The records of each history
    length are sorted by their widest layer and cut in one pass into
    maximal chunks of at most `_CHUNK` gathered transitions, each padded
    to its own widest layer.  A chunk runs in int64 only when its own
    multiplicities bound every mass below 2**63; see
    `attack_release_sequence`.  A history too wide for any chunk, and
    every history of a model past `_DENSE_CAP` values, runs alone through
    `_masses` on its layers' successor rows.  Records are kept in flat
    lists of ints per history length, not a list per record: objects that
    live through the call would make the cyclic collector run full
    collections inside it."""
    model = memo.bound[0]
    membership = memo.membership
    table = memo.table
    ids = table.ids
    multisets = memo.multisets
    refused = multisets.refused
    # per history length: record indexes, layer rows, actual values' ids
    by_depth: dict[int, tuple[list[int], list[int], list[int]]] = {}
    failure = None
    for k, rid in enumerate(rids):
        versions, history = membership[rid]
        try:
            try:
                on_file = histories[rid]
                actual = [ids.get(on_file[i], -1) for i in versions]
            except KeyError:
                raise ValidationError(f"no actual sensitive value on file "
                                      f"for {rid!r} at one of releases "
                                      f"{versions}")
            if refused and not refused.keys().isdisjoint(history):
                for i, row in enumerate(history):
                    if row in refused:
                        _check_layer(i, refused[row], model)
        except ValidationError as exc:
            # raised once the records before it are known to be feasible
            failure = exc
            break
        batch = by_depth.get(len(versions))
        if batch is None:
            batch = by_depth[len(versions)] = ([], [], [])
        batch[0].append(k)
        batch[1].extend(history)
        batch[2].extend(actual)

    starts, widths = multisets.starts, multisets.widths
    flat_ids, flat_mults = multisets.ids, multisets.mults
    starts_a = np.array(starts, np.int64)
    widths_a = np.array(widths, np.int64)
    ids_a = np.array(flat_ids, np.int64)
    mults_a = np.array(flat_mults, np.int64)
    # the greatest chunk cost; a model past the dense cap batches nothing
    limit = _CHUNK if table.pad <= _DENSE_CAP else 0
    reports = memo.reports
    dead: dict[int, int] = {}
    for depth, (members, layer_rows, actual_ids) in by_depth.items():
        members = np.array(members)
        history_rows = np.array(layer_rows, np.int64).reshape(-1, depth)
        actual = np.array(actual_ids, np.int64).reshape(-1, depth)
        width = widths_a[history_rows].max(axis=1)
        order = np.argsort(width, kind="stable")
        members, history_rows, actual, width = (
            members[order], history_rows[order], actual[order], width[order])
        # a chunk's cost is its records times depth times its widest
        # layer squared, the size of its gathered transitions
        cost = (depth * width * width).tolist()
        start = 0
        while start < len(cost) and cost[start] <= limit:
            stop = start + 1
            while (stop < len(cost)
                   and (stop + 1 - start) * cost[stop] <= limit):
                stop += 1
            chunk = history_rows[start:stop]
            slots = np.arange(width[stop - 1])
            at = starts_a[chunk][..., None] + slots
            real = slots < widths_a[chunk][..., None]
            nodes = np.where(real, ids_a.take(at, mode="clip"), table.pad)
            mults = np.where(real, mults_a.take(at, mode="clip"), 0)
            exact = (int(mults.sum(axis=2).max()) ** depth
                     * table.largest ** (depth - 1) < _INT64_LIMIT)
            fwd, bwd = _chunk_masses(nodes, mults, table,
                                     np.int64 if exact else object)
            hit = nodes == actual[start:stop, :, None]
            numer = np.where(hit, fwd * bwd, 0).sum(axis=2)
            total = fwd[:, -1].sum(axis=1)
            for k, row, t in zip(members[start:stop].tolist(), numer.tolist(),
                                 total.tolist()):
                rid = rids[k]
                reports[rid] = RiskReport(rid, membership[rid][0],
                                          tuple(row), t)
            empty = total == 0
            if empty.any():
                # no feasible path: name prune's layer, the one before the
                # first that nothing from layer 1 reaches
                reached = (fwd[empty] != 0).any(axis=2).sum(axis=1)
                for k, j in zip(members[start:stop][empty].tolist(),
                                reached.tolist()):
                    dead[k] = j
            start = stop
        for k, history, values in zip(members[start:].tolist(),
                                      history_rows[start:].tolist(),
                                      actual[start:].tolist()):
            nodes = [flat_ids[starts[r]:starts[r] + widths[r]]
                     for r in history]
            masses = _masses(
                [flat_mults[starts[r]:starts[r] + widths[r]] for r in history],
                [_gap(a, b, table.rows) for a, b in zip(nodes, nodes[1:])])
            if masses[2] == 0:
                dead[k] = sum(map(any, masses[0]))
            rid = rids[k]
            reports[rid] = _report(
                [{v: i for i, v in enumerate(layer)} for layer in nodes],
                masses, values, rid, membership[rid][0])
    if dead:
        raise InconsistentHistoryError(
            f"layer {dead[min(dead)]} has no feasible node")
    if failure is not None:
        raise failure


class _Multisets:
    """The candidate multisets an `AttackMemo` has folded, each interned
    once as a row.  `rows` maps a group's values to its row r, whose
    distinct values' ids and multiplicities, in first-appearance order,
    are `ids[starts[r]:starts[r] + widths[r]]` and the same slice of
    `mults`; a value outside the model gets the padding id.  Each new
    multiset gets `_check_layer`'s subset test once, and `refused` maps
    the rows that fail it to their values: `_score` raises their error
    at the first record, in id order, that holds one."""

    def __init__(self, table: _Transitions, model: UpdateModel):
        self.value_ids = table.ids
        self.pad = table.pad
        self.known = model.cus.keys()
        self.rows: dict[tuple[str, ...], int] = {}
        self.refused: dict[int, tuple[str, ...]] = {}
        self.ids: list[int] = []
        self.mults: list[int] = []
        self.starts: list[int] = []
        self.widths: list[int] = []

    def intern(self, values: tuple[str, ...]) -> int:
        """A new row for `values`, which no row holds yet.  Values are
        tallied only when some value repeats, as it seldom does in an
        m-unique release."""
        distinct = dict.fromkeys(values)
        row = self.rows[values] = len(self.starts)
        if not (values and distinct.keys() <= self.known):
            self.refused[row] = values
        self.starts.append(len(self.ids))
        self.widths.append(len(distinct))
        self.ids.extend(map(self.value_ids.get, distinct,
                            itertools.repeat(self.pad)))
        self.mults.extend(_tally(values).values()
                          if len(distinct) < len(values)
                          else itertools.repeat(1, len(values)))
        return row


class AttackMemo:
    """What attacks on ever longer prefixes of one release sequence share.

    Bound to one model, set of external tables and schema, it holds:
    - the model's transition probabilities times their common lcm
      denominator, indexed by value id (`_Transitions`);
    - the releases folded so far, each group's candidate multiset
      interned once (`_Multisets`), and each record's versions and the
      rows of its candidate sets;
    - the last attack's reports, each its integer numerators and total
      and no reference to the memo, so a report reads the same after the
      memo starts over.

    It keeps no path masses: each call computes those of the records its
    new releases hold in one batch, and settled records keep their reports.
    Handed other bindings, or releases whose first ones are not the folded
    ones (the same objects, in the same order), it starts over.  The
    actual values of releases already folded must stay as they were.
    """

    def __init__(self) -> None:
        self._bind(())

    def _bind(self, bound: tuple) -> None:
        """Forget everything and serve `bound`: (model, schema, *tables)."""
        self.bound = bound
        self.table = _Transitions(bound[0]) if bound else None
        self.multisets = (_Multisets(self.table, bound[0]) if bound
                          else None)
        self.releases: list[PublishedRelease] = []
        self.membership: dict[str, tuple[tuple[int, ...],
                                         tuple[int, ...]]] = {}
        self.reports: dict[str, RiskReport] = {}

    def _serves(self, bound: tuple,
                ordered: Sequence[PublishedRelease]) -> bool:
        """Whether the call binds the same objects and its releases begin
        with the folded ones."""
        return (len(bound) == len(self.bound)
                and all(map(operator.is_, bound, self.bound))
                and len(ordered) >= len(self.releases)
                and all(map(operator.is_, self.releases, ordered)))

    def _fold(self, releases: Sequence[PublishedRelease],
              et_by_index: Mapping[int, ExternalKnowledgeTable],
              schema: TableSchema | None) -> set[str]:
        """Add each release's groups to its records' histories, checking
        them against the external tables and refusing a record that skips
        a release; the ids whose history grew.

        A release is read in one pass over its groups and their members,
        and each group's candidate multiset is interned once.  A record
        listed in two groups raises at once, in group order, as
        `PublishedRelease.group_of` raises it.  A record whose point lies
        outside its group's region (tested inline, cell by cell, with the
        maps of `cell_tests`) or that skips a release is marked.  Once the
        release is read, the marked records are checked again in id
        order, the region by `region_contains` and then the gap, and the
        first failure is raised: the error a walk over the records in id
        order raises."""
        membership = self.membership
        multisets = self.multisets
        interned = multisets.rows
        grown: set[str] = set()
        add = grown.add
        tests = cell_tests(schema) if et_by_index else ()
        for rel in releases:
            index = rel.release_index
            points = et_by_index[index].rows if index in et_by_index else {}
            marked: dict[str, QIGroup] = {}
            version = (index,)
            for group in rel.groups:
                row = interned.get(group.values)
                if row is None:
                    row = multisets.intern(group.values)
                layer = (row,)
                for rid, _, counterfeit in group.members:
                    if counterfeit:
                        continue
                    history = membership.get(rid)
                    if history is None:
                        membership[rid] = (version, layer)
                    else:
                        versions, rows = history
                        if versions[-1] != index - 1:
                            if versions[-1] == index:
                                raise ValidationError(
                                    f"release {index}: id {rid!r} appears "
                                    f"in two groups")
                            marked[rid] = group
                        membership[rid] = (versions + version, rows + layer)
                    add(rid)
                    if rid in points:
                        for test, cell, value in zip(tests, group.region,
                                                     points[rid]):
                            if test is None:
                                lo, hi = cell
                            else:
                                lo, hi = test[0].get(cell, _NO_SPAN)
                                value = test[1].get(value, -1)
                            if not lo <= value <= hi:
                                marked[rid] = group
                                break
            for rid in sorted(marked):
                group = marked[rid]
                if rid in points and not region_contains(
                        schema, group.region, points[rid]):
                    raise ValidationError(
                        f"release {index}: record {rid!r} falls outside "
                        f"its group region")
                versions = membership[rid][0]
                if len(versions) > 1 and versions[-2] < index - 1:
                    raise ValidationError(
                        f"release {index} group {group.gid}: {rid!r} last "
                        f"appeared in release {versions[-2]}; a record may "
                        f"not skip a release")
            self.releases.append(rel)
        return grown


def attack_release_sequence(releases: Sequence[PublishedRelease],
                            et: Sequence[ExternalKnowledgeTable] | None,
                            model: UpdateModel,
                            histories: Mapping[str, Mapping[int, str]],
                            schema: TableSchema | None = None,
                            memo: AttackMemo | None = None,
                            ) -> list[RiskReport]:
    """Replay the attack over a full release sequence.

    For each record id, its candidate sets are read off the groups that
    contain it (counterfeit members included - the adversary cannot tell),
    and its report is what disclosure_risks(prune(build_sug(...))) gives.
    `histories` supplies the actual value per (id, release index); `et`
    enables the exact-QI integrity check against `schema`.  Tables without
    a schema are refused, as are a table whose index names none of the
    releases, a release index given twice and, as `verify` words it, a
    record that skips a release: the model's one step cannot explain it.

    The path masses of every record the call attacks are computed in one
    batched numpy pass per history length, in chunks of at most 2**17
    gathered transitions, each padded only to its own widest layer; a
    history whose own transitions pass that, and every history of a model
    past 1,024 values, runs alone, on its layers' successor rows.  No graph
    is built or pruned: a node prune removes has forward or backward mass 0,
    so every risk comes out the same without it.  A chunk runs in int64 only
    when (largest multiset size)**L * (largest scaled weight's
    magnitude)**(L - 1) is below 2**63: that bounds the total mass of an
    L-layer history and every mass and partial sum on the way to it, so
    nothing wraps.  Otherwise it runs the same numpy code on Python ints
    (object arrays).  Either way each numerator and total is the integer the
    per-record recursion gives.  A history with no feasible path raises
    prune's error, found from its forward masses; of several errors, the
    first record's in id order is raised.  Each report is its integer
    numerators and total (see `RiskReport`), so a prefix whose reports only
    `count_vulnerable` reads builds no `Fraction`.

    `memo` carries an attack's work to the next one on the same releases
    plus newer ones (same model, tables, schema and actual values).  Only
    the new releases are read, and only the records they hold are
    attacked; a record they leave out keeps its report.  A call that
    raises leaves the memo empty.  A call without a memo runs on a fresh
    one.
    """
    if et and schema is None:
        raise ValidationError("external tables need the table schema for "
                              "the region check")
    ordered = in_release_order(releases)
    et_by_index = {t.release_index: t for t in (et or ())}
    stray = sorted(et_by_index.keys() - {r.release_index for r in ordered})
    if stray:
        raise ValidationError(f"external table of release {stray[0]}: no "
                              f"release {stray[0]} in the history")
    if memo is None:
        memo = AttackMemo()
    bound = (model, schema, *(et or ()))
    if not memo._serves(bound, ordered):
        memo._bind(bound)
    try:
        grown = memo._fold(ordered[len(memo.releases):], et_by_index, schema)
        _score(memo, sorted(grown), histories)
    except BaseException:
        memo._bind(())
        raise
    return [memo.reports[rid] for rid in sorted(memo.membership)]
