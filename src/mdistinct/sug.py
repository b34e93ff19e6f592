"""The adversary: sensitive-attribute update graphs (SUGs), pruning to the
feasible subgraph, exact path mass and per-version disclosure risks.

All results are exact: node and edge weights are `fractions.Fraction`s and
risks come out as the golden rationals with no tolerance.  Inside, the
forward/backward path masses run on integers: every layer's node weights
are scaled to that layer's common denominator and every gap's edge weights
to that gap's, so each path mass carries the same factor and one exact
division per risk cancels it.  No path is ever enumerated.  The attack on
a release sequence runs the same recursion once per distinct candidate
history, not once per record, and skips pruning, which cannot change a
risk.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, TypeVar

from .errors import CapExceededError, InconsistentHistoryError, ValidationError
from .model import ExternalKnowledgeTable, PublishedRelease, TableSchema, region_contains
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
    """Reject an empty candidate set or a value outside the model."""
    if not values:
        raise ValidationError(f"layer {i + 1}: empty candidate set")
    for v in dict.fromkeys(values):
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


@dataclass(frozen=True)
class RiskReport:
    record_id: str
    versions: tuple[int, ...]       # release index per layer
    risks: tuple[Fraction, ...]

    @property
    def max_risk(self) -> Fraction:
        return max(self.risks)


def _scaled(weights: Sequence[Fraction]) -> list[int]:
    """Weights times their lcm denominator: integers in the same ratios."""
    scale = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (scale // w.denominator) for w in weights]


def _scaled_gap(gap: Sequence[Sequence[tuple[int, Fraction]]],
                ) -> list[list[tuple[int, int]]]:
    """A gap's successor rows with every weight times the gap's lcm
    denominator."""
    scale = math.lcm(*(w.denominator for adj in gap for _, w in adj))
    return [[(v, w.numerator * (scale // w.denominator)) for v, w in adj]
            for adj in gap]


_Masses = tuple[list[Sequence[int]], list[list[int]], int]


def _masses(nodes: Sequence[Sequence[int]],
            edges: Sequence[Sequence[Sequence[tuple[int, int]]]],
            known: Sequence[Sequence[int]] | None = None) -> _Masses:
    """Forward/backward path mass per node and total path mass.

    `nodes[i]` holds layer i's node weights and `edges[i]` the (successor,
    weight) rows of the gap from layer i to i + 1, all integers: each
    layer's and each gap's weights are the true ones times a positive
    factor of its own, so every path mass is the true one times the product
    of all those factors.  That product is the same for every path and
    cancels in fwd * bwd / total.  `known`, when given, holds the forward
    masses of the first layers, computed from the same weights.
    """
    depth = len(nodes)
    fwd = [list(nodes[0])] if known is None else list(known)
    for i in range(len(fwd), depth):
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
    gets risk 0."""
    fwd, bwd, total = masses
    risks = []
    for i, value in enumerate(actual):
        k = positions[i].get(value)
        risks.append(Fraction(0) if k is None
                     else Fraction(fwd[i][k] * bwd[i][k], total))
    return RiskReport(record_id, tuple(versions), tuple(risks))


def disclosure_risks(fs: Sug, actual: Sequence[str],
                     record_id: str = "",
                     versions: Sequence[int] | None = None) -> RiskReport:
    """Per-version risk: mass of feasible paths crossing the actual value's
    node over the total path mass."""
    if fs.depth == 0 or not fs.layers[0]:
        raise ValidationError("empty graph")
    if len(actual) != fs.depth:
        raise ValidationError("one actual value per layer required")
    masses = _masses([_scaled([n.weight for n in layer])
                      for layer in fs.layers],
                     [_scaled_gap(gap) for gap in fs.out])
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
    risks = tuple(mass[i].get(value, Fraction(0)) / total
                  for i, value in enumerate(actual))
    if versions is None:
        versions = range(1, len(candidates) + 1)
    return RiskReport(record_id, tuple(versions), risks)


_History = tuple[tuple[str, ...], ...]


class AttackMemo:
    """What attacks on ever longer prefixes of one release sequence share.

    Bound to one model, set of external tables and schema, it holds:
    - the model's transition probabilities times their common lcm
      denominator; per distinct candidate multiset its value positions and
      node weights (the multiplicities, in proportion to the shares); per
      distinct pair of consecutive multisets its successor rows;
    - the releases folded so far, and each record's versions and candidate
      sets read off them;
    - the last attack's reports;
    - the forward masses of the candidate histories of the newest
      release's records, and of no other: a longer prefix extends no other
      history.

    Handed other bindings, or releases whose first ones are not the folded
    ones (the same objects, in the same order), it starts over.  The
    actual values of releases already folded must stay as they were.
    """

    def __init__(self) -> None:
        self._bind(())

    def _bind(self, bound: tuple) -> None:
        """Forget everything and serve `bound`: (model, schema, *tables)."""
        self.bound = bound
        self.rows: dict[str, dict[str, int]] = {}
        if bound:
            table = bound[0].successors
            scale = math.lcm(*(p.denominator for row in table.values()
                               for p in row.values()))
            self.rows = {a: {b: p.numerator * (scale // p.denominator)
                             for b, p in row.items()}
                         for a, row in table.items()}
        self.layers: dict[tuple[str, ...],
                          tuple[dict[str, int], tuple[int, ...]]] = {}
        self.gaps: dict[tuple[tuple[str, ...], tuple[str, ...]],
                        tuple[tuple[tuple[int, int], ...], ...]] = {}
        # one object per distinct successor row: most gaps repeat a few
        self.successors: dict[tuple[tuple[int, int], ...],
                              tuple[tuple[int, int], ...]] = {}
        self.releases: list[PublishedRelease] = []
        self.membership: dict[str, tuple[tuple[int, ...], _History]] = {}
        self.reports: dict[str, RiskReport] = {}
        self.forwards: dict[_History, tuple[tuple[int, ...], ...]] = {}

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
        them against the external tables; the ids whose history grew."""
        grown: set[str] = set()
        for rel in releases:
            index = rel.release_index
            rows = et_by_index[index].rows if index in et_by_index else {}
            for rid, group in sorted(rel.group_of().items()):
                if rid in rows and not region_contains(schema, group.region,
                                                       rows[rid]):
                    raise ValidationError(
                        f"release {index}: record {rid!r} falls outside "
                        f"its group region")
                versions, candidates = self.membership.get(rid, ((), ()))
                self.membership[rid] = (versions + (index,),
                                        candidates + (group.values,))
                grown.add(rid)
            self.releases.append(rel)
        return grown

    def masses(self, candidates: _History,
               ) -> tuple[list[dict[str, int]], _Masses]:
        """Value positions per layer and the path masses of one history,
        with build_sug's checks in build_sug's order; the forward masses
        start from those kept for the history without its last layer."""
        layers = []
        for i, values in enumerate(candidates):
            layer = self.layers.get(values)
            if layer is None:
                _check_layer(i, values, self.bound[0])
                counts = _tally(values)
                layer = self.layers[values] = (
                    {v: k for k, v in enumerate(counts)},
                    tuple(counts.values()))
            layers.append(layer)
        edges = []
        for a, b, (sources, _), (targets, _) in zip(
                candidates, candidates[1:], layers, layers[1:]):
            gap = self.gaps.get((a, b))
            if gap is None:
                gap = self.gaps[(a, b)] = tuple(
                    self.successors.setdefault(row, row)
                    for row in _gap(list(sources), list(targets), self.rows))
            edges.append(gap)
        positions = [pos for pos, _ in layers]
        return positions, _masses([weights for _, weights in layers], edges,
                                  self.forwards.get(candidates[:-1]))


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
    releases and a release index given twice.

    Records with the same candidate history share one SUG, so its path
    masses are computed once per call and dropped after its last record.
    No graph is pruned: a node prune removes has forward or backward mass
    0, so every risk comes out the same without it.
    A history with no feasible path raises prune's error, found from its
    forward masses.

    `memo` carries an attack's work to the next one on the same releases
    plus newer ones (same model, tables, schema and actual values).  Only
    the new releases are read; a record they leave out keeps its report,
    and a history one layer longer than a kept one extends its forward
    masses.  A call that raises leaves the memo empty.  A call without a
    memo runs on a fresh one, which keeps no forward masses.
    """
    if et and schema is None:
        raise ValidationError("external tables need the table schema for "
                              "the region check")
    ordered = sorted(releases, key=lambda r: r.release_index)
    for a, b in zip(ordered, ordered[1:]):
        if a.release_index == b.release_index:
            raise ValidationError(f"release {a.release_index} given twice")
    et_by_index = {t.release_index: t for t in (et or ())}
    stray = sorted(et_by_index.keys() - {r.release_index for r in ordered})
    if stray:
        raise ValidationError(f"external table of release {stray[0]}: no "
                              f"release {stray[0]} in the history")
    kept = memo is not None    # a memo made here serves no later call
    if memo is None:
        memo = AttackMemo()
    bound = (model, schema, *(et or ()))
    if not memo._serves(bound, ordered):
        memo._bind(bound)
    try:
        grown = memo._fold(ordered[len(memo.releases):], et_by_index, schema)
        newest = ordered[-1].release_index if ordered else None
        left = Counter(memo.membership[rid][1] for rid in grown)
        shared: dict[_History, tuple[list[dict[str, int]], _Masses]] = {}
        forwards: dict[_History, tuple[tuple[int, ...], ...]] = {}
        for rid in sorted(grown):
            versions, candidates = memo.membership[rid]
            try:
                actual = [histories[rid][i] for i in versions]
            except KeyError:
                raise ValidationError(f"no actual sensitive value on file "
                                      f"for {rid!r} at one of releases "
                                      f"{versions}")
            if candidates in shared:
                positions, masses = shared.pop(candidates)
            else:
                positions, masses = memo.masses(candidates)
            left[candidates] -= 1
            if left[candidates]:
                shared[candidates] = positions, masses
            if masses[2] == 0:
                # no feasible path: name prune's layer, the one before the
                # first that nothing from layer 1 reaches
                j = next(j for j, row in enumerate(masses[0]) if not any(row))
                raise InconsistentHistoryError(
                    f"layer {j} has no feasible node")
            if kept and versions[-1] == newest:
                # as tuples of ints, which the cyclic collector stops
                # tracking: kept lists would add to every full collection
                forwards[candidates] = tuple(map(tuple, masses[0]))
            memo.reports[rid] = _report(positions, masses, actual, rid,
                                        versions)
    except BaseException:
        memo._bind(())
        raise
    if grown:
        memo.forwards = forwards
    return [memo.reports[rid] for rid in sorted(memo.membership)]
