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
    "attack_release_sequence",
]

JOINT_ORACLE_CAP = 1_000_000

_W = TypeVar("_W")


@dataclass(frozen=True)
class SugNode:
    layer: int  # 1-based
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


def build_sug(candidates: Sequence[Sequence[str]],
              model: UpdateModel,
              priors: Sequence[Mapping[str, Fraction]] | None = None) -> Sug:
    """Build the SUG for one record's candidate sensitive sets.

    Duplicate values in a candidate multiset collapse to one node whose
    prior is the multiplicity share; explicit per-layer priors override.
    """
    if not candidates:
        raise ValidationError("empty candidate history")
    layers: list[tuple[SugNode, ...]] = []
    for i, cand in enumerate(candidates):
        _check_layer(i, cand, model)
        order, shares = _collapse(cand)
        if priors is not None:
            shares = [priors[i][v] for v in order]
        layers.append(tuple(SugNode(i + 1, v, w)
                            for v, w in zip(order, shares)))
    values = [[node.value for node in layer] for layer in layers]
    return Sug(tuple(layers), tuple(_gap(a, b, model.successors)
                                    for a, b in zip(values, values[1:])))


def prune(sug: Sug) -> Sug:
    """Iterated dead-end removal to a fixed point.

    First layer loses nodes with no successor, last layer nodes with no
    predecessor, interior nodes either; a layer running empty means the
    published history has no feasible explanation.  A graph with no dead
    end is its own fixed point and comes back unchanged.
    """
    depth = sug.depth
    if depth == 1:
        return sug
    # live successor / predecessor counts per node
    outs = [[len(adj) for adj in gap] for gap in sug.out]
    ins = [[0] * len(layer) for layer in sug.layers[1:]]
    for gap, counts in zip(sug.out, ins):
        for adj in gap:
            for v, _ in adj:
                counts[v] += 1
    if all(map(all, outs)) and all(map(all, ins)):
        return sug
    outs.append([1] * len(sug.layers[-1]))
    ins.insert(0, [1] * len(sug.layers[0]))
    preds: list[list[list[int]]] = [[] for _ in range(depth)]
    for i, gap in enumerate(sug.out):
        rev: list[list[int]] = [[] for _ in sug.layers[i + 1]]
        for u, adj in enumerate(gap):
            for v, _ in adj:
                rev[v].append(u)
        preds[i + 1] = rev

    # Sweep layers in order, killing in place, so the first layer to run
    # empty (and with it the error message) is the same as node-by-node
    # recounting would find.
    alive = [[True] * len(layer) for layer in sug.layers]
    changed = True
    while changed:
        changed = False
        for i in range(depth):
            for u in range(len(sug.layers[i])):
                if alive[i][u] and (outs[i][u] == 0 or ins[i][u] == 0):
                    alive[i][u] = False
                    changed = True
                    if i + 1 < depth:
                        for v, _ in sug.out[i][u]:
                            ins[i + 1][v] -= 1
                    if i > 0:
                        for w in preds[i][u]:
                            outs[i - 1][w] -= 1
        for i, layer_alive in enumerate(alive):
            if not any(layer_alive):
                raise InconsistentHistoryError(
                    f"layer {i + 1} has no feasible node")

    keep: list[list[int]] = [[u for u, ok in enumerate(layer) if ok]
                             for layer in alive]
    remap = [{u: k for k, u in enumerate(layer)} for layer in keep]
    layers = tuple(tuple(sug.layers[i][u] for u in keep[i])
                   for i in range(depth))
    out = tuple(
        tuple(tuple((remap[i + 1][v], w) for v, w in sug.out[i][u]
                    if alive[i + 1][v])
              for u in keep[i])
        for i in range(depth - 1))
    return Sug(layers, out)


@dataclass(frozen=True)
class RiskReport:
    record_id: str
    versions: tuple[int, ...]       # release index per layer
    risks: tuple[Fraction, ...]
    path_count: int
    consistent: bool                # every actual value on a feasible path

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


_Masses = tuple[list[list[int]], list[list[int]], int, int]


def _masses(nodes: Sequence[Sequence[int]],
            edges: Sequence[Sequence[Sequence[tuple[int, int]]]]) -> _Masses:
    """Forward/backward path mass per node, total path mass and path count.

    `nodes[i]` holds layer i's node weights and `edges[i]` the (successor,
    weight) rows of the gap from layer i to i + 1, all integers: each
    layer's and each gap's weights are the true ones times a positive
    factor of its own, so every path mass is the true one times the product
    of all those factors.  That product is the same for every path and
    cancels in fwd * bwd / total.
    """
    depth = len(nodes)
    fwd = [list(nodes[0])]
    paths = [1] * len(nodes[0])
    for i in range(1, depth):
        mass = [0] * len(nodes[i])
        count = [0] * len(nodes[i])
        for base, n, adj in zip(fwd[-1], paths, edges[i - 1]):
            for v, w in adj:
                mass[v] += base * w
                count[v] += n
        fwd.append([m * w for m, w in zip(mass, nodes[i])])
        paths = count
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
    return fwd, bwd, sum(fwd[depth - 1]), sum(paths)


def _report(positions: Sequence[Mapping[str, int]], masses: _Masses,
            actual: Sequence[str], record_id: str,
            versions: Sequence[int]) -> RiskReport:
    """Per-version risk: the mass of the paths crossing the actual value's
    node (`positions[i]` maps layer i's values to node indices) over the
    total.  An actual value with no node, or on a node no path crosses,
    gets risk 0 and makes the report inconsistent."""
    fwd, bwd, total, path_count = masses
    risks = []
    for i, value in enumerate(actual):
        k = positions[i].get(value)
        risks.append(Fraction(0) if k is None
                     else Fraction(fwd[i][k] * bwd[i][k], total))
    return RiskReport(record_id, tuple(versions), tuple(risks), path_count,
                      all(risks))


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
                          priors: Sequence[Mapping[str, Fraction]] | None = None,
                          cap: int = JOINT_ORACLE_CAP,
                          record_id: str = "",
                          versions: Sequence[int] | None = None) -> RiskReport:
    """Independent oracle: enumerate every joint value assignment outright.

    Must agree exactly with disclosure_risks(prune(build_sug(...))); kept
    as the cross-check for the graph computation.
    """
    layer_data = []
    size = 1
    for i, cand in enumerate(candidates):
        order, shares = _collapse(cand)
        if priors is not None:
            shares = [priors[i][v] for v in order]
        layer_data.append(list(zip(order, shares)))
        size *= len(order)
    if size > cap:
        raise CapExceededError(f"joint enumeration size {size} exceeds cap {cap}")
    total = Fraction(0)
    mass: list[dict[str, Fraction]] = [dict() for _ in layer_data]
    feasible = 0
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
        feasible += 1
        total += weight
        for i, (v, _) in enumerate(combo):
            mass[i][v] = mass[i].get(v, Fraction(0)) + weight
    if total == 0:
        raise InconsistentHistoryError("no feasible joint assignment")
    risks = []
    consistent = True
    for i, value in enumerate(actual):
        m = mass[i].get(value)
        if m is None:
            risks.append(Fraction(0))
            consistent = False
        else:
            risks.append(m / total)
    if versions is None:
        versions = range(1, len(candidates) + 1)
    return RiskReport(record_id, tuple(versions), tuple(risks), feasible,
                      consistent)


class _SharedTables:
    """The integer tables one attack call builds once and shares among its
    records: the model's transition probabilities times their common lcm
    denominator, per distinct candidate multiset its value positions and
    node weights (the multiplicities, in proportion to the shares), and per
    distinct pair of consecutive multisets its successor rows."""

    def __init__(self, model: UpdateModel):
        self.model = model
        table = model.successors
        scale = math.lcm(*(p.denominator for row in table.values()
                           for p in row.values()))
        self.rows = {a: {b: p.numerator * (scale // p.denominator)
                         for b, p in row.items()}
                     for a, row in table.items()}
        self.layers: dict[tuple[str, ...],
                          tuple[dict[str, int], list[int]]] = {}
        self.gaps: dict[tuple[tuple[str, ...], tuple[str, ...]],
                        tuple[tuple[tuple[int, int], ...], ...]] = {}

    def masses(self, candidates: Sequence[tuple[str, ...]],
               ) -> tuple[list[dict[str, int]], _Masses]:
        """Value positions per layer and the path masses of one history,
        with build_sug's checks in build_sug's order."""
        layers = []
        for i, values in enumerate(candidates):
            layer = self.layers.get(values)
            if layer is None:
                _check_layer(i, values, self.model)
                counts = _tally(values)
                layer = self.layers[values] = (
                    {v: k for k, v in enumerate(counts)},
                    list(counts.values()))
            layers.append(layer)
        edges = []
        for a, b, (sources, _), (targets, _) in zip(
                candidates, candidates[1:], layers, layers[1:]):
            gap = self.gaps.get((a, b))
            if gap is None:
                gap = self.gaps[(a, b)] = _gap(list(sources), list(targets),
                                               self.rows)
            edges.append(gap)
        positions = [pos for pos, _ in layers]
        return positions, _masses([weights for _, weights in layers], edges)


def attack_release_sequence(releases: Sequence[PublishedRelease],
                            et: Sequence[ExternalKnowledgeTable] | None,
                            model: UpdateModel,
                            histories: Mapping[str, Mapping[int, str]],
                            schema: TableSchema | None = None,
                            previous: Sequence[RiskReport] | None = None,
                            ) -> list[RiskReport]:
    """Replay the attack over a full release sequence.

    For each record id, its candidate sets are read off the groups that
    contain it (counterfeit members included - the adversary cannot tell),
    and its report is what disclosure_risks(prune(build_sug(...))) gives.
    `histories` supplies the actual value per (id, release index); `et`
    enables the exact-QI integrity check.

    Records with the same candidate history share one SUG, so its path
    masses are computed once per call and dropped after its last record.
    No graph is pruned: a node prune removes has forward or backward mass
    0, so every risk and the path count come out the same without it.
    Only a history with no feasible path goes through prune, which raises.

    `previous` may hold the reports of this attack on the same releases
    without the newest one (same model and histories).  A record absent
    from the newest release has the same candidate sets, actual values and
    so the same report as then; it is returned as is, not attacked again.
    """
    ordered = sorted(releases, key=lambda r: r.release_index)
    et_by_index = {t.release_index: t for t in (et or ())}
    membership: dict[str, list[tuple[int, tuple[str, ...]]]] = {}
    for rel in ordered:
        for rid, group in sorted(rel.group_of().items()):
            if schema is not None and rel.release_index in et_by_index:
                rows = et_by_index[rel.release_index].rows
                if rid in rows and not region_contains(schema, group.region,
                                                       rows[rid]):
                    raise ValidationError(
                        f"release {rel.release_index}: record {rid!r} falls "
                        f"outside its group region")
            membership.setdefault(rid, []).append(
                (rel.release_index, group.values))
    settled = {r.record_id: r for r in previous or ()}
    newest = ordered[-1].release_index if ordered else None
    reports: dict[str, RiskReport] = {}
    pending: dict[str, tuple[tuple[int, ...],
                             tuple[tuple[str, ...], ...]]] = {}
    for rid, appearances in membership.items():
        versions = tuple(i for i, _ in appearances)
        before = settled.get(rid)
        if (versions[-1] != newest and before is not None
                and before.versions == versions):
            reports[rid] = before
        else:
            pending[rid] = (versions, tuple(v for _, v in appearances))
    left = Counter(candidates for _, candidates in pending.values())
    tables = _SharedTables(model)
    shared: dict[tuple[tuple[str, ...], ...],
                 tuple[list[dict[str, int]], _Masses]] = {}
    for rid in sorted(pending):
        versions, candidates = pending[rid]
        try:
            actual = [histories[rid][i] for i in versions]
        except KeyError:
            raise ValidationError(f"no actual sensitive value on file for "
                                  f"{rid!r} at one of releases {versions}")
        if candidates in shared:
            positions, masses = shared.pop(candidates)
        else:
            positions, masses = tables.masses(candidates)
        left[candidates] -= 1
        if left[candidates]:
            shared[candidates] = positions, masses
        if masses[2] == 0:  # no feasible path: prune raises, naming the
            # first layer its sweep empties
            reports[rid] = disclosure_risks(
                prune(build_sug(candidates, model)), actual,
                record_id=rid, versions=versions)
        else:
            reports[rid] = _report(positions, masses, actual, rid, versions)
    return [reports[rid] for rid in sorted(membership)]
