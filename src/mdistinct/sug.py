"""The adversary: sensitive-attribute update graphs (SUGs), pruning to the
feasible subgraph, exact path mass and per-version disclosure risks.

All results are exact: node and edge weights are `fractions.Fraction`s and
risks come out as the golden rationals with no tolerance.  Inside, the
forward/backward path masses run on integers: every layer's node weights
are scaled to that layer's common denominator and every gap's edge weights
to that gap's, so each path mass carries the same factor and one exact
division per risk cancels it.  No path is ever enumerated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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


@functools.lru_cache(maxsize=4096)
def _share(count: int, total: int) -> Fraction:
    return Fraction(count, total)


def _collapse(values: Sequence[str]) -> tuple[list[str], list[Fraction]]:
    """Distinct values in first-appearance order with multiplicity shares."""
    order: list[str] = []
    counts: dict[str, int] = {}
    for v in values:
        if v not in counts:
            order.append(v)
        counts[v] = counts.get(v, 0) + 1
    total = len(values)
    return order, [_share(counts[v], total) for v in order]


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
        if not cand:
            raise ValidationError(f"layer {i + 1}: empty candidate set")
        order, shares = _collapse(cand)
        for v in order:
            model.cus_of(v)  # raises on unknown values
        if priors is not None:
            shares = [priors[i][v] for v in order]
        layers.append(tuple(SugNode(i + 1, v, w)
                            for v, w in zip(order, shares)))
    table = model.successors
    out = []
    for layer, nxt in zip(layers, layers[1:]):
        targets = [succ.value for succ in nxt]
        gap = []
        for node in layer:
            row = table.get(node.value, {})
            gap.append(tuple((k, row[b]) for k, b in enumerate(targets)
                             if b in row))
        out.append(tuple(gap))
    return Sug(tuple(layers), tuple(out))


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
    consistent: bool                # every actual value had a surviving node

    @property
    def max_risk(self) -> Fraction:
        return max(self.risks)


def _scaled(weights: Sequence[Fraction]) -> list[int]:
    """Weights times their lcm denominator: integers in the same ratios."""
    scale = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (scale // w.denominator) for w in weights]


def _masses(fs: Sug) -> tuple[list[list[int]], list[list[int]], int, int]:
    """Forward/backward path mass per node, total path mass and path count.

    Masses are integers: each layer's node weights and each gap's edge
    weights are scaled to their own lcm denominator, so every path mass is
    the true one times the product of all those scales.  That factor is
    the same for every path and cancels in fwd * bwd / total.
    """
    depth = fs.depth
    nodes = [_scaled([n.weight for n in layer]) for layer in fs.layers]
    edges = []
    for gap in fs.out:
        scale = math.lcm(*(w.denominator for adj in gap for _, w in adj))
        edges.append([[(v, w.numerator * (scale // w.denominator))
                       for v, w in adj] for adj in gap])

    fwd = [nodes[0]]
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
        bwd[i] = [sum(w * after[v] for v, w in adj) for adj in edges[i]]
    return fwd, bwd, sum(fwd[depth - 1]), sum(paths)


def disclosure_risks(fs: Sug, actual: Sequence[str],
                     record_id: str = "",
                     versions: Sequence[int] | None = None) -> RiskReport:
    """Per-version risk: mass of feasible paths crossing the actual value's
    node over the total path mass."""
    if fs.depth == 0 or not fs.layers[0]:
        raise ValidationError("empty graph")
    if len(actual) != fs.depth:
        raise ValidationError("one actual value per layer required")
    fwd, bwd, total, path_count = _masses(fs)
    if total == 0:
        raise InconsistentHistoryError("no feasible path")
    risks: list[Fraction] = []
    consistent = True
    for i, value in enumerate(actual):
        idx = next((k for k, n in enumerate(fs.layers[i]) if n.value == value),
                   None)
        if idx is None:
            risks.append(Fraction(0))
            consistent = False
        else:
            risks.append(Fraction(fwd[i][idx] * bwd[i][idx], total))
    if versions is None:
        versions = range(1, fs.depth + 1)
    return RiskReport(record_id, tuple(versions), tuple(risks), path_count,
                      consistent)


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
    then build -> prune -> risks.  `histories` supplies the actual value per
    (id, release index); `et` enables the exact-QI integrity check.

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
    reports: list[RiskReport] = []
    for rid in sorted(membership):
        appearances = membership[rid]
        versions = tuple(i for i, _ in appearances)
        before = settled.get(rid)
        if (versions[-1] != newest and before is not None
                and before.versions == versions):
            reports.append(before)
            continue
        candidates = [values for _, values in appearances]
        try:
            actual = [histories[rid][i] for i in versions]
        except KeyError:
            raise ValidationError(f"no actual sensitive value on file for "
                                  f"{rid!r} at one of releases {versions}")
        fs = prune(build_sug(candidates, model))
        reports.append(disclosure_risks(fs, actual, record_id=rid,
                                        versions=versions))
    return reports
