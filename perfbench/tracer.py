"""Timing wrappers installed from outside the program, one layer boundary each.

`from x import f` binds `f` in the importing module, so a wrapper has to be
installed on the name the caller actually looks up: `evaluation.publish`,
not `engine.publish`.  Each call site below names the module whose
namespace the call goes through.  Nothing under `src/` is edited.

A `Tracer` lives for one traced pass.  It keeps every span in memory as
(name, start, end, parent, pass id) and every deterministic count in a
`Counter`; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from functools import wraps

from mdistinct import baselines, cli, engine, evaluation, fileio, sug
from mdistinct.fileio import HistoryStore


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        # per engine.publish call: records handed in; per phase 2 call:
        # (records routed to buckets, records left for the static pool)
        self.publish_sizes: list[int] = []
        self.phase2_calls: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of `owner.attr` as span `name`; `on_result(result,
        args)` runs after the span closes, so counting is not timed."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_id)
            if on_result is not None:
                on_result(result, args)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` without timing them (hot helpers)."""
        fn = getattr(owner, attr)
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results

    def closed_spans(self) -> list[tuple[str, float, float, int, int]]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return self.spans  # type: ignore[return-value]

    def span_seconds(self) -> dict[str, float]:
        """Inclusive seconds per span name, and self seconds (the span
        minus the part its direct children cover) as `<name>.self`."""
        spans = self.closed_spans()
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(spans):
            total[name] += end - start
            total[name + ".self"] += end - start - children[idx]
        return dict(total)

    def identity_problems(self, counts: dict[str, int],
                          read_release_calls: int | None = None,
                          ) -> list[str]:
        """Identities the counts of one traced pass must satisfy."""
        out = []
        if len(self.phase2_calls) != len(self.publish_sizes):
            out.append("phase 2 did not run once per engine.publish call")
        for n, (routed, pool) in zip(self.publish_sizes, self.phase2_calls):
            if routed + pool != n:
                out.append(f"phase 2 routed {routed} + pool {pool} != "
                           f"snapshot size {n}")
        if counts.get("sug.nodes", 0) - counts.get("sug.nodes_pruned", 0) \
                != counts.get("sug.nodes_kept", 0):
            out.append("sug.nodes - sug.nodes_pruned != nodes left after "
                       "pruning")
        got = counts.get("fileio.read_release.calls", 0)
        if read_release_calls is not None and got != read_release_calls:
            out.append(f"fileio.read_release.calls {got} != "
                       f"{read_release_calls}")
        return out


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    c = tracer.counts

    # engine: publish is called from evaluation and cli; its phases,
    # static_partition, generalize and the update helpers through engine.
    def on_publish(result, args):
        release, _ = result
        c["engine.counterfeits"] += sum(release.counterfeit_stats.values())
        tracer.publish_sizes.append(len(args[0]))

    def on_phase1(buckets, args):
        c["engine.phase1.buckets"] += len(buckets)
        c["engine.phase1.intersection_buckets"] += sum(
            1 for b in buckets if b.origin == "intersection")

    def on_phase2(pool, args):
        routed = len(args[0]) - len(pool)
        c["engine.phase2.routed"] += routed
        c["engine.phase2.pool"] += len(pool)
        tracer.phase2_calls.append((routed, len(pool)))

    def on_phase3(groups, args):
        c["engine.phase3.calls"] += 1
        c["engine.phase3.groups"] += len(groups)

    def on_static(groups, args):
        c["engine.static_partition.groups"] += len(groups)

    def on_attack(reports, args):
        newest = max(r.release_index for r in args[0])
        c["sug.attack.calls"] += 1
        c["sug.graphs_fresh"] += sum(1 for r in reports
                                     if r.versions[-1] == newest)

    for owner in (evaluation, cli):
        tracer.span(owner, "publish", "engine.publish", on_publish)
        tracer.span(owner, "verify_m_distinct", "engine.verify")
        tracer.span(owner, "attack_release_sequence", "sug.attack",
                    on_attack)
    tracer.span(engine, "phase1_create_buckets", "engine.phase1", on_phase1)
    tracer.span(engine, "phase2_assign", "engine.phase2", on_phase2)
    tracer.span(engine, "phase3_split", "engine.phase3", on_phase3)
    for owner in (engine, baselines):
        tracer.span(owner, "static_partition", "engine.static_partition",
                    on_static)
        tracer.span(owner, "generalize", "model.generalize")
    for attr in ("implies", "intersect", "uss_of"):
        tracer.count(engine, attr, f"updates.{attr}.calls")

    # sug: attack_release_sequence calls these through sug's namespace.
    def on_build(graph, args):
        c["sug.graphs"] += 1
        c["sug.nodes"] += graph.node_count()
        c["sug.edges"] += graph.edge_count()

    def on_prune(graph, args):
        c["sug.nodes_pruned"] += args[0].node_count() - graph.node_count()

    def on_risks(report, args):
        c["sug.paths"] += report.path_count
        c["sug.nodes_kept"] += args[0].node_count()

    tracer.span(sug, "build_sug", "sug.build", on_build)
    tracer.span(sug, "prune", "sug.prune", on_prune)
    tracer.span(sug, "disclosure_risks", "sug.risks", on_risks)

    # evaluation: run_experiment is called by the benchmark itself; the
    # evaluator classes are looked up in evaluation's namespace.
    def on_batch(estimates, args):
        c["evaluation.estimate.queries"] += len(estimates)
        c["evaluation.estimate.kept"] += sum(1 for e in estimates if e > 0)

    tracer.span(evaluation, "run_experiment", "evaluation.run_experiment")
    tracer.span(evaluation.ReleaseEvaluator, "__init__", "evaluation.estimate")
    tracer.span(evaluation.ReleaseEvaluator, "batch", "evaluation.estimate",
                on_batch)
    tracer.span(evaluation.SnapshotCounter, "__init__", "evaluation.count")
    tracer.span(evaluation.SnapshotCounter, "batch", "evaluation.count")

    # baselines: the m-invariance publisher, as the simulation calls it.
    def on_minv(result, args):
        c["baselines.minv.invalidated"] += len(result[2])

    tracer.span(evaluation, "publish_m_invariance", "baselines.minv", on_minv)

    # fileio: HistoryStore methods on the class, load_microdata both where
    # fileio calls it and where cli imported it.
    def on_read_release(result, args):
        c["fileio.read_release.calls"] += 1

    def on_load(result, args):
        c["fileio.load_microdata.calls"] += 1

    tracer.span(HistoryStore, "replay_state", "fileio.replay_state")
    tracer.span(HistoryStore, "read_release", "fileio.read_release",
                on_read_release)
    tracer.span(HistoryStore, "write_release", "fileio.write_release")
    for owner in (fileio, cli):
        tracer.span(owner, "load_microdata", "fileio.load_microdata", on_load)
    tracer.span(cli, "write_risks", "fileio.write_risks")

    # cli: the command bodies; build_parser looks them up on every main().
    for command in ("publish", "attack", "verify"):
        tracer.span(cli, f"cmd_{command}", f"cli.{command}")
    return tracer
