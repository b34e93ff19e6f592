"""The integer attack kernel and prefix reuse against independent routes.

* `disclosure_risks(prune(build_sug(...)))` runs its path masses on scaled
  integers; the joint-enumeration oracle multiplies `Fraction`s outright.
  Both must give the same `RiskReport` under closed models with
  non-uniform rational probabilities, where repeated candidate values
  give non-uniform node weights.
* `prune` keeps what layer 1 reaches and what reaches the last layer,
  in two passes; it must reach the same subgraph, and fail with the same
  message, as the plain node-by-node sweep kept below as the reference.
* `attack_release_sequence(..., memo=...)` folds only the releases its
  memo has not seen, hands back settled records' earlier reports and
  extends kept forward masses; every prefix must still equal a fresh
  attack, or raise its error, and a memo that does not fit the call, or
  whose call raised, must not change what the next call gives.
* `attack_release_sequence` shares one set of path masses among the
  records with the same candidate history and prunes nothing; its reports,
  and the error it raises, must be those of `reference_attack`, which runs
  `disclosure_risks(prune(build_sug(...)))` record by record.  It builds
  no graph, not even for a history with no feasible path, whose error it
  reads off its own forward masses.
"""

from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mdistinct.baselines import count_vulnerable
from mdistinct.errors import (InconsistentHistoryError, MDistinctError,
                              ValidationError)
from mdistinct.evaluation import ExperimentConfig, run_experiment
from mdistinct.fileio import synthetic_schema
from mdistinct.model import (ExternalKnowledgeTable, Member, PublishedRelease,
                             QIGroup)
from mdistinct import sug as sug_module
from mdistinct.sug import (AttackMemo, Sug, attack_release_sequence,
                           build_sug, disclosure_risks, prune,
                           risks_by_joint_oracle)
from mdistinct.updates import UpdateModel, validate_update_model

F = Fraction


def reference_prune(sug: Sug) -> Sug:
    """Dead-end removal by recounting every node's live neighbours on each
    sweep: the definition the counting `prune` must reproduce."""
    depth = sug.depth
    alive = [[True] * len(layer) for layer in sug.layers]
    if depth == 1:
        return sug

    def live_out(i, u):
        return sum(1 for v, _ in sug.out[i][u] if alive[i + 1][v])

    def live_in(i, v):
        return sum(1 for u in range(len(sug.layers[i - 1]))
                   if alive[i - 1][u]
                   and any(k == v for k, _ in sug.out[i - 1][u]))

    changed = True
    while changed:
        changed = False
        for i in range(depth):
            for u in range(len(sug.layers[i])):
                if not alive[i][u]:
                    continue
                if ((i < depth - 1 and live_out(i, u) == 0)
                        or (i > 0 and live_in(i, u) == 0)):
                    alive[i][u] = False
                    changed = True
        for i, layer_alive in enumerate(alive):
            if not any(layer_alive):
                raise InconsistentHistoryError(
                    f"layer {i + 1} has no feasible node")
    keep = [[u for u, ok in enumerate(layer) if ok] for layer in alive]
    remap = [{u: k for k, u in enumerate(layer)} for layer in keep]
    return Sug(
        tuple(tuple(sug.layers[i][u] for u in keep[i]) for i in range(depth)),
        tuple(tuple(tuple((remap[i + 1][v], w) for v, w in sug.out[i][u]
                          if alive[i + 1][v])
                    for u in keep[i])
              for i in range(depth - 1)))


@st.composite
def closed_models(draw, max_values=6):
    """Reachability closure of a random digraph, with random positive
    integer weights normalized per row: closed, non-uniform, exact."""
    n = draw(st.integers(2, max_values))
    domain = [f"s{i}" for i in range(n)]
    cus = {v: set(draw(st.lists(st.sampled_from(domain), min_size=1,
                                max_size=2, unique=True)))
           for v in domain}
    changed = True
    while changed:
        changed = False
        for v in domain:
            for w in list(cus[v]):
                if not cus[w] <= cus[v]:
                    cus[v] |= cus[w]
                    changed = True
    table = {}
    for a in domain:
        targets = sorted(cus[a])
        weights = draw(st.lists(st.integers(1, 9), min_size=len(targets),
                                max_size=len(targets)))
        table[a] = {b: F(w, sum(weights)) for b, w in zip(targets, weights)}
    model = UpdateModel(tuple(domain), table)
    assert validate_update_model(model) == []
    return model


@st.composite
def feasible_instances(draw):
    """A true path through the model plus random decoys per layer; decoys
    often have no partner in the next or previous layer, so pruning
    removes nodes before the risks are taken."""
    model = draw(closed_models())
    domain = list(model.sensitive_domain)
    depth = draw(st.integers(1, 5))
    actual = [draw(st.sampled_from(domain))]
    while len(actual) < depth:
        actual.append(draw(st.sampled_from(sorted(model.cus_of(actual[-1])))))
    candidates = []
    for value in actual:
        decoys = draw(st.lists(st.sampled_from(domain), max_size=4))
        layer = draw(st.permutations([value, *decoys]))
        candidates.append(list(layer))
    return model, candidates, actual


@settings(max_examples=400, deadline=None)
@given(feasible_instances())
def test_kernel_equals_joint_oracle(instance):
    model, candidates, actual = instance
    fs = prune(build_sug(candidates, model))
    graph = disclosure_risks(fs, actual)
    oracle = risks_by_joint_oracle(candidates, model, actual)
    assert graph == oracle


@st.composite
def any_instances(draw):
    """Random candidate histories, feasible or not."""
    model = draw(closed_models())
    depth = draw(st.integers(1, 5))
    candidates = [draw(st.lists(st.sampled_from(model.sensitive_domain),
                                min_size=1, max_size=5))
                  for _ in range(depth)]
    return model, candidates


@settings(max_examples=400, deadline=None)
@given(any_instances())
def test_prune_matches_reference_sweep(instance):
    model, candidates = instance
    sug = build_sug(candidates, model)
    try:
        want = reference_prune(sug)
    except InconsistentHistoryError as exc:
        with pytest.raises(InconsistentHistoryError) as got:
            prune(sug)
        assert str(got.value) == str(exc)
        return
    assert prune(sug) == want


def test_prune_error_names_first_layer_emptied_by_the_sweep(worked_model):
    # Pneumonia cannot become Dyspepsia: the first sweep empties layers 2
    # and 3 while Flu, with a live successor when visited, lasts until the
    # second sweep; the error names the lowest layer empty after a sweep
    history = [["Flu"], ["Pneumonia"], ["Dyspepsia"]]
    with pytest.raises(InconsistentHistoryError,
                       match="^layer 2 has no feasible node$"):
        prune(build_sug(history, worked_model))


def test_dead_end_free_graph_is_returned_unchanged(worked_model):
    sug = build_sug([["Flu", "Dyspepsia"], ["Pneumonia", "Gastritis"]],
                    worked_model)
    assert prune(sug) is sug


def test_missing_edges_are_not_built(worked_model):
    sug = build_sug([["Glaucoma", "Flu"], ["Cataract", "LungCancer"]],
                    worked_model)
    assert sug.out == ((((0, F(1, 2)),), ((1, F(1, 2)),)),)


# ---------------------------------------------------------------------------
# prefix reuse


def _without(release, rid):
    """The release with record `rid` left out."""
    return replace(release, groups=tuple(
        replace(g, members=tuple(m for m in g.members if m.rid != rid))
        for g in release.groups))


class TestPrefixReuse:
    def test_settled_records_get_their_previous_report(
            self, release_one, release_two_defended, worked_model,
            histories_12):
        memo = AttackMemo()
        first = attack_release_sequence([release_one], None, worked_model,
                                        histories_12, memo=memo)
        # drop Ken from release 2: his only appearance stays release 1
        releases = [release_one, _without(release_two_defended, "Ken")]
        reports = attack_release_sequence(releases, None, worked_model,
                                          histories_12, memo=memo)
        assert reports == attack_release_sequence(releases, None,
                                                  worked_model, histories_12)
        ken = next(r for r in reports if r.record_id == "Ken")
        assert ken is next(r for r in first if r.record_id == "Ken")
        # records in the newest release are attacked again
        assert all(r is not p for r, p in zip(reports, first)
                   if r.record_id != "Ken")

    def test_memo_starts_over_on_releases_it_did_not_fold(
            self, release_one, release_two_defended, worked_model,
            class_model, histories_12, disease_schema, t1_records):
        def both(releases, model=worked_model, et=None, schema=None):
            fresh = _outcome(attack_release_sequence, releases, et, model,
                             histories_12, schema)
            assert _outcome(attack_release_sequence, releases, et, model,
                            histories_12, schema, memo=memo) == fresh
            return fresh

        memo = AttackMemo()
        both([release_one, release_two_defended])
        # another object in place of a folded release, at its index
        without_ken = _without(release_two_defended, "Ken")
        both([release_one, without_ken])
        # a release slipped in before a folded one
        release_three = replace(without_ken, release_index=3)
        history = {rid: {**h, 3: h[2]} for rid, h in histories_12.items()}
        memo = AttackMemo()
        attack_release_sequence([release_one, release_three], None,
                                worked_model, history, memo=memo)
        fresh = attack_release_sequence(
            [release_one, release_two_defended, release_three], None,
            worked_model, history)
        assert attack_release_sequence(
            [release_two_defended, release_three, release_one], None,
            worked_model, history, memo=memo) == fresh
        # another model, other tables, another schema
        memo = AttackMemo()
        releases = [release_one, release_two_defended]
        assert both(releases) != both(releases, class_model)
        rows = {rec.id: rec.qi for rec in t1_records}
        both(releases, et=[ExternalKnowledgeTable(1, rows)],
             schema=disease_schema)
        rows["Ken"] = (39, 39)   # outside Ken's published region
        assert both(releases, et=[ExternalKnowledgeTable(1, rows)],
                    schema=disease_schema)[0] is ValidationError
        both(releases)

    def test_a_call_that_raises_leaves_a_memo_that_still_fits(
            self, release_one, release_two_defended, worked_model,
            histories_12):
        memo = AttackMemo()
        releases = [release_one, release_two_defended]
        attack_release_sequence(releases[:1], None, worked_model,
                                histories_12, memo=memo)
        # no actual value at release 2 for anyone: the call stops after
        # reading release 2, before any record of it is attacked
        lacking = {rid: {1: h[1]} for rid, h in histories_12.items()}
        with pytest.raises(ValidationError, match="no actual sensitive"):
            attack_release_sequence(releases, None, worked_model, lacking,
                                    memo=memo)
        assert attack_release_sequence(
            releases, None, worked_model, histories_12,
            memo=memo) == attack_release_sequence(releases, None,
                                                  worked_model, histories_12)

    def test_every_prefix_equals_a_fresh_attack(self):
        config = ExperimentConfig(m=6, d=10, n_records=120, n_releases=4,
                                  inserts=30, deletes=12,
                                  internal_updates=30, thetas=(),
                                  n_queries=0, seed=11)
        report = run_experiment(config)
        model = synthetic_schema(config.d, config.sensitive_size)[1]
        histories: dict[str, dict[int, str]] = {}
        for release, snapshot in zip(report.published, report.snapshots):
            for rec in snapshot:
                histories.setdefault(rec.id, {})[release.release_index] = \
                    rec.sensitive
        settled = 0
        fresh = []
        for k, stats in enumerate(report.releases, start=1):
            fresh = attack_release_sequence(report.published[:k], None, model,
                                            histories)
            assert stats.vulnerable == count_vulnerable(fresh)
            newest = report.published[k - 1].release_index
            settled += sum(1 for r in fresh if r.versions[-1] != newest)
        assert report.final_reports == fresh
        assert settled > 0  # the run had settled records to reuse


# ---------------------------------------------------------------------------
# shared histories against the record-by-record route


def reference_attack(releases, model, histories):
    """One graph per record, built, pruned and attacked on its own."""
    membership = {}
    for rel in sorted(releases, key=lambda r: r.release_index):
        for rid, group in sorted(rel.group_of().items()):
            membership.setdefault(rid, []).append(
                (rel.release_index, group.values))
    reports = []
    for rid in sorted(membership):
        versions = tuple(i for i, _ in membership[rid])
        try:
            actual = [histories[rid][i] for i in versions]
        except KeyError:
            raise ValidationError(f"no actual sensitive value on file for "
                                  f"{rid!r} at one of releases {versions}")
        fs = prune(build_sug([v for _, v in membership[rid]], model))
        reports.append(disclosure_risks(fs, actual, record_id=rid,
                                        versions=versions))
    return reports


def rarely(n):
    """True once in n draws; False is the simplest example."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def release_sequences(draw):
    """1-4 releases of 2-7 records in at most three groups each, and a
    twin of the first record in its groups throughout, so that records
    share candidate histories.  A record follows the model or, when it
    drifts, takes any value, so that its own path can be pruned while its
    history stays feasible, or leave its history with no feasible path.
    Counterfeits add decoys, now and then one outside the domain, and now
    and then an actual value is missing."""
    model = draw(closed_models())
    domain = list(model.sensitive_domain)
    n = draw(st.integers(2, 7))
    rids = [f"r{k}" for k in range(n)]
    drifts = {rid: draw(rarely(4)) for rid in rids + ["twin"]}
    values: dict[str, str] = {}
    histories: dict[str, dict[int, str]] = {}
    releases = []
    for index in range(1, draw(st.integers(1, 4)) + 1):
        present = draw(st.lists(st.sampled_from(rids), min_size=1,
                                unique=True))
        slot = {rid: draw(st.integers(0, 2)) for rid in present}
        if rids[0] in present:
            present.append("twin")
            slot["twin"] = slot[rids[0]]
        members: dict[int, list[Member]] = {}
        for rid in present:
            before = values.get(rid)
            pool = (domain if before is None or drifts[rid]
                    else sorted(model.cus_of(before)))
            values[rid] = draw(st.sampled_from(pool))
            histories.setdefault(rid, {})[index] = values[rid]
            members.setdefault(slot[rid], []).append(Member(rid,
                                                            values[rid]))
        groups = []
        for gid in sorted(members):
            decoys = draw(st.lists(st.sampled_from(
                domain + ["zz"] if draw(rarely(20)) else domain),
                max_size=2))
            fakes = [Member(f"c{index}.{gid}.{k}", v, True)
                     for k, v in enumerate(decoys)]
            groups.append(QIGroup(gid, (), (*members[gid], *fakes)))
        releases.append(PublishedRelease(index, tuple(groups)))
    if draw(rarely(8)):
        rid = draw(st.sampled_from(sorted(histories)))
        del histories[rid][min(histories[rid])]
    return model, releases, histories


def _outcome(attack, *args, **kwargs):
    try:
        return attack(*args, **kwargs)
    except MDistinctError as exc:
        return type(exc), str(exc)


def _graph_code_raises(*args, **kwargs):
    raise AssertionError("the attack built or pruned a graph")


@settings(max_examples=400, deadline=None)
@given(release_sequences())
def test_attack_equals_record_by_record_reference(case):
    """With `build_sug` and `prune` unusable while it runs, the attack
    still gives the reference's reports, or its error: an infeasible
    history's message comes from the attack's own masses."""
    model, releases, histories = case
    want = _outcome(reference_attack, releases, model, histories)
    with mock.patch.object(sug_module, "build_sug", _graph_code_raises), \
            mock.patch.object(sug_module, "prune", _graph_code_raises):
        assert _outcome(attack_release_sequence, releases, None, model,
                        histories) == want


@settings(max_examples=400, deadline=None)
@given(release_sequences())
def test_one_memo_over_every_prefix_equals_fresh_attacks(case):
    """A memo carried from each prefix to the next, through the calls that
    raise, gives what a fresh attack gives at every prefix."""
    model, releases, histories = case
    memo = AttackMemo()
    for k in range(1, len(releases) + 1):
        assert _outcome(attack_release_sequence, releases[:k], None, model,
                        histories, memo=memo) == _outcome(
            attack_release_sequence, releases[:k], None, model, histories)


def test_actual_value_on_a_pruned_node_is_inconsistent(worked_model):
    # Glaucoma cannot become Gastritis or Dyspepsia, so prune removes Ken's
    # first node; Julia shares his candidate history, whose two paths out
    # of Dyspepsia stay feasible
    releases = [
        PublishedRelease(1, (QIGroup(1, (), (
            Member("Ken", "Glaucoma"), Member("Julia", "Dyspepsia"))),)),
        PublishedRelease(2, (QIGroup(1, (), (
            Member("Ken", "Gastritis"), Member("Julia", "Dyspepsia"))),)),
    ]
    histories = {"Ken": {1: "Glaucoma", 2: "Gastritis"},
                 "Julia": {1: "Dyspepsia", 2: "Dyspepsia"}}
    reports = attack_release_sequence(releases, None, worked_model,
                                      histories)
    assert reports == reference_attack(releases, worked_model, histories)
    julia, ken = reports
    assert ken.risks == (F(0), F(1, 2))
    assert julia.risks == (F(1), F(1, 2))
