"""The integer attack kernel and prefix reuse against independent routes.

* `disclosure_risks(prune(build_sug(...)))` runs its path masses on the
  graph's own `Fraction` weights; the joint-enumeration oracle enumerates
  every joint assignment outright.  Both must give the same `RiskReport`
  under closed models with non-uniform rational probabilities, where
  repeated candidate values give non-uniform node weights.
* `prune` keeps what layer 1 reaches and what reaches the last layer,
  in two passes; it must reach the same subgraph, and fail with the same
  message, as the plain node-by-node sweep kept below as the reference.
* `attack_release_sequence(..., memo=...)` folds only the releases its
  memo has not seen, hands back settled records' earlier reports and
  attacks only the records the new releases hold; every prefix must still
  equal a fresh attack, or raise its error, and a memo that does not fit
  the call, or whose call raised, must not change what the next call
  gives.
* `attack_release_sequence` runs the path masses of all the records it
  attacks in one batched numpy pass per history length, and prunes
  nothing; its reports, and the error it raises, must be those of
  `reference_attack`, which runs `disclosure_risks(prune(build_sug(...)))`
  record by record, in exact rationals where the attack runs on scaled
  integers.  It builds no graph, not even for a history with no feasible
  path, whose error it reads off its own forward masses.  Fixed cases pin
  the batch's edges: masses past 2**63, which must run on Python ints,
  also when a weight is negative or only the multiset sizes, not any one
  multiplicity or weight, reach past it; actual values on no node; the
  first record's error in id order; a model too large for the dense
  transition table, whose histories must run record by record; one wide
  group among narrow ones, which must pad only its own chunk; and a group
  too wide for any chunk, whose history must run alone.  Under a small
  chunk cap, every chunk must hold at most that many gathered transitions
  and be maximal.
* A record that skips a release is refused with `verify`'s message;
  `reference_attack` raises the same error, so every drawn history with
  a gap checks it.
* The fold reads each release in one pass over its groups, testing
  exact-QI points against group regions inline, yet must raise what
  `reference_attack`'s walk over each release's records in id order
  raises: a record in two groups first, then the first record in id
  order whose point lies outside its region or that skips a release.
* The attack's reports hold integer numerators and make their `Fraction`s
  each time `risks` is read; `count_vulnerable` sums the risk-1 counts
  taken when the reports were made.  That count must equal the risks read
  later, a report must read the same after its memo starts over, compare,
  hash and print like a report built from its risks, and counting must
  build no `Fraction` at all.
"""

import gc
import random
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
from mdistinct.model import (AttributeSchema, ExternalKnowledgeTable,
                             Hierarchy, Member, PublishedRelease, QIGroup,
                             TableSchema, region_contains)
from mdistinct import sug as sug_module
from mdistinct.sug import (AttackMemo, RiskReport, Sug,
                           attack_release_sequence,
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
    groups = []
    for g in release.groups:
        members = tuple(m for m in g.members if m.rid != rid)
        groups.append(replace(g, members=members, values=tuple(
            m.sensitive for m in members)))
    return replace(release, groups=tuple(groups))


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
        # a release slipped in before the folded ones
        release_three = replace(without_ken, release_index=3)
        history = {rid: {**h, 3: h[2]} for rid, h in histories_12.items()}
        memo = AttackMemo()
        attack_release_sequence([release_two_defended, release_three], None,
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


def reference_attack(releases, model, histories, et=None, schema=None):
    """One graph per record, built, pruned and attacked on its own.  Each
    release's records are checked in id order: the point of an exact-QI
    table against the record's group region, then the gap."""
    membership = {}
    tables = {t.release_index: t.rows for t in et or ()}
    for rel in sorted(releases, key=lambda r: r.release_index):
        index = rel.release_index
        rows = tables.get(index, {})
        for rid, group in sorted(rel.group_of().items()):
            if rid in rows and not region_contains(schema, group.region,
                                                   rows[rid]):
                raise ValidationError(f"release {index}: record {rid!r} "
                                      f"falls outside its group region")
            before = membership.setdefault(rid, [])
            if before and before[-1][0] < index - 1:
                raise ValidationError(
                    f"release {index} group {group.gid}: {rid!r} last "
                    f"appeared in release {before[-1][0]}; a record may not "
                    f"skip a release")
            before.append((index, group.values))
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
    and then an actual value is missing.  A record that has left returns
    only now and then, since the attack refuses a history with a gap."""
    model = draw(closed_models())
    domain = list(model.sensitive_domain)
    n = draw(st.integers(2, 7))
    rids = [f"r{k}" for k in range(n)]
    drifts = {rid: draw(rarely(4)) for rid in rids + ["twin"]}
    values: dict[str, str] = {}
    histories: dict[str, dict[int, str]] = {}
    releases = []
    present: list[str] = []
    for index in range(1, draw(st.integers(1, 4)) + 1):
        left = set(values).difference(present)
        pool = (rids if draw(rarely(6))
                else [rid for rid in rids if rid not in left])
        present = draw(st.lists(st.sampled_from(pool), min_size=1,
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
            group = (*members[gid], *fakes)
            groups.append(QIGroup(gid, (), group,
                                  tuple(m.sensitive for m in group)))
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


# a numeric and a categorical attribute, for the fold's region check
TABLE_SCHEMA = TableSchema((
    AttributeSchema.numeric("n", 0, 5),
    AttributeSchema.categorical("c", Hierarchy(
        "any", {"ab": ["a", "b"], "cd": ["c", "d"]}))), "s", ())
_CELL_LEAVES = {"any": "abcd", "ab": "ab", "cd": "cd",
                "a": "a", "b": "b", "c": "c", "d": "d"}


@st.composite
def release_sequences_with_tables(draw):
    """`release_sequences` with drawn group regions and exact-QI tables.
    A table covers some of a release's records, and each point lies in
    its group's region or, in a corrupt case, anywhere in the domain, so
    that one release can hold several records outside their regions in
    any order of groups and ids.  Now and then a real member is listed in
    a second group as well."""
    model, releases, histories = draw(release_sequences())
    corrupt = draw(rarely(3))
    tables = []
    changed = []
    for rel in releases:
        groups = []
        for group in rel.groups:
            lo = draw(st.integers(0, 5))
            hi = draw(st.integers(lo, 5))
            region = ((lo, hi), draw(st.sampled_from(sorted(_CELL_LEAVES))))
            groups.append(replace(group, region=region))
        if len(groups) > 1 and draw(rarely(8)):
            source, to = draw(st.permutations(range(len(groups))))[:2]
            member = draw(st.sampled_from(
                [mm for mm in groups[source].members if not mm.counterfeit]))
            members = (*groups[to].members, member)
            groups[to] = replace(groups[to], members=members, values=tuple(
                mm.sensitive for mm in members))
        rows = {}
        for group in groups:
            (lo, hi), cell = group.region
            for mm in group.members:
                if mm.counterfeit or draw(rarely(4)):
                    continue
                if corrupt and draw(st.booleans()):
                    point = (draw(st.integers(0, 5)),
                             draw(st.sampled_from("abcd")))
                else:
                    point = (draw(st.integers(lo, hi)),
                             draw(st.sampled_from(_CELL_LEAVES[cell])))
                rows[mm.rid] = point
        if draw(st.booleans()):
            tables.append(ExternalKnowledgeTable(rel.release_index, rows))
        changed.append(replace(rel, groups=tuple(groups)))
    return model, changed, histories, tables


@settings(max_examples=400, deadline=None)
@given(release_sequences_with_tables())
def test_fold_with_tables_equals_reference(case):
    """The fold reads each release in one pass, but its error is the one
    the reference's walk in id order raises: a record in two groups first,
    then the first record in id order outside its region or skipping a
    release."""
    model, releases, histories, tables = case
    assert _outcome(attack_release_sequence, releases, tables, model,
                    histories, TABLE_SCHEMA) == _outcome(
        reference_attack, releases, model, histories, tables, TABLE_SCHEMA)


def test_actual_value_on_a_pruned_node_is_inconsistent(worked_model):
    # Glaucoma cannot become Gastritis or Dyspepsia, so prune removes Ken's
    # first node; Julia shares his candidate history, whose two paths out
    # of Dyspepsia stay feasible
    releases = [
        PublishedRelease(1, (QIGroup(1, (), (
            Member("Ken", "Glaucoma"), Member("Julia", "Dyspepsia")),
            ("Glaucoma", "Dyspepsia")),)),
        PublishedRelease(2, (QIGroup(1, (), (
            Member("Ken", "Gastritis"), Member("Julia", "Dyspepsia")),
            ("Gastritis", "Dyspepsia")),)),
    ]
    histories = {"Ken": {1: "Glaucoma", 2: "Gastritis"},
                 "Julia": {1: "Dyspepsia", 2: "Dyspepsia"}}
    reports = attack_release_sequence(releases, None, worked_model,
                                      histories)
    assert reports == reference_attack(releases, worked_model, histories)
    julia, ken = reports
    assert ken.risks == (F(0), F(1, 2))
    assert julia.risks == (F(1), F(1, 2))


# ---------------------------------------------------------------------------
# reports that make their risks when read


def test_count_vulnerable_equals_the_risks_read_afterwards():
    """Over every prefix, with a memo and without one, the count taken
    before any risk is read equals the risks read after it."""
    counts = []

    @settings(max_examples=300, deadline=None)
    @given(release_sequences())
    def check(case):
        model, releases, histories = case
        memo = AttackMemo()
        for k in range(1, len(releases) + 1):
            for kept in (memo, None):
                try:
                    reports = attack_release_sequence(
                        releases[:k], None, model, histories, memo=kept)
                except MDistinctError:
                    continue
                vulnerable = count_vulnerable(reports)
                assert vulnerable == sum(r == 1 for report in reports
                                         for r in report.risks)
                counts.append(vulnerable)

    check()
    assert any(counts)   # some history had a version at risk 1


def test_reports_read_after_the_memo_starts_over_equal_fresh_ones(
        release_one, release_two_defended, worked_model, class_model,
        histories_12):
    releases = [release_one, release_two_defended]
    memo = AttackMemo()
    unread = attack_release_sequence(releases[:1], None, worked_model,
                                     histories_12, memo=memo)
    # a report holds its own ints, not the memo or anything of its caches
    for report in unread:
        for part in gc.get_referents(report):
            if part is RiskReport:
                continue
            assert type(part) in (str, int, tuple, type(None))
            if type(part) is tuple:
                assert {type(x) for x in part} <= {int}
    lacking = {rid: {1: h[1]} for rid, h in histories_12.items()}
    with pytest.raises(ValidationError, match="no actual sensitive"):
        attack_release_sequence(releases, None, worked_model, lacking,
                                memo=memo)
    assert memo.reports == {}
    assert unread == attack_release_sequence(releases[:1], None,
                                             worked_model, histories_12)
    unread = attack_release_sequence(releases, None, worked_model,
                                     histories_12, memo=memo)
    attack_release_sequence(releases, None, class_model, histories_12,
                            memo=memo)   # other bindings: a rebind
    assert unread == attack_release_sequence(releases, None, worked_model,
                                             histories_12)


def test_made_and_given_reports_compare_hash_and_print_alike(
        release_one, release_two_naive, worked_model, histories_12):
    def attack():
        return attack_release_sequence([release_one, release_two_naive],
                                       None, worked_model, histories_12)

    given_risks = [RiskReport(r.record_id, r.versions, r.risks, 1)
                   for r in attack()]
    assert count_vulnerable(given_risks) == count_vulnerable(attack()) > 0
    assert attack() == given_risks and given_risks == attack()
    assert [hash(r) for r in attack()] == [hash(r) for r in given_risks]
    assert [repr(r) for r in attack()] == [repr(r) for r in given_risks]
    assert repr(given_risks[0]).startswith(
        f"RiskReport(record_id={given_risks[0].record_id!r}, versions=")
    made = attack()[0]
    assert made != RiskReport(made.record_id, made.versions,
                              tuple(F(0) for _ in made.versions), 1)


def test_risks_read_twice_are_equal_fractions(release_one,
                                              release_two_defended,
                                              worked_model, histories_12):
    for report in attack_release_sequence(
            [release_one, release_two_defended], None, worked_model,
            histories_12):
        first = report.risks
        assert report.risks == first
        assert all(type(r) is Fraction for r in first)


def _fraction_built(*args, **kwargs):
    raise AssertionError("a Fraction was built")


def test_count_vulnerable_builds_no_fraction(release_one, release_two_naive,
                                             worked_model, histories_12):
    releases = [release_one, release_two_naive]
    memo = AttackMemo()
    with mock.patch.object(sug_module, "Fraction", _fraction_built):
        counts = [count_vulnerable(attack_release_sequence(
            releases[:k], None, worked_model, histories_12, memo=memo))
            for k in (1, 2)]
    assert counts == [count_vulnerable(attack_release_sequence(
        releases[:k], None, worked_model, histories_12)) for k in (1, 2)]
    assert counts[-1] > 0


# ---------------------------------------------------------------------------
# the batched kernel's edges, each against the record-by-record reference


def _release(index, *groups):
    """A release of `groups`, each a list of (record id, value); a record
    id of None makes a counterfeit."""
    out = []
    for gid, group in enumerate(groups, start=1):
        members = tuple(Member(rid or f"c{index}.{gid}.{k}", value,
                               rid is None)
                        for k, (rid, value) in enumerate(group))
        out.append(QIGroup(gid, (), members,
                           tuple(m.sensitive for m in members)))
    return PublishedRelease(index, tuple(out))


def test_masses_past_int64_run_on_python_ints():
    """A Hypothesis find: the scaled weights are near 2**21 (lcm scale
    4,594,590), so four layers of two-member groups carry path masses near
    1e20.  Run in int64 without the bound, r0's last risk came out as
    -96992976941439579/94244422268832586 instead of 1/2."""
    model = UpdateModel(tuple(f"s{i}" for i in range(6)), {
        "s0": {"s0": F(2, 5), "s1": F(2, 5), "s2": F(1, 5)},
        "s1": {"s1": F(3, 7), "s2": F(4, 7)},
        "s2": {"s1": F(5, 11), "s2": F(6, 11)},
        "s3": {"s3": F(8, 17), "s4": F(9, 17)},
        "s4": {"s3": F(1, 26), "s4": F(25, 26)},
        "s5": {"s3": F(1, 27), "s4": F(1, 27), "s5": F(25, 27)},
    })
    assert validate_update_model(model) == []
    releases = [_release(i, [("r0", "s0"), ("twin", "s0")])
                for i in (1, 2, 3)]
    releases.append(_release(4, [("r0", "s0"), ("twin", "s1")]))
    histories = {"r0": dict.fromkeys(range(1, 5), "s0"),
                 "twin": {1: "s0", 2: "s0", 3: "s0", 4: "s1"}}
    reports = attack_release_sequence(releases, None, model, histories)
    assert reports == reference_attack(releases, model, histories)
    r0, _ = reports
    assert r0.risks[-1] == F(1, 2)
    assert type(r0.total) is int and r0.total >= 2 ** 63


def test_the_int64_bound_takes_the_weights_magnitudes():
    """A model built without `validate_update_model` may hold a negative
    weight.  Every positive scaled weight here is at most 2, but s0 -> s0
    is -2**41, so three layers carry a path mass of 2**82: the bound must
    take the largest magnitude, or that mass wraps in int64."""
    model = UpdateModel(("s0", "s1"), {
        "s0": {"s0": F(-2 ** 40), "s1": F(1, 2)},
        "s1": {"s1": F(1)},
    })
    releases = [_release(i, [("r0", "s0"), ("twin", "s1")])
                for i in (1, 2, 3)]
    histories = {"r0": dict.fromkeys((1, 2, 3), "s0"),
                 "twin": dict.fromkeys((1, 2, 3), "s1")}
    reports = attack_release_sequence(releases, None, model, histories)
    assert reports == reference_attack(releases, model, histories)
    assert reports[0].total == 2 ** 82 - 2 ** 41 + 6


def test_the_int64_bound_takes_the_multiset_sizes():
    """Eight values that all reach each other with weight 1/8 scale to
    weight 1, and every node has multiplicity 1, yet 22 layers of eight
    nodes carry a total mass of 8**22 = 2**66: the bound must take each
    layer's multiset size, not its largest multiplicity, or masses wrap."""
    values = [f"s{i}" for i in range(8)]
    model = UpdateModel(tuple(values), {a: {b: F(1, 8) for b in values}
                                        for a in values})
    assert validate_update_model(model) == []
    rids = [f"r{k}" for k in range(8)]
    histories = {rid: {i: values[(k + i) % 8] for i in range(1, 23)}
                 for k, rid in enumerate(rids)}
    releases = [_release(i, [(rid, histories[rid][i]) for rid in rids])
                for i in range(1, 23)]
    reports = attack_release_sequence(releases, None, model, histories)
    assert reports == reference_attack(releases, model, histories)
    assert reports[0].total == 8 ** 22


def test_actual_value_in_no_candidate_set_gets_risk_0(worked_model):
    # Ken's groups are narrower than Ben's, so his layers are padded in the
    # chunk they share; neither of his actual values, one of them unknown
    # to the model, is on a node of his history or matches a padding node
    releases = [
        _release(1, [("Ken", "Dyspepsia"), ("Julia", "Gastritis")],
                 [("Ben", "Flu"), ("Tom", "Pneumonia"), ("Lily", "Glaucoma"),
                  ("Harry", "Dyspepsia")]),
        _release(2, [("Ken", "Gastritis"), ("Julia", "Dyspepsia")],
                 [("Ben", "LungCancer"), ("Tom", "LungCancer"),
                  ("Lily", "Cataract"), ("Harry", "Gastritis")]),
    ]
    histories = {rid: {1: g1, 2: g2} for rid, g1, g2 in [
        ("Ken", "Flu", "zz"), ("Julia", "Gastritis", "Dyspepsia"),
        ("Ben", "Flu", "LungCancer"), ("Tom", "Pneumonia", "LungCancer"),
        ("Lily", "Glaucoma", "Cataract"), ("Harry", "Dyspepsia", "Gastritis")]}
    reports = attack_release_sequence(releases, None, worked_model, histories)
    assert reports == reference_attack(releases, worked_model, histories)
    ken = next(r for r in reports if r.record_id == "Ken")
    assert ken.numerators == (0, 0) and ken.total > 0


@pytest.mark.parametrize("lacking", ["a", "b"])
def test_the_first_record_in_id_order_names_the_error(worked_model, lacking):
    """One record lacks an actual value and the other's history has no
    feasible path (Pneumonia cannot become Dyspepsia); the error is the
    one of the record that sorts first, and the memo is left empty."""
    infeasible = "b" if lacking == "a" else "a"
    releases = [
        _release(1, [(infeasible, "Flu")], [(lacking, "Glaucoma")]),
        _release(2, [(infeasible, "Pneumonia")], [(lacking, "Cataract")]),
        _release(3, [(infeasible, "Dyspepsia")], [(lacking, "Cataract")]),
    ]
    histories = {infeasible: {1: "Flu", 2: "Pneumonia", 3: "Dyspepsia"},
                 lacking: {1: "Glaucoma", 2: "Cataract"}}
    want = _outcome(reference_attack, releases, worked_model, histories)
    assert want[0] is (ValidationError if lacking == "a"
                       else InconsistentHistoryError)
    memo = AttackMemo()
    assert _outcome(attack_release_sequence, releases, None, worked_model,
                    histories, memo=memo) == want
    assert memo.reports == {} and memo.membership == {}


def _block_model(n_values, size):
    """Closed blocks of `size` values, each row a different rotation of
    the same non-uniform weights."""
    values = [f"v{i:04d}" for i in range(n_values)]
    weights = [F(k + 1, size * (size + 1) // 2) for k in range(size)]
    table = {}
    for start in range(0, n_values, size):
        block = values[start:start + size]
        for r, a in enumerate(block):
            table[a] = {b: weights[(k - r) % size]
                        for k, b in enumerate(block)}
    return UpdateModel(tuple(values), table)


def _random_walks(model, rids, n_releases, group_size, seed, domain=None):
    """Each record walks the model from a random value of `domain` (the
    model's by default); each release cuts the records, in a shuffled
    order, into groups of `group_size`, each with one decoy from
    `domain`."""
    rng = random.Random(seed)
    domain = list(domain or model.sensitive_domain)
    histories = {rid: {} for rid in rids}
    releases = []
    for index in range(1, n_releases + 1):
        for rid in rids:
            before = histories[rid].get(index - 1)
            pool = domain if before is None else sorted(model.cus_of(before))
            histories[rid][index] = rng.choice(pool)
        order = rng.sample(rids, len(rids))
        groups = [[(rid, histories[rid][index])
                   for rid in order[k:k + group_size]]
                  + [(None, rng.choice(domain))]
                  for k in range(0, len(order), group_size)]
        releases.append(_release(index, *groups))
    return releases, histories


def _chunk_masses_raises(*args, **kwargs):
    raise AssertionError("a chunk ran")


def test_a_model_past_the_dense_cap_runs_record_by_record():
    """Past `_DENSE_CAP` values no dense table is made: every history runs
    through `_masses` on its layers' successor rows."""
    model = _block_model(sug_module._DENSE_CAP + 77, 3)
    assert validate_update_model(model) == []
    assert len(model.successors) > sug_module._DENSE_CAP
    rids = [f"r{k:02d}" for k in range(12)]
    # the first block and the last two: ids at both ends of the table
    values = model.sensitive_domain
    releases, histories = _random_walks(model, rids, 4, 2, seed=5,
                                        domain=values[:3] + values[-6:])
    want = reference_attack(releases, model, histories)
    alone = []

    def spy_alone(nodes, edges):
        alone.append(len(nodes))
        return masses(nodes, edges)

    masses = sug_module._masses
    memo = AttackMemo()
    with mock.patch.object(sug_module, "_chunk_masses",
                           _chunk_masses_raises), \
            mock.patch.object(sug_module, "_masses", spy_alone):
        reports = attack_release_sequence(releases, None, model, histories,
                                          memo=memo)
    assert reports == want
    assert alone == [4] * len(rids)
    assert memo.table.dense == {}
    assert any(0 < r < 1 for report in reports for r in report.risks)


@settings(max_examples=200, deadline=None)
@given(release_sequences(), st.integers(1, 400))
def test_chunks_are_capped_and_maximal(case, cap):
    """Under a chunk cap of `cap` entries, each chunk holds at most `cap`
    gathered transitions, records x depth x width**2, and is maximal: one
    more record, the next of its length, would pass the cap.  A record
    that runs alone has a cost past the cap by itself."""
    model, releases, histories = case
    want = _outcome(reference_attack, releases, model, histories)
    chunks, alone = [], []

    def spy(nodes, mults, *args):
        real = (mults > 0).sum(axis=2).max(axis=1)   # each record's width
        chunks.append((nodes.shape, real.tolist()))
        return chunk_masses(nodes, mults, *args)

    def spy_alone(nodes, edges):
        alone.append(len(nodes) * max(map(len, nodes)) ** 2)
        return masses(nodes, edges)

    chunk_masses, masses = sug_module._chunk_masses, sug_module._masses
    with mock.patch.object(sug_module, "_chunk_masses", spy), \
            mock.patch.object(sug_module, "_masses", spy_alone), \
            mock.patch.object(sug_module, "_CHUNK", cap):
        assert _outcome(attack_release_sequence, releases, None, model,
                        histories) == want
    assert all(cost > cap for cost in alone)
    for (n, depth, width), real in chunks:
        assert max(real) == width and n * depth * width ** 2 <= cap
    for ((n, depth, _), _), ((_, after, _), real) in zip(chunks, chunks[1:]):
        if after == depth:   # the next chunk of this length
            assert (n + 1) * depth * real[0] ** 2 > cap


def test_one_wide_group_pads_only_its_own_chunk():
    narrow = _block_model(12, 3)
    wide = [f"w{i:02d}" for i in range(60)]
    model = UpdateModel(narrow.sensitive_domain + tuple(wide), {
        **narrow.successors,
        **{w: {b: F(1, 60) for b in wide} for w in wide}})
    assert validate_update_model(model) == []
    rids = [f"n{k:02d}" for k in range(30)]
    releases, histories = _random_walks(narrow, rids, 3, 1, seed=3)
    # one record of the wide class, in a group of 59 counterfeits
    histories["wide"] = {i: wide[i] for i in (1, 2, 3)}
    releases = [replace(rel, groups=rel.groups + _release(
        i, [("wide", wide[i]), *[(None, w) for w in wide if w != wide[i]]]
    ).groups) for i, rel in enumerate(releases, start=1)]
    want = reference_attack(releases, model, histories)
    shapes = []

    def spy(nodes, *args):
        shapes.append(nodes.shape)
        return masses(nodes, *args)

    masses = sug_module._chunk_masses
    with mock.patch.object(sug_module, "_chunk_masses", spy):
        assert attack_release_sequence(releases, None, model,
                                       histories) == want
    # the 30 narrow records share one chunk, padded to two nodes a layer
    assert sorted(shapes) == [(1, 3, 60), (30, 3, 2)]
    # chunks of a few records each give the same reports, and the wide
    # record, too wide for any chunk now, runs alone
    shapes.clear()
    with mock.patch.object(sug_module, "_chunk_masses", spy), \
            mock.patch.object(sug_module, "_CHUNK", 48):
        assert attack_release_sequence(releases, None, model,
                                       histories) == want
    assert sorted(shapes) == [(2, 3, 2)] + [(4, 3, 2)] * 7


def test_a_history_too_wide_for_any_chunk_runs_alone():
    """A group of 400 values is wider than sqrt(_CHUNK): its gathered
    transitions alone would pass the cap, so its history runs through
    `_masses` on its layers' successor rows, and no chunk array passes
    `_CHUNK` entries."""
    model = _block_model(400, 4)
    values = model.sensitive_domain
    assert len(values) ** 2 > sug_module._CHUNK
    rids = [f"n{k:02d}" for k in range(20)]
    releases, histories = _random_walks(model, rids, 3, 2, seed=11)
    # one record walks the first block in a group that holds every value
    histories["wide"] = {1: values[0], 2: values[3], 3: values[1]}
    releases = [replace(rel, groups=rel.groups + _release(
        i, [("wide", values[j]), *[(None, w) for w in values
                                   if w != values[j]]]).groups)
        for i, j, rel in zip((1, 2, 3), (0, 3, 1), releases)]
    want = reference_attack(releases, model, histories)
    shapes, alone = [], []

    def spy(nodes, *args):
        shapes.append(nodes.shape)
        return chunk_masses(nodes, *args)

    def spy_alone(nodes, edges):
        alone.append([len(layer) for layer in nodes])
        return masses(nodes, edges)

    chunk_masses, masses = sug_module._chunk_masses, sug_module._masses
    with mock.patch.object(sug_module, "_chunk_masses", spy), \
            mock.patch.object(sug_module, "_masses", spy_alone):
        assert attack_release_sequence(releases, None, model,
                                       histories) == want
    assert alone == [[400, 400, 400]]
    assert shapes and all(n * depth * width ** 2 <= sug_module._CHUNK
                          for n, depth, width in shapes)
