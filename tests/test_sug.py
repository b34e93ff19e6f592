from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdistinct.errors import (CapExceededError, InconsistentHistoryError,
                              ValidationError)
from mdistinct.model import ExternalKnowledgeTable
from mdistinct.sug import (attack_release_sequence, build_sug,
                           disclosure_risks, prune, risks_by_joint_oracle)
from mdistinct.updates import UpdateModel

from conftest import layer_values, path_weights

F = Fraction


class TestBuild:
    def test_duplicate_values_collapse_with_shares(self, worked_model):
        sug = build_sug([["Pneumonia", "Pneumonia", "Dyspepsia"]],
                        worked_model)
        assert layer_values(sug, 1) == ("Pneumonia", "Dyspepsia")
        assert [n.weight for n in sug.layers[0]] == [F(2, 3), F(1, 3)]

    def test_edges_follow_positive_transitions(self, worked_model):
        sug = build_sug([["Dyspepsia", "Pneumonia"],
                         ["Gastritis", "LungCancer"]], worked_model)
        # Dyspepsia -> Gastritis and Pneumonia -> LungCancer only
        assert sug.out[0][0] == ((0, F(1, 2)),)
        assert sug.out[0][1] == ((1, F(1, 2)),)

    def test_unknown_value_rejected(self, worked_model):
        with pytest.raises(ValidationError):
            build_sug([["Rhinitis"]], worked_model)

    def test_empty_layer_rejected(self, worked_model):
        with pytest.raises(ValidationError):
            build_sug([["Flu"], []], worked_model)


class TestPrune:
    def test_dead_ends_cascade(self, worked_model):
        # Ken's naive republication: Glaucoma is unreachable, and removing
        # it strands Pneumonia in the first layer
        sug = build_sug([["Dyspepsia", "Pneumonia"],
                         ["Dyspepsia", "Glaucoma"]], worked_model)
        fs = prune(sug)
        assert layer_values(fs, 1) == ("Dyspepsia",)
        assert layer_values(fs, 2) == ("Dyspepsia",)

    def test_consistent_graph_unchanged(self, worked_model):
        sug = build_sug([["Dyspepsia", "Pneumonia"],
                         ["Gastritis", "LungCancer"]], worked_model)
        fs = prune(sug)
        assert fs.node_count() == sug.node_count()
        assert fs.edge_count() == sug.edge_count()

    def test_impossible_history_raises(self, worked_model):
        with pytest.raises(InconsistentHistoryError):
            prune(build_sug([["Glaucoma"], ["Pneumonia"]], worked_model))


class TestPathsAndRisks:
    def test_single_release_risks_are_shares(self, worked_model):
        fs = prune(build_sug([["Dyspepsia", "Pneumonia"]], worked_model))
        report = disclosure_risks(fs, ["Pneumonia"])
        assert report.risks == (F(1, 2),)

    def test_ken_naive_fully_disclosed(self, worked_model):
        fs = prune(build_sug([["Dyspepsia", "Pneumonia"],
                              ["Dyspepsia", "Glaucoma"]], worked_model))
        report = disclosure_risks(fs, ["Dyspepsia", "Dyspepsia"])
        assert report.risks == (F(1), F(1))

    def test_three_layer_path_weights(self, three_layer_model,
                                      three_layer_history):
        fs = prune(build_sug(three_layer_history, three_layer_model))
        weights = sorted(path_weights(fs).values(), reverse=True)
        assert weights == [F(1, 18), F(1, 18), F(1, 36), F(1, 72), F(1, 72)]
        assert sum(weights) == F(1, 6)

    def test_three_layer_risks(self, three_layer_model, three_layer_history,
                               three_layer_actual):
        fs = prune(build_sug(three_layer_history, three_layer_model))
        report = disclosure_risks(fs, three_layer_actual)
        assert report.risks == (F(1, 3), F(1, 6), F(1, 12))

    def test_actual_value_pruned_away_flags_inconsistency(self, worked_model):
        fs = prune(build_sug([["Dyspepsia", "Pneumonia"],
                              ["Dyspepsia", "Glaucoma"]], worked_model))
        report = disclosure_risks(fs, ["Pneumonia", "Dyspepsia"])
        assert report.risks[0] == 0

    def test_risks_without_enumeration(self, worked_model):
        """2**25 paths are weighed, never listed: every transition has
        probability 1/2, so each version's risk is its layer's share."""
        history = ([["Dyspepsia", "Dyspepsia", "Gastritis"]]
                   + [["Dyspepsia", "Gastritis"]] * 24)
        fs = prune(build_sug(history, worked_model))
        report = disclosure_risks(fs, ["Dyspepsia"] * 25)
        assert report.risks == (F(2, 3),) + (F(1, 2),) * 24
        report = disclosure_risks(fs, ["Gastritis"] * 25)
        assert report.risks == (F(1, 3),) + (F(1, 2),) * 24
        with pytest.raises(CapExceededError):
            risks_by_joint_oracle(history, worked_model, ["Dyspepsia"] * 25)


class TestJointOracle:
    def test_matches_graph_on_worked_example(self, worked_model):
        history = [["Dyspepsia", "Pneumonia"], ["LungCancer", "Dyspepsia"]]
        actual = ["Pneumonia", "LungCancer"]
        graph = disclosure_risks(prune(build_sug(history, worked_model)),
                                 actual)
        oracle = risks_by_joint_oracle(history, worked_model, actual)
        assert graph.risks == oracle.risks

    def test_oracle_cap(self, worked_model):
        history = [["Dyspepsia", "Gastritis"]] * 25
        with pytest.raises(CapExceededError):
            risks_by_joint_oracle(history, worked_model,
                                  ["Dyspepsia"] * 25, cap=1000)


# ---------------------------------------------------------------------------
# random sparse models for the property checks


def sparse_model(rng_draw, n_values: int) -> UpdateModel:
    """Random model built from reachability closure of a random digraph,
    which satisfies the closure requirement by construction."""
    values = [f"s{i}" for i in range(n_values)]
    succ = {v: set(rng_draw(v, values)) for v in values}
    # transitive closure of "can eventually become"
    cus = {v: set(s) for v, s in succ.items()}
    changed = True
    while changed:
        changed = False
        for v in values:
            for w in list(cus[v]):
                if not cus[w] <= cus[v]:
                    cus[v] |= cus[w]
                    changed = True
    return UpdateModel.uniform({v: frozenset(c) for v, c in cus.items()},
                               values)


@st.composite
def model_and_history(draw, max_layers=4, max_values=4):
    n = draw(st.integers(2, 6))
    model = sparse_model(
        lambda v, vals: draw(st.lists(st.sampled_from(vals), min_size=1,
                                      max_size=2, unique=True)), n)
    depth = draw(st.integers(1, max_layers))
    history = [draw(st.lists(st.sampled_from(model.sensitive_domain),
                             min_size=1, max_size=max_values))
               for _ in range(depth)]
    return model, history


@settings(max_examples=200, deadline=None)
@given(model_and_history())
def test_prune_preserves_total_path_mass(mh):
    model, history = mh
    sug = build_sug(history, model)
    try:
        fs = prune(sug)
    except InconsistentHistoryError:
        return
    full = path_weights(sug)
    kept = path_weights(fs)
    # every complete path survives pruning with its exact weight
    assert kept == full
    assert sum(kept.values(), F(0)) <= 1


@settings(max_examples=200, deadline=None)
@given(model_and_history())
def test_risks_partition_unit_mass_per_layer(mh):
    model, history = mh
    try:
        fs = prune(build_sug(history, model))
    except InconsistentHistoryError:
        return
    for layer in range(1, fs.depth + 1):
        total = F(0)
        for value in layer_values(fs, layer):
            actual = [layer_values(fs, i)[0] for i in range(1, fs.depth + 1)]
            actual[layer - 1] = value
            report = disclosure_risks(fs, actual)
            total += report.risks[layer - 1]
        assert total == 1


@settings(max_examples=300, deadline=None)
@given(model_and_history())
def test_graph_equals_joint_oracle(mh):
    model, history = mh
    try:
        fs = prune(build_sug(history, model))
    except InconsistentHistoryError:
        return
    actual = [vals[0] for vals in (layer_values(fs, i)
                                   for i in range(1, fs.depth + 1))]
    graph = disclosure_risks(fs, actual)
    oracle = risks_by_joint_oracle(history, model, actual)
    assert graph.risks == oracle.risks


# ---------------------------------------------------------------------------
# whole-sequence attack


class TestAttackSequence:
    def test_single_release_risks_are_group_shares(self, release_one,
                                                   worked_model,
                                                   histories_12):
        reports = attack_release_sequence([release_one], None, worked_model,
                                          histories_12)
        assert len(reports) == 6
        assert all(r.risks == (F(1, 2),) for r in reports)

    def test_reports_sorted_by_id(self, release_one, release_two_defended,
                                  worked_model, histories_12):
        reports = attack_release_sequence([release_one, release_two_defended],
                                          None, worked_model, histories_12)
        assert [r.record_id for r in reports] == sorted(histories_12)
        assert all(r.versions == (1, 2) for r in reports)

    def test_counterfeits_enter_candidate_sets(self, release_one,
                                               release_two_defended,
                                               worked_model, histories_12):
        # Lily shares her group with a counterfeit Pneumonia; the adversary
        # cannot exclude it, so her risk stays at 1/2
        reports = attack_release_sequence([release_one, release_two_defended],
                                          None, worked_model, histories_12)
        lily = next(r for r in reports if r.record_id == "Lily")
        assert lily.risks == (F(1, 2), F(1, 2))

    def test_et_region_check(self, release_one, worked_model, histories_12,
                             disease_schema, t1_records):
        rows = {rec.id: rec.qi for rec in t1_records}
        et = [ExternalKnowledgeTable(1, rows)]
        reports = attack_release_sequence([release_one], et, worked_model,
                                          histories_12, disease_schema)
        assert len(reports) == 6

        bad_rows = dict(rows)
        bad_rows["Ken"] = (39, 39)   # outside Ken's published region
        with pytest.raises(ValidationError):
            attack_release_sequence([release_one],
                                    [ExternalKnowledgeTable(1, bad_rows)],
                                    worked_model, histories_12,
                                    disease_schema)

    def test_et_without_schema_rejected(self, release_one, worked_model,
                                        histories_12, t1_records):
        # without the schema the region check cannot run, and Ken's row,
        # outside his group's region, would pass unnoticed
        rows = {rec.id: rec.qi for rec in t1_records}
        rows["Ken"] = (39, 39)
        with pytest.raises(ValidationError, match="need the table schema"):
            attack_release_sequence([release_one],
                                    [ExternalKnowledgeTable(1, rows)],
                                    worked_model, histories_12)

    def test_et_of_no_release_rejected(self, release_one, worked_model,
                                       histories_12, disease_schema,
                                       t1_records):
        rows = {rec.id: rec.qi for rec in t1_records}
        for index in (0, 2):
            with pytest.raises(ValidationError, match=f"no release {index} "):
                attack_release_sequence(
                    [release_one], [ExternalKnowledgeTable(index, rows)],
                    worked_model, histories_12, disease_schema)

    def test_repeated_release_index_rejected(self, release_one,
                                             release_two_defended,
                                             worked_model, histories_12):
        # before, [release_one, release_one] gave versions (1, 1) reports
        for releases in ([release_one, release_one],
                         [release_one, release_two_defended,
                          replace(release_two_defended, release_index=1)]):
            with pytest.raises(ValidationError,
                               match="^release 1 given twice$"):
                attack_release_sequence(releases, None, worked_model,
                                        histories_12)

    def test_missing_actual_value_rejected(self, release_one, worked_model):
        with pytest.raises(ValidationError):
            attack_release_sequence([release_one], None, worked_model,
                                    {"Ken": {1: "Dyspepsia"}})
