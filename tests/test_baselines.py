import random
from fractions import Fraction

import pytest

from mdistinct.baselines import (MInvarianceState, count_vulnerable,
                                 max_risk, publish_l_diversity,
                                 publish_m_invariance)
from mdistinct.errors import InfeasibilityError
from mdistinct.fileio import (HistoryStore, apply_external_updates,
                              initial_population, synthesize_internal_updates,
                              synthetic_schema)
from mdistinct.model import CounterfeitMember, Record
from mdistinct.sug import RiskReport, attack_release_sequence

F = Fraction


class TestLDiversity:
    def test_groups_are_m_distinct_within_one_release(self, t1_records,
                                                      worked_model,
                                                      disease_schema):
        release = publish_l_diversity(t1_records, 2, disease_schema,
                                      worked_model, seed=0)
        assert release.release_index == 1
        for group in release.groups:
            assert len(group.members) >= 2
            assert len(set(group.values)) == len(group.values)
            assert not any(m.counterfeit for m in group.members)

    def test_ineligible_snapshot_rejected(self, worked_model, disease_schema):
        clones = [Record(f"r{i}", (20, 20), "Flu") for i in range(4)]
        with pytest.raises(InfeasibilityError):
            publish_l_diversity(clones, 2, disease_schema, worked_model,
                                seed=0)

    def test_empty_snapshot_rejected(self, worked_model, disease_schema):
        with pytest.raises(InfeasibilityError):
            publish_l_diversity([], 2, disease_schema, worked_model, seed=0)

    def test_independent_releases_leak_under_correlation(
            self, t1_records, t2_records, worked_model, disease_schema,
            histories_12):
        """Cross-release reasoning pins down many values that each release,
        taken alone, kept 2-anonymous."""
        r1 = publish_l_diversity(t1_records, 2, disease_schema, worked_model,
                                 seed=0, release_index=1)
        r2 = publish_l_diversity(t2_records, 2, disease_schema, worked_model,
                                 seed=0, release_index=2)
        reports = attack_release_sequence([r1, r2], None, worked_model,
                                          histories_12)
        assert count_vulnerable(reports) == 8
        assert max_risk(reports) == 1


class TestMInvariance:
    def test_empty_snapshot_rejected(self, worked_model, disease_schema):
        # the CLI refuses a file with no records before publishing; a
        # library caller, such as a run with n_records=0, gets here
        with pytest.raises(InfeasibilityError, match="nothing to publish"):
            publish_m_invariance([], MInvarianceState(m=2), disease_schema,
                                 worked_model, seed=0)

    def test_first_release_is_plain_partition(self, t1_records, worked_model,
                                              disease_schema):
        state = MInvarianceState(m=2)
        release, state, invalidated = publish_m_invariance(
            t1_records, state, disease_schema, worked_model, seed=5)
        assert invalidated == []
        assert state.release_count == 1
        assert sorted(sorted(g.values) for g in release.groups) == [
            ["Dyspepsia", "Pneumonia"],
            ["Flu", "Glaucoma"],
            ["Gastritis", "Pneumonia"],
        ]
        assert set(state.signatures) == {r.id for r in t1_records}

    def test_replication_and_invalidation(self, t1_records, t2_records,
                                          worked_model, disease_schema):
        state = MInvarianceState(m=2)
        publish_m_invariance(t1_records, state, disease_schema, worked_model,
                             seed=5)
        release, state, invalidated = publish_m_invariance(
            t2_records, state, disease_schema, worked_model, seed=5)
        # Ben, Harry and Julia left their first value sets entirely
        assert invalidated == ["Ben", "Harry", "Julia"]
        assert state.invalidated_total == 3
        shapes = sorted((sorted(m.rid for m in g.members), sorted(g.values))
                        for g in release.groups)
        assert shapes == [
            (["Ben", "Harry", "Julia"],
             ["Dyspepsia", "LungCancer", "Pneumonia"]),
            (["Ken", "c1"], ["Dyspepsia", "Pneumonia"]),
            (["Lily", "c2"], ["Flu", "Glaucoma"]),
            (["Tom", "c3"], ["Gastritis", "Pneumonia"]),
        ]

    def _seeded(self, worked_model, disease_schema):
        state = MInvarianceState(m=2)
        first = [Record("a", (10, 20), "Dyspepsia"),
                 Record("b", (12, 22), "Pneumonia")]
        r1, state, _ = publish_m_invariance(first, state, disease_schema,
                                            worked_model, seed=0)
        return state, frozenset(r1.groups[0].values)

    def test_stayers_keep_their_exact_value_set(self, worked_model,
                                                disease_schema):
        state, sig = self._seeded(worked_model, disease_schema)
        second = [Record("a", (10, 20), "Pneumonia")]
        r2, state, invalidated = publish_m_invariance(
            second, state, disease_schema, worked_model, seed=0)
        assert invalidated == []
        assert frozenset(r2.groups[0].values) == sig
        fakes = [m for m in r2.groups[0].members if m.counterfeit]
        assert len(fakes) == 1 and fakes[0].sensitive == "Dyspepsia"

    def test_escaped_value_invalidates_the_record(self, worked_model,
                                                  disease_schema):
        state, sig = self._seeded(worked_model, disease_schema)
        second = [Record("a", (10, 20), "Gastritis")]
        r2, state, invalidated = publish_m_invariance(
            second, state, disease_schema, worked_model, seed=0)
        # Gastritis escapes {Dyspepsia, Pneumonia}: the record is invalidated
        # and re-enters as a first-timer inside a counterfeit-padded group
        assert invalidated == ["a"]
        assert state.invalidated_total == 1
        assert sum(m.counterfeit for m in r2.groups[0].members) == 1

    def test_replay_rebuilds_the_running_count(self, tmp_path):
        """After each of five releases, replaying the stored history gives
        the count the publisher kept while publishing."""
        schema, model = synthetic_schema(5, 20)
        rng = random.Random(4)
        records, next_id = initial_population(40, schema, model, rng)
        store = HistoryStore(tmp_path)
        state, running = MInvarianceState(2), 0
        for seed in range(5):
            release, state, invalidated = publish_m_invariance(
                records, state, schema, model, seed)
            running += len(invalidated)
            store.write_release(release, schema)
            store.write_schema(schema)
            replayed = store.replay_state(MInvarianceState(2), model)
            assert replayed.invalidated_total == state.invalidated_total \
                == running
            assert replayed.signatures == state.signatures
            records = synthesize_internal_updates(records, schema, model, 12,
                                                  rng)
            records, next_id = apply_external_updates(records, schema, rng,
                                                      3, 3, next_id)
        assert running > 0


class TestCountVulnerable:
    def test_counts_only_certain_versions(self):
        reports = [
            RiskReport("a", (1, 2), (F(1), F(1, 2)), 1),
            RiskReport("b", (1, 2), (F(1), F(1)), 1),
            RiskReport("c", (1,), (F(1, 3),), 1),
        ]
        assert count_vulnerable(reports) == 3
        assert count_vulnerable([]) == 0
