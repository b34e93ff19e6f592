import json
import random
from fractions import Fraction

import pytest

from mdistinct.baselines import MInvarianceState, publish_m_invariance
from mdistinct.engine import EngineState, publish
from mdistinct.errors import ValidationError
from mdistinct.evaluation import ExperimentConfig, load_experiment_config
from mdistinct.fileio import (HistoryStore, apply_external_updates,
                              infer_schema, initial_population,
                              load_external_tables, load_microdata,
                              load_update_model, snapshot_histories,
                              snapshot_tables, synthesize_internal_updates,
                              synthetic_schema, widen_schema, write_csv,
                              write_microdata, write_risks,
                              write_update_model)
from mdistinct.model import Record
from mdistinct.sug import RiskReport

F = Fraction


def _publish_m_distinct(records, state, model, schema):
    return publish(records, state, model, schema, seed=3)


def _publish_m_invariance(records, state, model, schema):
    release, state, _ = publish_m_invariance(records, state, schema, model,
                                             seed=3)
    return release, state


# publisher kind -> (fresh state, one live publish, the per-record state)
REPLAY_CASES = {
    "m_distinct": (lambda: EngineState(m=2), _publish_m_distinct, "prev"),
    "m_invariance": (lambda: MInvarianceState(2), _publish_m_invariance,
                     "signatures"),
}


class TestMicrodata:
    def test_round_trip(self, tmp_path, t1_records, disease_schema):
        path = tmp_path / "data.csv"
        write_microdata(path, disease_schema, t1_records)
        assert load_microdata(path, disease_schema) == sorted(
            t1_records, key=lambda r: r.id)

    def test_fixture_file_loads(self, data_dir, disease_schema, t1_records):
        loaded = load_microdata(data_dir / "microdata_t1.csv", disease_schema)
        assert loaded == sorted(t1_records, key=lambda r: r.id)

    def test_header_only_file_is_empty_population(self, tmp_path,
                                                  disease_schema):
        path = tmp_path / "empty.csv"
        write_csv(path, [["id", "salary", "age", "disease"]])
        assert load_microdata(path, disease_schema) == []

    def test_truly_empty_file_rejected(self, tmp_path, disease_schema):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty file"):
            load_microdata(path, disease_schema)

    def test_errors_carry_line_numbers(self, tmp_path, disease_schema):
        path = tmp_path / "bad.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "10", "20", "Flu"],
                         ["b", "11", "21"]])
        with pytest.raises(ValidationError, match="line 3"):
            load_microdata(path, disease_schema)

    def test_duplicate_id_rejected(self, tmp_path, disease_schema):
        path = tmp_path / "dup.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "10", "20", "Flu"],
                         ["a", "11", "21", "Flu"]])
        with pytest.raises(ValidationError, match="duplicate id"):
            load_microdata(path, disease_schema)

    def test_non_integer_numeric_rejected(self, tmp_path, disease_schema):
        path = tmp_path / "alpha.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "lots", "20", "Flu"]])
        with pytest.raises(ValidationError, match="not an integer"):
            load_microdata(path, disease_schema)

    def test_header_mismatch_rejected(self, tmp_path, disease_schema):
        path = tmp_path / "head.csv"
        write_csv(path, [["id", "wage", "age", "disease"]])
        with pytest.raises(ValidationError, match="line 1"):
            load_microdata(path, disease_schema)


# reader -> (file name, header, a good row, a row with a bad value and its
# message or None, how the reader is called on the file)
READERS = {
    "microdata": ("data.csv", ["id", "salary", "age", "disease"],
                  ["a", "20", "20", "Flu"], (["b", "x", "20", "Flu"],
                                             "salary='x' is not an integer"),
                  lambda path, schema, model: load_microdata(path, schema)),
    "external table": ("et_1.csv", ["id", "salary", "age"],
                       ["a", "20", "20"], (["b", "20", "x"],
                                           "age='x' is not an integer"),
                       lambda path, schema, model: load_external_tables(
                           path.parent, schema)),
    "infer schema": ("data.csv", ["id", "salary", "age", "disease"],
                     ["a", "20", "20", "Flu"], None,
                     lambda path, schema, model: infer_schema(path, model)),
    "update model": ("model.csv", ["value", "successor", "probability"],
                     ["a", "a", "1"], (["b", "b", "zz"],
                                       "bad probability 'zz'"),
                     lambda path, schema, model: load_update_model(path)),
    "meta": ("meta.csv", ["key", "value"], ["m", "2"], None,
             lambda path, schema, model: HistoryStore(
                 path.parent).read_meta()),
    "release": ("release_1.csv",
                ["gid", "id", "salary", "age", "disease", "is_counterfeit"],
                ["1", "a", "20..21", "20..21", "Flu", "0"],
                (["x", "b", "20..21", "20..21", "Flu", "0"], "bad gid 'x'"),
                lambda path, schema, model: HistoryStore(
                    path.parent).read_release(1, schema)),
}


class TestCheckedReaders:
    """Every CSV input goes through one reader: the header, each row's
    width and the line number of the first bad row."""

    def _error(self, tmp_path, name, rows, disease_schema, worked_model):
        file_name, *_, read = READERS[name]
        path = tmp_path / file_name
        write_csv(path, rows)
        with pytest.raises(ValidationError) as info:
            read(path, disease_schema, worked_model)
        return path, str(info.value)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_wrong_header(self, tmp_path, disease_schema, worked_model,
                          name):
        _, header, good, *_ = READERS[name]
        wrong = ["ident", *header[1:]]
        path, err = self._error(tmp_path, name, [wrong, good],
                                disease_schema, worked_model)
        if name == "infer schema":  # any header with id first will do
            assert err == f"{path} line 1: need id, at least one QI " \
                          f"column and a sensitive column"
        else:
            assert err == f"{path} line 1: header {wrong!r} does not " \
                          f"match {header!r}"

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_short_row(self, tmp_path, disease_schema, worked_model, name):
        _, header, good, *_ = READERS[name]
        path, err = self._error(tmp_path, name, [header, good, good[:-1]],
                                disease_schema, worked_model)
        assert err == f"{path} line 3: expected {len(header)} fields, " \
                      f"got {len(header) - 1}"

    @pytest.mark.parametrize("name", sorted(
        n for n, reader in READERS.items() if reader[3] is not None))
    def test_first_bad_row_raises_first(self, tmp_path, disease_schema,
                                        worked_model, name):
        """A bad value on line 2 comes before a short row on line 4."""
        _, header, good, (bad, message), _ = READERS[name]
        path, err = self._error(tmp_path, name,
                                [header, bad, good, good[:-1]],
                                disease_schema, worked_model)
        assert err == f"{path} line 2: {message}"

    def test_empty_file(self, tmp_path, disease_schema, worked_model):
        for name in sorted(READERS):
            path = tmp_path / READERS[name][0]
            path.write_text("")
            with pytest.raises(ValidationError) as info:
                READERS[name][-1](path, disease_schema, worked_model)
            assert str(info.value) == f"{path}: empty file"
            path.unlink()


NOT_DECIMAL = ["1_0", "+5", " 5", "\u0663", "5 ", "--5", ""]


class TestIntegerRule:
    """Numeric microdata and --et cells, like stored gids and regions, are
    plain decimal: digits with an optional leading "-"."""

    @pytest.mark.parametrize("text", NOT_DECIMAL)
    def test_microdata_refuses(self, tmp_path, disease_schema, text):
        path = tmp_path / "data.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "20", text, "Flu"]])
        with pytest.raises(ValidationError) as info:
            load_microdata(path, disease_schema)
        assert str(info.value) == \
            f"{path} line 2: age={text!r} is not an integer"

    @pytest.mark.parametrize("text", NOT_DECIMAL)
    def test_external_table_refuses(self, tmp_path, disease_schema, text):
        path = tmp_path / "et_1.csv"
        write_csv(path, [["id", "salary", "age"], ["a", "20", "20"],
                         ["b", text, "20"]])
        with pytest.raises(ValidationError) as info:
            load_external_tables(tmp_path, disease_schema)
        assert str(info.value) == \
            f"{path} line 3: salary={text!r} is not an integer"

    @pytest.mark.parametrize("text", NOT_DECIMAL)
    def test_infer_schema_takes_the_column_as_categorical(
            self, tmp_path, worked_model, text):
        path = tmp_path / "data.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "20", "-3", "Flu"], ["b", "21", text, "Flu"]])
        salary, age = infer_schema(path, worked_model).qi
        assert (salary.kind, salary.lo, salary.hi) == ("numeric", 20, 21)
        assert age.kind == "categorical"
        assert age.hierarchy.leaves == tuple(sorted(["-3", text]))


class TestInferSchema:
    def test_numeric_bounds_come_from_the_data(self, data_dir, worked_model):
        schema = infer_schema(data_dir / "microdata_t1.csv", worked_model)
        assert [a.name for a in schema.qi] == ["salary", "age"]
        assert (schema.qi[0].lo, schema.qi[0].hi) == (14, 31)
        assert (schema.qi[1].lo, schema.qi[1].hi) == (17, 35)
        assert schema.sensitive_name == "disease"
        assert schema.sensitive_domain == tuple(
            sorted(worked_model.sensitive_domain))

    def test_text_columns_become_flat_hierarchies(self, tmp_path,
                                                  worked_model):
        path = tmp_path / "mixed.csv"
        write_csv(path, [["id", "city", "disease"],
                         ["a", "north", "Flu"],
                         ["b", "south", "Gastritis"]])
        schema = infer_schema(path, worked_model)
        assert schema.qi[0].kind == "categorical"
        assert schema.qi[0].hierarchy.leaves == ("north", "south")

    def test_widen_covers_drifted_bounds(self, tmp_path, worked_model,
                                         disease_schema):
        path = tmp_path / "drift.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "5", "44", "Flu"]])
        observed = infer_schema(path, worked_model)
        widened = widen_schema(disease_schema, observed)
        assert (widened.qi[0].lo, widened.qi[0].hi) == (5, 40)
        assert (widened.qi[1].lo, widened.qi[1].hi) == (15, 44)
        # nothing to grow: the stored schema object is returned untouched
        assert widen_schema(widened, observed) is widened

    def test_widen_rejects_column_mismatch(self, tmp_path, worked_model,
                                           disease_schema):
        path = tmp_path / "odd.csv"
        write_csv(path, [["id", "salary", "height", "disease"],
                         ["a", "20", "170", "Flu"]])
        observed = infer_schema(path, worked_model)
        with pytest.raises(ValidationError, match="do not match"):
            widen_schema(disease_schema, observed)

    def test_needs_records_and_columns(self, tmp_path, worked_model):
        path = tmp_path / "thin.csv"
        write_csv(path, [["id", "disease"]])
        with pytest.raises(ValidationError):
            infer_schema(path, worked_model)
        path2 = tmp_path / "hollow.csv"
        write_csv(path2, [["id", "age", "disease"]])
        with pytest.raises(ValidationError, match="no records"):
            infer_schema(path2, worked_model)


class TestUpdateModelFiles:
    def test_fixture_transitions_match_the_worked_model(self, data_dir,
                                                        worked_model):
        model = load_update_model(data_dir / "disease_transitions.csv")
        assert model == worked_model

    def test_blank_probabilities_mean_uniform(self, data_dir, class_model):
        model = load_update_model(data_dir / "class_transitions.csv")
        # same transition structure; the loader sorts the inferred domain
        assert set(model.sensitive_domain) == set(class_model.sensitive_domain)
        assert model.cus == class_model.cus
        assert model.p_trans == class_model.p_trans

    def test_round_trip(self, tmp_path, worked_model):
        path = tmp_path / "model.csv"
        write_update_model(path, worked_model)
        assert load_update_model(path) == worked_model

    def test_mixed_blank_and_explicit_rejected(self, tmp_path):
        path = tmp_path / "mix.csv"
        write_csv(path, [["value", "successor", "probability"],
                         ["a", "a", "1/2"],
                         ["a", "b", ""],
                         ["b", "b", "1"]])
        with pytest.raises(ValidationError, match="mixes blank"):
            load_update_model(path)

    def test_closure_violations_reported(self, tmp_path):
        path = tmp_path / "leaky.csv"
        write_csv(path, [["value", "successor", "probability"],
                         ["a", "a", "1/2"],
                         ["a", "b", "1/2"],
                         ["b", "c", "1"],
                         ["c", "c", "1"]])
        with pytest.raises(ValidationError, match="closure"):
            load_update_model(path)

    def test_bad_probability_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_csv(path, [["value", "successor", "probability"],
                         ["a", "a", "one"]])
        with pytest.raises(ValidationError, match="bad probability"):
            load_update_model(path)

    def test_duplicate_transition_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        write_csv(path, [["value", "successor", "probability"],
                         ["a", "a", "1/2"],
                         ["a", "a", "1/2"]])
        with pytest.raises(ValidationError, match="duplicate transition"):
            load_update_model(path)


class TestHistoryStore:
    def test_schema_round_trip_bytes(self, tmp_path, disease_schema):
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        store.write_schema(disease_schema)
        first = (store.path / "schema.json").read_bytes()
        again = HistoryStore(tmp_path / "h2")
        again.path.mkdir()
        again.write_schema(store.read_schema())
        assert (again.path / "schema.json").read_bytes() == first

    def test_synthetic_schema_round_trip(self, tmp_path):
        schema, _ = synthetic_schema(10, 50)
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        store.write_schema(schema)
        loaded = store.read_schema()
        assert [a.name for a in loaded.qi] == [a.name for a in schema.qi]
        assert loaded.qi[3].hierarchy.leaves == schema.qi[3].hierarchy.leaves

    def test_release_round_trip(self, tmp_path, t1_records, worked_model,
                                disease_schema):
        release, _ = publish(t1_records, EngineState(m=2), worked_model,
                             disease_schema, seed=3)
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        store.write_schema(disease_schema)
        store.write_release(release, disease_schema)
        store.write_actuals(1, disease_schema, t1_records)
        assert store.release_indices() == [1]
        assert store.read_release(1, disease_schema) == release
        assert store.read_actuals(1, disease_schema) == sorted(
            t1_records, key=lambda r: r.id)
        histories = store.histories(disease_schema)
        assert histories["Ben"] == {1: "Flu"}
        snapshots = store.snapshots(disease_schema)
        assert snapshot_histories(snapshots) == histories
        tables = snapshot_tables(snapshots)
        assert tables[0].release_index == 1
        assert tables[0].rows["Ken"] == (14, 20)

    @pytest.mark.parametrize("kind", sorted(REPLAY_CASES))
    def test_replay_state_matches_live_state(self, kind, tmp_path,
                                             t1_records, t2_records,
                                             worked_model, disease_schema):
        fresh, publish_one, per_record = REPLAY_CASES[kind]
        state = fresh()
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        store.write_schema(disease_schema)
        for snap in (t1_records, t2_records):
            release, state = publish_one(snap, state, worked_model,
                                         disease_schema)
            store.write_release(release, disease_schema)
        replayed = store.replay_state(fresh(), worked_model)
        assert replayed.release_count == state.release_count == 2
        assert getattr(replayed, per_record) == getattr(state, per_record)
        assert getattr(replayed, per_record)

    def test_lock_is_exclusive_and_released(self, tmp_path):
        store = HistoryStore(tmp_path / "h")
        with store.lock():
            with pytest.raises(ValidationError, match="locked"):
                with store.lock():
                    pass
        with store.lock():
            pass
        assert not (store.path / "lock").exists()

    def test_meta_round_trip(self, tmp_path):
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        store.write_meta({"m": "2", "mode": "m_distinct", "seed": "3"})
        assert store.read_meta() == {"m": "2", "mode": "m_distinct",
                                     "seed": "3"}

    def test_corrupt_release_rejected(self, tmp_path, disease_schema):
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        write_csv(store.path / "release_1.csv",
                  [["gid", "id", "salary", "age", "disease",
                    "is_counterfeit"],
                   ["1", "a", "10..12", "15..16", "Flu", "0"],
                   ["1", "b", "10..13", "15..16", "Gastritis", "0"]])
        with pytest.raises(ValidationError, match="region differs"):
            store.read_release(1, disease_schema)


class TestExternalTables:
    def test_directory_of_et_files(self, tmp_path, disease_schema):
        write_csv(tmp_path / "et_2.csv", [["id", "salary", "age"],
                                          ["Ken", "14", "20"]])
        write_csv(tmp_path / "et_1.csv", [["id", "salary", "age"],
                                          ["Ken", "14", "20"],
                                          ["Ben", "31", "19"]])
        tables = load_external_tables(tmp_path, disease_schema)
        assert [t.release_index for t in tables] == [1, 2]
        assert tables[0].rows["Ben"] == (31, 19)

    def test_bad_header_rejected(self, tmp_path, disease_schema):
        write_csv(tmp_path / "et_1.csv", [["id", "wage", "age"]])
        with pytest.raises(ValidationError, match="header"):
            load_external_tables(tmp_path, disease_schema)


class TestRiskFile:
    def test_rows_are_exact_and_sorted(self, tmp_path):
        reports = [RiskReport("b", (1,), (F(1),), 1, True),
                   RiskReport("a", (1, 2), (F(1, 2), F(1, 3)), 6, True)]
        path = tmp_path / "risks.csv"
        write_risks(path, reports)
        assert path.read_text().splitlines() == [
            "id,version,risk_num,risk_den,risk_decimal",
            "a,1,1,2,0.5",
            "a,2,1,3,0.333333333333",
            "b,1,1,1,1",
        ]


class TestExperimentConfigFile:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "publisher": "m_distinct", "m": 4, "thetas": [0.5],
            "n_records": 100, "out_dir": str(tmp_path / "out"),
        }))
        config, out_dir = load_experiment_config(path)
        assert config.m == 4 and config.thetas == (0.5,)
        assert out_dir == tmp_path / "out"

    def test_out_dir_defaults_beside_the_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        config, out_dir = load_experiment_config(path)
        assert config == ExperimentConfig()
        assert out_dir == tmp_path

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"gamma": 3}')
        with pytest.raises(ValidationError, match="unknown config keys"):
            load_experiment_config(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="bad JSON"):
            load_experiment_config(path)

    def test_list_top_level_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[]")
        with pytest.raises(ValidationError, match="object"):
            load_experiment_config(path)


class TestSyntheticWorkload:
    def test_block_model_shape(self):
        schema, model = synthetic_schema(10, 50)
        assert len(schema.sensitive_domain) == 50
        assert model.cus_of("occ_07") == frozenset(
            f"occ_{i:02d}" for i in range(10))
        assert model.prob("occ_07", "occ_03") == F(1, 10)
        _, narrow = synthetic_schema(1, 50)
        assert narrow.cus_of("occ_07") == frozenset({"occ_07"})

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValidationError):
            synthetic_schema(0, 50)
        with pytest.raises(ValidationError):
            synthetic_schema(51, 50)

    def test_population_is_deterministic(self):
        schema, model = synthetic_schema(5, 20)
        a, _ = initial_population(30, schema, model, random.Random(1))
        b, _ = initial_population(30, schema, model, random.Random(1))
        assert a == b
        for rec in a:
            schema.validate_record(rec)

    def test_external_updates_churn_membership(self):
        schema, model = synthetic_schema(5, 20)
        records, next_id = initial_population(30, schema, model,
                                              random.Random(1))
        before = {r.id for r in records}
        after, next_id = apply_external_updates(records, schema,
                                                random.Random(2), inserts=7,
                                                deletes=5, next_id=next_id)
        assert len(after) == 32 and next_id == 37
        fresh = {r.id for r in after} - before
        assert len(fresh) == 7
        assert all(rid not in before for rid in fresh)
        # deletes never exhaust the population
        survivors, _ = apply_external_updates(records[:3], schema,
                                              random.Random(2), inserts=0,
                                              deletes=99, next_id=next_id)
        assert len(survivors) == 1

    def test_internal_updates_respect_the_model(self):
        schema, model = synthetic_schema(5, 20)
        records, _ = initial_population(40, schema, model, random.Random(1))
        out = synthesize_internal_updates(records, schema, model, 10,
                                          random.Random(2))
        assert len(out) == len(records)
        before = {r.id: r for r in records}
        changed = 0
        for rec in out:
            old = before[rec.id]
            age0, gender0, marital0, edu0 = old.qi
            age1, gender1, marital1, edu1 = rec.qi
            assert age1 == min(age0 + 1, 100)
            assert gender1 == gender0
            assert rec.sensitive in model.cus_of(old.sensitive)
            changed += rec.sensitive != old.sensitive
        assert changed <= 10
        again = synthesize_internal_updates(records, schema, model, 10,
                                            random.Random(2))
        assert again == out
