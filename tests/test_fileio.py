import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mdistinct import fileio
from mdistinct.baselines import MInvarianceState, publish_m_invariance
from mdistinct.engine import EngineState, publish
from mdistinct.errors import ValidationError
from mdistinct.evaluation import ExperimentConfig, load_experiment_config
from mdistinct.fileio import (HistoryStore, _csv_indices, _decimal,
                              _read_table, _schema_to_json,
                              apply_external_updates, initial_population,
                              load_external_tables, load_microdata,
                              load_update_model, snapshot_schema,
                              synthesize_internal_updates, synthetic_schema,
                              write_csv, write_microdata, write_risks,
                              write_update_model)
from mdistinct.model import (AttributeSchema, ExternalKnowledgeTable,
                             Hierarchy, Record, TableSchema)
from mdistinct.sug import RiskReport
from mdistinct.updates import UpdateModel, validate_update_model

from test_attack_kernel import closed_models

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
                     lambda path, schema, model: snapshot_schema(path,
                                                                 model)),
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


# the last is plain decimal, but has more digits than `int` converts
NOT_DECIMAL = ["1_0", "+5", " 5", "\u0663", "5 ", "--5", "", "9" * 4301]


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
        salary, age = snapshot_schema(path, worked_model).qi
        assert (salary.kind, salary.lo, salary.hi) == ("numeric", 20, 21)
        assert age.kind == "categorical"
        assert age.hierarchy.leaves == tuple(sorted(["-3", text]))


class TestInferSchema:
    """`snapshot_schema` infers a first snapshot's schema and types every
    later one by the stored schema."""

    def test_numeric_bounds_come_from_the_data(self, data_dir, worked_model):
        schema = snapshot_schema(data_dir / "microdata_t1.csv", worked_model)
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
        schema = snapshot_schema(path, worked_model)
        assert schema.qi[0].kind == "categorical"
        assert schema.qi[0].hierarchy.leaves == ("north", "south")

    def test_widen_covers_drifted_bounds(self, tmp_path, worked_model,
                                         disease_schema):
        path = tmp_path / "drift.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "5", "44", "Flu"]])
        widened = snapshot_schema(path, worked_model, disease_schema)
        assert (widened.qi[0].lo, widened.qi[0].hi) == (5, 40)
        assert (widened.qi[1].lo, widened.qi[1].hi) == (15, 44)
        # nothing to grow: the stored schema object is returned untouched
        assert snapshot_schema(path, worked_model, widened) is widened

    def test_widen_rejects_column_mismatch(self, tmp_path, worked_model,
                                           disease_schema):
        path = tmp_path / "odd.csv"
        write_csv(path, [["id", "salary", "height", "disease"],
                         ["a", "20", "170", "Flu"]])
        with pytest.raises(ValidationError, match="do not match"):
            snapshot_schema(path, worked_model, disease_schema)

    def test_widen_names_a_column_of_another_kind(self, tmp_path,
                                                   worked_model,
                                                   disease_schema):
        path = tmp_path / "kinds.csv"
        write_csv(path, [["id", "salary", "age", "disease"],
                         ["a", "20", "30", "Flu"],
                         ["b", "21", "x31", "Flu"]])
        with pytest.raises(ValidationError) as info:
            snapshot_schema(path, worked_model, disease_schema)
        assert str(info.value) == f"{path} line 3: age='x31' is not an integer"
        # the other way round, decimal values that are leaves of a stored
        # categorical column are accepted
        stored = snapshot_schema(path, worked_model)
        decimal = tmp_path / "decimal.csv"
        write_csv(decimal, [["id", "salary", "age", "disease"],
                            ["a", "20", "30", "Flu"]])
        assert snapshot_schema(decimal, worked_model, stored) is stored

    def test_categorical_values_must_be_stored_leaves(self, tmp_path,
                                                      worked_model):
        path = tmp_path / "zone.csv"
        write_csv(path, [["id", "zone", "disease"], ["a", "1", "Flu"],
                         ["b", "A", "Flu"]])
        stored = snapshot_schema(path, worked_model)
        write_csv(path, [["id", "zone", "disease"], ["a", "1", "Flu"],
                         ["b", "3", "Flu"], ["c", "B", "Flu"]])
        with pytest.raises(ValidationError) as info:
            snapshot_schema(path, worked_model, stored)
        assert str(info.value) == (
            "zone has values ['3', 'B'] missing from the history schema; "
            "extend schema.json by hand")

    def test_needs_records_and_columns(self, tmp_path, worked_model):
        path = tmp_path / "thin.csv"
        write_csv(path, [["id", "disease"]])
        with pytest.raises(ValidationError):
            snapshot_schema(path, worked_model)
        path2 = tmp_path / "hollow.csv"
        write_csv(path2, [["id", "age", "disease"]])
        with pytest.raises(ValidationError, match="no records"):
            snapshot_schema(path2, worked_model)


# The two functions `snapshot_schema` replaced: a schema inferred from each
# snapshot, then diffed against the stored one.  Where the inferred kinds
# match the stored ones, `snapshot_schema` must give what they gave.

def infer_schema(path, model):
    header, rows = _read_table(path)
    if len(header) < 3 or header[0] != "id":
        raise ValidationError(f"{path} line 1: need id, at least one QI "
                              f"column and a sensitive column")
    body = [row for _, row in rows]
    if not body:
        raise ValidationError(f"{path}: no records")
    attrs = []
    for j, name in enumerate(header[1:-1], start=1):
        values = {row[j] for row in body}
        ints = list(map(_decimal, values))
        if None in ints:
            attrs.append(AttributeSchema.categorical(
                name, Hierarchy.flat(f"any_{name}", sorted(values))))
        else:
            attrs.append(AttributeSchema.numeric(name, min(ints), max(ints)))
    return TableSchema(tuple(attrs), header[-1],
                       tuple(sorted(model.sensitive_domain)))


def widen_schema(stored, observed):
    if stored.qi_names != observed.qi_names:
        raise ValidationError(
            f"microdata columns {list(observed.qi_names)} do not match the "
            f"history schema {list(stored.qi_names)}")
    assert [s.kind for s in stored.qi] == [o.kind for o in observed.qi]
    changed = False
    attrs = []
    for s, o in zip(stored.qi, observed.qi):
        if s.kind == "numeric" and (o.lo < s.lo or o.hi > s.hi):
            attrs.append(AttributeSchema.numeric(s.name, min(s.lo, o.lo),
                                                 max(s.hi, o.hi)))
            changed = True
            continue
        if s.kind == "categorical":
            unknown = set(o.hierarchy.leaves) - set(s.hierarchy.leaves)
            if unknown:
                raise ValidationError(
                    f"{s.name} has values {sorted(unknown)} missing from the "
                    f"history schema; extend schema.json by hand")
        attrs.append(s)
    if not changed:
        return stored
    return TableSchema(tuple(attrs), stored.sensitive_name,
                       stored.sensitive_domain)


def _outcome(call):
    """A call's result, or the message of the ValidationError it raised."""
    try:
        return call()
    except ValidationError as exc:
        return str(exc)


# cells mix small decimals with texts, some of them decimal-looking
CELLS = st.one_of(st.integers(-30, 30).map(str),
                  st.sampled_from(["x", "A", "07", "-0", "a..b", "+1"]))


@st.composite
def snapshots(draw):
    """A microdata file's rows: two or three QI columns, each all decimal or
    not, and zero to six records."""
    names = draw(st.lists(st.sampled_from(["age", "zone", "zip"]),
                          min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 6))
    columns = []
    for _ in names:
        cells = (st.integers(-30, 30).map(str) if draw(st.booleans())
                 else CELLS)
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    rows = [["id", *names, "disease"]]
    rows += [[f"r{i}", *(col[i] for col in columns), "Flu"]
             for i in range(n)]
    return rows


# ---------------------------------------------------------------------------
# The row-wise reference for `_read_columns`: `_read_qi_rows`,
# `load_microdata`, `HistoryStore.snapshots`, `snapshot_histories` and
# `snapshot_tables` as they were before id,<qi...>[,tail] files were read a
# column at a time.  The column reader must give what they give: equal
# records, tables and histories, or the same error.

def reference_qi_rows(path, schema, tail=()):
    _, rows = _read_table(path, ["id", *schema.qi_names, *tail])
    n_qi = len(schema.qi)
    columns = [(attr, {}) for attr in schema.qi]
    seen = set()
    for lineno, row in rows:
        rid = row[0]
        if rid in seen:
            raise ValidationError(f"{path} line {lineno}: duplicate id "
                                  f"{rid!r}")
        seen.add(rid)
        qi = []
        for (attr, checked), text in zip(columns, row[1:]):
            value = checked.get(text)
            if value is None:
                value = text
                if attr.kind == "numeric":
                    value = _decimal(text)
                    if value is None:
                        raise ValidationError(f"{path} line {lineno}: "
                                              f"{attr.name}={text!r} is not "
                                              f"an integer")
                if not attr.contains(value):
                    raise ValidationError(f"{path} line {lineno}: record "
                                          f"{rid!r}: {attr.name}={value!r} "
                                          f"outside domain")
                checked[text] = value
            qi.append(value)
        yield lineno, rid, tuple(qi), row[1 + n_qi:]


def reference_load_microdata(path, schema):
    domain = frozenset(schema.sensitive_domain)
    out = []
    for lineno, rid, qi, (sensitive,) in reference_qi_rows(
            path, schema, (schema.sensitive_name,)):
        if sensitive not in domain:
            raise ValidationError(f"{path} line {lineno}: record {rid!r}: "
                                  f"sensitive value {sensitive!r} outside "
                                  f"domain")
        out.append(Record(rid, qi, sensitive))
    return out


def reference_actuals(store, schema):
    snapshots = {i: reference_load_microdata(
                     store.path / f"microdata_{i}.csv", schema)
                 for i in store.release_indices()
                 if (store.path / f"microdata_{i}.csv").exists()}
    histories = {}
    for i, records in snapshots.items():
        for rec in records:
            histories.setdefault(rec.id, {})[i] = rec.sensitive
    tables = [ExternalKnowledgeTable(i, {rec.id: rec.qi for rec in records})
              for i, records in snapshots.items()]
    return histories, tables


def reference_external_tables(directory, schema):
    return [ExternalKnowledgeTable(i, {
                rid: qi for _, rid, qi, _ in reference_qi_rows(
                    directory / f"et_{i}.csv", schema)})
            for i in _csv_indices(directory, "et")]


@st.composite
def qi_schemas(draw, names):
    """A schema over the QI columns `names`, each numeric or categorical
    whatever its cells look like, with a domain that may miss some of
    them: numeric bounds inside -30..30, or a hierarchy over some of
    `CELLS`' texts, flat or under two inner nodes."""
    attrs = []
    for name in names:
        if draw(st.booleans()):
            lo, hi = sorted(draw(st.lists(st.integers(-30, 30), min_size=2,
                                          max_size=2)))
            attrs.append(AttributeSchema.numeric(name, lo, hi))
            continue
        leaves = draw(st.lists(CELLS, min_size=1, max_size=8, unique=True))
        cut = draw(st.integers(0, len(leaves)))
        tree = ({"low": leaves[:cut], "high": leaves[cut:]}
                if 0 < cut < len(leaves) else leaves)
        attrs.append(AttributeSchema.categorical(
            name, Hierarchy(f"any_{name}", tree)))
    return TableSchema(tuple(attrs), "disease", ("Flu", "Cold"))


def _valid_text(attr):
    if attr.kind == "numeric":
        return st.integers(attr.lo, attr.hi).map(str)
    return st.sampled_from(attr.hierarchy.leaves)


@st.composite
def qi_files(draw, schema, sensitive):
    """A file's rows under `schema`, valid but for up to three faults: a row
    a field longer or shorter, a repeated id, a QI cell from `snapshots()`'
    cells, which may fall outside its attribute's domain or not be an
    integer, or a sensitive value outside the domain.  A fault lands on
    any field of a row, often the row of the fault before, wherever that
    fault left it, so that one row can break several rules."""
    n = draw(st.integers(0, 6))
    rows = [["id", *schema.qi_names,
             *([schema.sensitive_name] if sensitive else [])]]
    for i in range(n):
        row = [f"r{i}", *(draw(_valid_text(a)) for a in schema.qi)]
        if sensitive:
            row.append(draw(st.sampled_from(schema.sensitive_domain)))
        rows.append(row)
    faults = ["wider", "narrower", "repeated id", "cell", "cell"]
    if sensitive:
        faults.append("sensitive")
    at = 1
    for k in range(draw(st.integers(0, 3)) if n else 0):
        if k == 0 or draw(st.booleans()):  # else the last fault's row again
            at = draw(st.integers(1, n))
        row = rows[at]
        fault = draw(st.sampled_from(faults))
        if fault == "wider":
            row.append(draw(CELLS))
        elif len(row) < 2:  # a row cut to its id keeps it
            continue
        elif fault == "narrower":
            row.pop()
        elif fault == "repeated id":
            row[0] = f"r{draw(st.integers(0, n - 1))}"
        elif fault == "cell":
            row[draw(st.integers(1, len(row) - 1))] = draw(CELLS)
        else:
            row[-1] = draw(st.sampled_from(["zz", "Flu"]))
    return rows


def _in_order(actuals, store, schema):
    """A call giving the histories `actuals` reads, their id order and the
    tables."""
    def call():
        histories, tables = actuals(store, schema)
        return histories, list(histories), tables
    return call


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["age", "zone", "zip"]), min_size=1,
                max_size=3, unique=True).flatmap(qi_schemas), st.data())
def test_column_reader_matches_row_reference(schema, data):
    """Microdata files, as `load_microdata` and `HistoryStore.actuals` read
    them, and external tables: the column reader gives the row-wise
    reference's records, tables and histories, or its error."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        store = HistoryStore(tmp)
        for i in range(1, data.draw(st.integers(1, 3)) + 1):
            path = tmp / f"microdata_{i}.csv"
            write_csv(path, data.draw(qi_files(schema, True)))
            # `actuals` reads the snapshot of each numbered release file
            write_csv(tmp / f"release_{i}.csv", [])
            assert _outcome(lambda: load_microdata(path, schema)) == \
                _outcome(lambda: reference_load_microdata(path, schema))
            write_csv(tmp / f"et_{i}.csv", data.draw(qi_files(schema, False)))
        assert _outcome(_in_order(HistoryStore.actuals, store, schema)) == \
            _outcome(_in_order(reference_actuals, store, schema))
        assert _outcome(lambda: load_external_tables(tmp, schema)) == \
            _outcome(lambda: reference_external_tables(tmp, schema))


@st.composite
def stored_like(draw, observed: TableSchema) -> TableSchema:
    """A stored schema of the observed kinds: numeric bounds that may or may
    not cover the observed ones, and hierarchies that may miss some
    observed values or hold others, flat or under two inner nodes."""
    attrs = []
    for o in observed.qi:
        if o.kind == "numeric":
            lo = draw(st.integers(o.lo - 3, o.lo + 3))
            hi = draw(st.integers(max(lo, o.hi - 3), max(lo, o.hi + 3)))
            attrs.append(AttributeSchema.numeric(o.name, lo, hi))
            continue
        kept = draw(st.lists(st.sampled_from(o.hierarchy.leaves),
                             unique=True))
        leaves = kept + [v for v in draw(st.lists(CELLS, max_size=3))
                         if v not in o.hierarchy.leaves]
        leaves = list(dict.fromkeys(leaves)) or ["other"]
        cut = draw(st.integers(0, len(leaves)))
        tree = ({"low": leaves[:cut], "high": leaves[cut:]}
                if 0 < cut < len(leaves) else leaves)
        attrs.append(AttributeSchema.categorical(
            o.name, Hierarchy(f"any_{o.name}", tree)))
    return TableSchema(tuple(attrs), observed.sensitive_name,
                       observed.sensitive_domain)


FLU_ONLY = UpdateModel.uniform({"Flu": {"Flu"}}, ("Flu",))


@settings(max_examples=300, deadline=None)
@given(snapshots(), st.data())
def test_snapshot_schema_matches_infer_and_widen(rows, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.csv"
        write_csv(path, rows)
        want = _outcome(lambda: infer_schema(path, FLU_ONLY))
        got = _outcome(lambda: snapshot_schema(path, FLU_ONLY))
        if isinstance(want, str):
            assert got == want
            return
        assert _schema_to_json(got) == _schema_to_json(want)
        stored = data.draw(stored_like(want))
        want = _outcome(lambda: widen_schema(stored, want))
        got = _outcome(lambda: snapshot_schema(path, FLU_ONLY, stored))
        assert got == want
        assert (got is stored) == (want is stored)


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
        assert model.successors == class_model.successors

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

    def test_mixed_probability_forms_load(self, tmp_path):
        path = tmp_path / "forms.csv"
        write_csv(path, [["value", "successor", "probability"],
                         ["a", "a", "1/3"],
                         ["a", "b", "1/6"],
                         ["a", "c", "0.5"],
                         ["b", "b", "1"],
                         ["c", "c", "1"]])
        assert load_update_model(path).successors["a"] == {
            "a": F(1, 3), "b": F(1, 6), "c": F(1, 2)}

    def test_sum_just_above_one_rejected(self, tmp_path):
        path = tmp_path / "over.csv"
        write_csv(path, [["value", "successor", "probability"],
                         ["a", "a", "0.5"],
                         ["a", "b", "0.5" + "0" * 38 + "1"],
                         ["b", "b", "1"]])
        total = F(10 ** 40 + 1, 10 ** 40)
        with pytest.raises(ValidationError) as got:
            load_update_model(path)
        assert str(got.value) == (f"{path}: invalid update model:\n  "
                                  f"p_trans('a', .) sums to {total}, not 1")

    def test_bad_probability_named_at_its_first_line(self, tmp_path):
        path = tmp_path / "twice_bad.csv"
        write_csv(path, [["value", "successor", "probability"],
                         ["a", "a", "1/2"],
                         ["a", "b", "half"],
                         ["b", "b", "half"]])
        with pytest.raises(ValidationError) as got:
            load_update_model(path)
        assert str(got.value) == f"{path} line 3: bad probability 'half'"


def _regex_decimal(text):
    """`_decimal` as a regular expression and `int`."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        return None
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("0123456789-+_ \u00b2\u0663\uff10"),
               max_size=8))
@example("7" * 5000)
@example("-" + "7" * 5000)
def test_decimal_matches_the_regex_form(text):
    """Only ASCII digits after an optional "-": not "+5", " 5", "1_0",
    the superscript two, the Arabic-Indic three or the fullwidth zero;
    and no more digits than `int` converts."""
    assert _decimal(text) == _regex_decimal(text)
    if len(text) > 4300:
        assert _decimal(text) is None


def _load_written(write):
    """The model `load_update_model` reads from the file `write(path)`
    writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.csv"
        write(path)
        return load_update_model(path)


@settings(max_examples=100, deadline=None)
@given(closed_models())
def test_written_model_files_load_equal(model):
    loaded = _load_written(lambda path: write_update_model(path, model))
    assert loaded == model
    assert validate_update_model(loaded) == []


@settings(max_examples=100, deadline=None)
@given(closed_models(), st.randoms(use_true_random=False))
def test_blank_probability_files_load_uniform(model, rng):
    rows = [[a, b, ""] for a, row in model.successors.items() for b in row]
    rng.shuffle(rows)
    loaded = _load_written(lambda path: write_csv(
        path, [["value", "successor", "probability"], *rows]))
    assert loaded == UpdateModel.uniform(model.cus, model.sensitive_domain)
    assert validate_update_model(loaded) == []
    assert _load_written(
        lambda path: write_update_model(path, loaded)) == loaded


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

    def test_schema_tree_as_a_list_of_leaves(self, tmp_path,
                                             disease_schema):
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        store.write_schema(disease_schema)
        data = json.loads((store.path / "schema.json").read_text())
        data["qi"][1] = {"name": "sex", "kind": "categorical",
                         "root": "any", "tree": ["m", "f"]}
        (store.path / "schema.json").write_text(json.dumps(data))
        sex = store.read_schema().qi[1]
        assert (sex.kind, sex.hierarchy.root) == ("categorical", "any")
        assert sex.hierarchy.leaves == ("m", "f")
        data["qi"][1]["tree"] = ["m", 1]
        (store.path / "schema.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="sex: bad kind or tree"):
            store.read_schema()

    @pytest.mark.parametrize("value", [1, None, ["Flu"], {"Flu": 1}])
    def test_schema_sensitive_values_must_be_strings(self, tmp_path,
                                                     disease_schema, value):
        store = HistoryStore(tmp_path / "h")
        store.path.mkdir()
        store.write_schema(disease_schema)
        data = json.loads((store.path / "schema.json").read_text())
        data["sensitive_domain"].append(value)
        (store.path / "schema.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError,
                           match="sensitive values must be strings"):
            store.read_schema()

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
        histories, tables = store.actuals(disease_schema)
        assert (histories, tables) == reference_actuals(store,
                                                        disease_schema)
        assert histories["Ben"] == {1: "Flu"}
        assert store.histories(disease_schema) == histories
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

    def test_lock_open_error_is_a_validation_error(self, tmp_path,
                                                   monkeypatch):
        """An `os.open` failure other than an existing lock (a read-only
        history directory, say) names the history and the reason, and
        leaves no lock file."""
        store = HistoryStore(tmp_path / "h")
        real_open = fileio.os.open

        def refusing(path, *args, **kwargs):
            if Path(path) == store.path / "lock":
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(fileio.os, "open", refusing)
        with pytest.raises(ValidationError,
                           match=re.escape(f"history {store.path} cannot be "
                                           f"locked: Permission denied")):
            with store.lock():
                pass
        assert not (store.path / "lock").exists()

    def test_lock_write_error_closes_and_removes_the_lock(self, tmp_path,
                                                          monkeypatch):
        store = HistoryStore(tmp_path / "h")
        real_close = fileio.os.close
        closed = []

        def full(fd, data):
            raise OSError(28, "No space left on device")

        def close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(fileio.os, "write", full)
        monkeypatch.setattr(fileio.os, "close", close)
        with pytest.raises(ValidationError,
                           match=re.escape(f"history {store.path} cannot be "
                                           f"locked: No space left on "
                                           f"device")):
            with store.lock():
                pass
        assert len(closed) == 1
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
        reports = [RiskReport("b", (1,), (F(1),), 1),
                   RiskReport("a", (1, 2), (F(1, 2), F(1, 3)), 1)]
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
