import errno
import json
import os
import shutil

import pytest

from mdistinct import fileio
from mdistinct.cli import main
from mdistinct.fileio import HistoryStore, write_csv
from mdistinct.model import Record, generalize

from conftest import HEADER, T3, T4


@pytest.fixture
def workdir(tmp_path, data_dir):
    shutil.copy(data_dir / "microdata_t1.csv", tmp_path / "t1.csv")
    shutil.copy(data_dir / "microdata_t2.csv", tmp_path / "t2.csv")
    shutil.copy(data_dir / "disease_transitions.csv", tmp_path / "model.csv")
    return tmp_path


def run(workdir, *argv):
    return main([str(a) for a in argv])


class TestPublishAttackVerify:
    def test_full_flow(self, workdir, capsys):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--m", "2", "--seed", "3", *base) == 0
        assert "release 1: 3 groups, 6 records" in capsys.readouterr().out
        assert run(workdir, "publish", "--microdata", workdir / "t2.csv",
                   "--m", "2", "--seed", "3", *base) == 0
        assert "release 2" in capsys.readouterr().out

        assert run(workdir, "attack", *base) == 0
        out = capsys.readouterr().out
        assert "max risk 1/2" in out
        assert "0 fully disclosed" in out
        assert (hist / "risks.csv").exists()

        assert run(workdir, "verify", "--m", "2", *base) == 0
        assert "OK: 2 releases satisfy 2-distinct" in capsys.readouterr().out

    def test_attack_parses_each_snapshot_once(self, workdir, monkeypatch,
                                              capsys):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        for snap in ("t1.csv", "t2.csv"):
            run(workdir, "publish", "--microdata", workdir / snap,
                "--m", "2", "--seed", "3", *base)
        parsed = []
        load = fileio.load_microdata

        def counting(path, schema):
            parsed.append(path.name)
            return load(path, schema)

        monkeypatch.setattr(fileio, "load_microdata", counting)
        assert run(workdir, "attack", *base) == 0
        assert sorted(parsed) == ["microdata_1.csv", "microdata_2.csv"]

    def test_attack_with_external_tables_dir(self, workdir, capsys):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        run(workdir, "publish", "--microdata", workdir / "t1.csv",
            "--m", "2", "--seed", "3", *base)
        et_dir = workdir / "et"
        et_dir.mkdir()
        write_csv(et_dir / "et_1.csv",
                  [["id", "salary", "age"], ["Ken", "14", "20"],
                   ["Julia", "16", "23"]])
        assert run(workdir, "attack", "--et", et_dir, *base) == 0
        capsys.readouterr()
        # a claimed location outside the published group is an integrity error
        write_csv(et_dir / "et_1.csv",
                  [["id", "salary", "age"], ["Ken", "39", "39"]])
        assert run(workdir, "attack", "--et", et_dir, *base) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyFailure:
    def test_violations_go_to_stderr(self, workdir, disease_schema,
                                     release_one, release_two_naive,
                                     t1_records, t2_records, capsys):
        hist = workdir / "naive"
        store = HistoryStore(hist)
        store.path.mkdir()
        store.write_schema(disease_schema)
        store.write_meta({"m": "2", "mode": "m_distinct", "seed": "0"})
        store.write_release(release_one, disease_schema)
        store.write_release(release_two_naive, disease_schema)
        store.write_actuals(1, disease_schema, t1_records)
        store.write_actuals(2, disease_schema, t2_records)
        code = run(workdir, "verify", "--history", hist, "--model",
                   workdir / "model.csv", "--m", "2")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "legal update instance" in captured.err


class TestExitCodes:
    def test_usage_errors_exit_one(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["publish", "--microdata", str(workdir / "t1.csv")])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    def test_missing_model_file_exits_two(self, workdir, capsys):
        code = run(workdir, "verify", "--history", workdir / "none",
                   "--model", workdir / "ghost.csv", "--m", "2")
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_history_without_releases_exits_two(self, workdir, disease_schema,
                                                capsys):
        hist = workdir / "bare"
        store = HistoryStore(hist)
        store.path.mkdir()
        store.write_schema(disease_schema)
        code = run(workdir, "attack", "--history", hist, "--model",
                   workdir / "model.csv")
        assert code == 2
        assert "no releases" in capsys.readouterr().err

    @pytest.mark.parametrize("brk", ["\r", "\n", "\r\n"])
    @pytest.mark.parametrize("column", [0, 3])
    def test_line_break_in_a_field_exits_two(self, workdir, capsys, brk,
                                             column):
        # a quoted id or value holding a line break; write_csv would leave
        # a bare "\r" unquoted in the release it wrote
        rows = (workdir / "t1.csv").read_text().splitlines()
        cells = rows[2].split(",")
        cells[column] = f'"{cells[column][:2]}{brk}{cells[column][2:]}"'
        rows[2] = ",".join(cells)
        (workdir / "bad.csv").write_bytes("\n".join(rows).encode() + b"\n")
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", workdir / "bad.csv",
                   "--m", "2", *base) == 2
        assert "bad.csv line 3: a field holds a line break" in \
            capsys.readouterr().err
        assert not list(hist.glob("*"))
        # and into an existing history, which stays as it was
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--m", "2", *base) == 0
        before = _tree(hist)
        assert run(workdir, "publish", "--microdata", workdir / "bad.csv",
                   "--m", "2", *base) == 2
        assert _tree(hist) == before
        assert run(workdir, "verify", "--m", "2", *base) == 0

    def test_line_break_in_a_schema_name_exits_two(self, workdir, capsys):
        # a name that reaches a history from schema.json, not from a CSV
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--m", "2", *base) == 0
        schema = json.loads((hist / "schema.json").read_text())
        schema["qi"][0]["name"] = "sal\rary"
        (hist / "schema.json").write_text(json.dumps(schema))
        before = _tree(hist)
        for argv in (["publish", "--microdata", workdir / "t2.csv",
                      "--m", "2"], ["verify", "--m", "2"], ["attack"]):
            assert run(workdir, *argv, *base) == 2
            assert "schema.json: a name holds a line break" in \
                capsys.readouterr().err
        assert _tree(hist) == before

    def test_mismatched_parameters_exit_two(self, workdir, capsys):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        run(workdir, "publish", "--microdata", workdir / "t1.csv",
            "--m", "2", *base)
        capsys.readouterr()
        code = run(workdir, "publish", "--microdata", workdir / "t2.csv",
                   "--m", "3", *base)
        assert code == 2
        assert "was built with m=2" in capsys.readouterr().err

    def test_column_of_another_kind_names_the_cell(self, workdir, capsys):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist,
                "--m", "2"]
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   *base) == 0
        before = _tree(hist)
        snap = workdir / "signed.csv"
        snap.write_text((workdir / "t2.csv").read_text()
                        .replace("Ben,26,", "Ben,+26,"))
        capsys.readouterr()
        assert run(workdir, "publish", "--microdata", snap, *base) == 2
        assert capsys.readouterr().err == (
            f"error: {snap} line 2: salary='+26' is not an integer\n")
        assert _tree(hist) == before

    def test_unwritable_risks_file_exits_two(self, workdir, capsys):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--m", "2", *base) == 0
        (hist / "risks.csv").mkdir()
        capsys.readouterr()
        assert run(workdir, "attack", *base) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {hist / 'risks.csv'}: Is a directory\n")

    def test_locked_history_exits_two(self, workdir, capsys):
        hist = workdir / "hist"
        hist.mkdir()
        (hist / "lock").write_text("999")
        code = run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--model", workdir / "model.csv", "--history", hist,
                   "--m", "2")
        assert code == 2
        assert "locked" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["publish"], ["baseline", "--kind", "ldiv"],
        ["baseline", "--kind", "minv"]])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_history_on_a_regular_file_exits_two(self, workdir, capsys,
                                                  command, below):
        taken = workdir / "taken.csv"
        taken.write_text("not a history\n")
        hist = taken / below if below else taken
        code = run(workdir, *command, "--microdata", workdir / "t1.csv",
                   "--model", workdir / "model.csv", "--history", hist,
                   "--m", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: history {hist} cannot be a directory")
        assert "Traceback" not in err
        assert taken.read_text() == "not a history\n"

    @pytest.mark.parametrize("et", ["missing", "t1.csv", "empty"])
    def test_et_without_external_tables_exits_two(self, workdir, capsys,
                                                   et):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--m", "2", *base) == 0
        (workdir / "empty").mkdir()
        (workdir / "empty" / "et_1_old.csv").write_text("id,salary,age\n")
        capsys.readouterr()
        assert run(workdir, "attack", "--et", workdir / et, *base) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: external tables {workdir / et}: ")
        assert not (hist / "risks.csv").exists()

    @pytest.mark.parametrize("rows, message", [
        ([["key", "value"], ["mode", "m_distinct"], ["seed", "0"]],
         "no 'm' entry"),
        ([["key", "value"], ["m", "two"], ["mode", "m_distinct"]],
         "m='two' is not an integer"),
        ([["key", "value"], ["m", "2", "extra"], ["mode", "m_distinct"]],
         "line 2: expected 2 fields, got 3"),
        ([["key", "value"], ["m", "2"]], "no 'mode' entry"),
        ([["key", "value"], ["m", " 2"], ["mode", "m_distinct"]],
         "m=' 2' is not an integer"),
        ([["name", "value"], ["m", "2"], ["mode", "m_distinct"]],
         "meta.csv line 1: header ['name', 'value'] does not match "
         "['key', 'value']"),
        ([["key", "value"], ["m", "2"], ["mode", "m_distinct"], ["m", "3"]],
         "meta.csv line 4: duplicate key 'm'"),
    ])
    def test_malformed_meta_exits_two(self, workdir, capsys, rows, message):
        hist = workdir / "hist"
        base = ["--microdata", workdir / "t2.csv", "--model",
                workdir / "model.csv", "--history", hist, "--m", "2"]
        run(workdir, "publish", *base)
        capsys.readouterr()
        write_csv(hist / "meta.csv", rows)
        assert run(workdir, "publish", *base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    def test_et_value_outside_its_hierarchy_exits_two(self, workdir,
                                                       capsys):
        snap = workdir / "cities.csv"
        write_csv(snap, [["id", "city", "disease"],
                         ["a", "north", "Flu"], ["b", "north", "Gastritis"],
                         ["c", "south", "Glaucoma"],
                         ["d", "south", "Dyspepsia"]])
        hist = workdir / "cities"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", snap, "--m", "2",
                   *base) == 0
        et_dir = workdir / "et"
        et_dir.mkdir()
        write_csv(et_dir / "et_1.csv",
                  [["id", "city"], ["a", "north"], ["c", "atlantis"]])
        capsys.readouterr()
        assert run(workdir, "attack", "--et", et_dir, *base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "et_1.csv line 3: record 'c': city='atlantis' outside " \
            "domain" in err
        assert "Traceback" not in err

    def test_infeasible_demand_exits_three(self, workdir, capsys):
        # only three pairwise-disjoint update scopes exist in this model,
        # so no group can hold four of them
        code = run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--model", workdir / "model.csv", "--history",
                   workdir / "star", "--m", "4", "--star")
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestLaterSnapshots:
    """A later snapshot is typed by the history's schema, not by its own
    contents."""

    def test_decimal_values_of_a_categorical_column(self, workdir, capsys):
        # zone is categorical from the first snapshot on, so a snapshot whose
        # zones all look decimal still names leaves of its hierarchy
        z1, z2 = workdir / "z1.csv", workdir / "z2.csv"
        write_csv(z1, [["id", "zone", "disease"], ["a", "1", "Flu"],
                       ["b", "1", "Dyspepsia"], ["c", "2", "Glaucoma"],
                       ["d", "A", "Gastritis"]])
        write_csv(z2, [["id", "zone", "disease"], ["a", "1", "Pneumonia"],
                       ["b", "1", "Gastritis"], ["c", "2", "Cataract"],
                       ["d", "2", "Dyspepsia"]])
        hist = workdir / "zones"
        base = ["--model", workdir / "model.csv", "--history", hist]
        for snap in (z1, z2):
            assert run(workdir, "publish", "--microdata", snap, "--m", "2",
                       *base) == 0
        schema = (hist / "schema.json").read_bytes()
        assert run(workdir, "verify", "--m", "2", *base) == 0
        assert run(workdir, "attack", *base) == 0
        assert "4 records attacked" in capsys.readouterr().out
        assert (hist / "schema.json").read_bytes() == schema

    def test_category_name_holding_two_dots(self, workdir, capsys):
        # a column's kind decides how a region cell parses, so the leaf
        # "a..b" is never taken for a numeric range
        snap = workdir / "dots.csv"
        write_csv(snap, [["id", "city", "disease"], ["a", "a..b", "Flu"],
                         ["b", "a..b", "Dyspepsia"],
                         ["c", "a..b", "Glaucoma"],
                         ["d", "a..b", "Gastritis"]])
        hist = workdir / "dots"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", snap, "--m", "2",
                   *base) == 0
        assert run(workdir, "verify", "--m", "2", *base) == 0
        assert run(workdir, "attack", *base) == 0
        assert "4 records attacked" in capsys.readouterr().out
        store = HistoryStore(hist)
        release = store.read_release(1, store.read_schema())
        assert {g.region for g in release.groups} == {("a..b",)}
        assert sorted(m.rid for g in release.groups
                      for m in g.members) == ["a", "b", "c", "d"]


def _tree(path):
    """Every file under a history directory, name -> bytes."""
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class _Crash(Exception):
    """A crash in the middle of a publish, injected at one write."""


class TestInterruptedFirstPublish:
    """A first publish stores meta.csv, then schema.json.  A history with no
    schema.json counts as new, so a crash between or at those writes leaves
    a history the next publish starts over, ending as an uninterrupted one
    would."""

    def _crash_at(self, workdir, monkeypatch, write):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist,
                "--m", "2", "--seed", "3"]

        def crash(self, *args):
            raise _Crash

        with monkeypatch.context() as patch:
            patch.setattr(HistoryStore, write, crash)
            with pytest.raises(_Crash):
                run(workdir, "publish", "--microdata", workdir / "t1.csv",
                    *base)
        left = sorted(p.name for p in hist.iterdir())
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   *base) == 0
        assert run(workdir, "verify", *base[:-2]) == 0
        clean = workdir / "clean"
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   *base[:3], clean, *base[4:]) == 0
        assert _tree(hist) == _tree(clean)
        return left

    def test_crash_at_the_schema_leaves_meta_only(self, workdir,
                                                  monkeypatch):
        assert self._crash_at(workdir, monkeypatch,
                              "write_schema") == ["meta.csv"]

    def test_crash_at_the_meta_leaves_no_schema(self, workdir, monkeypatch):
        assert self._crash_at(workdir, monkeypatch, "write_meta") == []


class TestInterruptedPublish:
    """A publish writes meta.csv (in a new history), schema.json (when new
    or grown), microdata_<i>.csv, counterfeits_<i>.csv and last
    release_<i>.csv, whose presence makes release i exist.  A crash at any
    one of those writes leaves a history that attack and verify read as
    before the publish, and rerunning the publish ends as an uninterrupted
    one would."""

    @staticmethod
    def _publish(workdir, hist, snapshot):
        return run(workdir, "publish", "--microdata", workdir / snapshot,
                   "--model", workdir / "model.csv", "--history", hist,
                   "--m", "2", "--seed", "3")

    @staticmethod
    def _audit(workdir, hist):
        """attack's and verify's exit codes and the risks.csv attack
        writes, run on a copy so that the history stays as it is."""
        copy = workdir / "audit"
        shutil.rmtree(copy, ignore_errors=True)
        if hist.exists():
            shutil.copytree(hist, copy)
        args = ["--history", copy, "--model", workdir / "model.csv"]
        codes = (run(workdir, "attack", *args),
                 run(workdir, "verify", *args, "--m", "2"))
        risks = copy / "risks.csv"
        return codes, risks.read_bytes() if risks.exists() else None

    @staticmethod
    def _crash_at(patch, k):
        """Count the history's writes, raising at the k-th; the list of
        their targets is returned."""
        writes = []

        def counted(real):
            def write(*args):
                writes.append(args[0])
                if len(writes) == k:
                    raise _Crash
                return real(*args)
            return write

        patch.setattr(fileio, "write_csv", counted(fileio.write_csv))
        patch.setattr(HistoryStore, "write_schema",
                      counted(HistoryStore.write_schema))
        return writes

    @pytest.mark.parametrize("earlier, snapshot, n_writes", [
        ((), "t1.csv", 5), (("t1.csv",), "t2.csv", 4)])
    def test_a_crash_at_any_write_leaves_the_history_as_it_was(
            self, workdir, monkeypatch, earlier, snapshot, n_writes):
        clean = workdir / "clean"
        for snap in earlier:
            assert self._publish(workdir, clean, snap) == 0
        with monkeypatch.context() as patch:
            writes = self._crash_at(patch, 0)
            assert self._publish(workdir, clean, snapshot) == 0
        # t2 widens the salary range, so its publish rewrites schema.json
        assert len(writes) == n_writes
        for k in range(1, n_writes + 1):
            hist = workdir / f"hist{k}"
            for snap in earlier:
                assert self._publish(workdir, hist, snap) == 0
            indices = HistoryStore(hist).release_indices()
            before = self._audit(workdir, hist)
            with monkeypatch.context() as patch:
                self._crash_at(patch, k)
                with pytest.raises(_Crash):
                    self._publish(workdir, hist, snapshot)
            assert HistoryStore(hist).release_indices() == indices, k
            assert self._audit(workdir, hist) == before, k
            assert self._publish(workdir, hist, snapshot) == 0
            assert _tree(hist) == _tree(clean), k


def _full_disk(room):
    """`open` on a disk with `room` characters left: a write past them
    stores what fits and fails with ENOSPC."""
    def full_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            write = fh.write

            def limited(text):
                nonlocal room
                if len(text) > room:
                    write(text[:room])
                    room = 0
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                room -= len(text)
                return write(text)

            fh.write = limited
        return fh
    return full_open


class TestFailedRewrite:
    def test_disk_full_while_widening_keeps_the_old_schema(
            self, workdir, monkeypatch, capsys):
        """T3 widens the age bound, so its publish rewrites schema.json
        first.  A disk that fills up during that write fails the publish
        and leaves every file as it was: the history still verifies, and
        the publish can be rerun."""
        write_csv(workdir / "t3.csv", [HEADER, *T3])
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        publish = ["publish", "--m", "2", "--seed", "3", *base,
                   "--microdata"]
        for snap in ("t1.csv", "t2.csv"):
            assert run(workdir, *publish, workdir / snap) == 0
        before = _tree(hist)
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(fileio, "open", _full_disk(20), raising=False)
            assert run(workdir, *publish, workdir / "t3.csv") == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {hist / 'schema.json'}: "
            f"{os.strerror(errno.ENOSPC)}\n")
        assert _tree(hist) == before
        assert run(workdir, "verify", "--m", "2", *base) == 0
        assert run(workdir, *publish, workdir / "t3.csv") == 0
        assert '"hi": 36' in (hist / "schema.json").read_text()


class TestParameterChecks:
    @pytest.mark.parametrize("m", ["0", "-3", "1"])
    def test_m_below_two_exits_two_and_writes_nothing(self, workdir, capsys,
                                                      m):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        for argv in (["publish", "--microdata", workdir / "t1.csv"],
                     ["baseline", "--kind", "minv", "--microdata",
                      workdir / "t1.csv"],
                     ["baseline", "--kind", "ldiv", "--microdata",
                      workdir / "t1.csv"]):
            assert run(workdir, *argv, "--m", m, *base) == 2
            assert f"--m must be at least 2, got {m}" in \
                capsys.readouterr().err
            assert not hist.exists()
        # an existing history stays as it was, and verify refuses too
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--m", "2", *base) == 0
        before = _tree(hist)
        assert run(workdir, "publish", "--microdata", workdir / "t2.csv",
                   "--m", m, *base) == 2
        assert run(workdir, "verify", "--m", m, *base) == 2
        assert "OK" not in capsys.readouterr().out
        assert _tree(hist) == before


GAP_MODEL = [["value", "successor", "probability"],
             ["a", "b", ""], ["a", "c", ""], ["b", "c", ""], ["c", "c", ""],
             ["x", "x", ""], ["x", "y", ""], ["y", "x", ""], ["y", "y", ""]]


class TestGappedHistories:
    """A record absent from a release between two appearances: {a, x} at
    release 1 and {b, y} at release 3 pass the one-step legality test, yet
    two steps of the model pin x -> y, so the history is refused."""

    @pytest.fixture
    def gapped(self, workdir):
        write_csv(workdir / "gap_model.csv", GAP_MODEL)
        snaps = {1: [["r1", "1", "a"], ["r2", "2", "x"]],
                 2: [["s1", "3", "c"], ["s2", "4", "y"]],
                 3: [["r1", "1", "b"], ["r2", "2", "y"]]}
        for i, rows in snaps.items():
            write_csv(workdir / f"g{i}.csv", [["id", "q", "s"], *rows])
        hist = workdir / "gap"
        base = ["--model", workdir / "gap_model.csv", "--history", hist,
                "--m", "2"]
        for i in (1, 2):
            assert run(workdir, "publish", "--microdata",
                       workdir / f"g{i}.csv", *base) == 0
        return hist, base

    def test_gapped_publish_exits_two_and_keeps_history(self, workdir,
                                                        gapped, capsys):
        hist, base = gapped
        capsys.readouterr()
        before = _tree(hist)
        assert run(workdir, "publish", "--microdata", workdir / "g3.csv",
                   *base) == 2
        err = capsys.readouterr().err
        assert ("record 'r1' last appeared in release 1 and returns in "
                "release 3") in err
        assert _tree(hist) == before
        assert HistoryStore(hist).release_indices() == [1, 2]

    def test_verify_flags_a_hand_made_gap(self, workdir, gapped, capsys):
        hist, base = gapped
        assert run(workdir, "verify", *base) == 0
        store = HistoryStore(hist)
        schema = store.read_schema()
        records = [Record("r1", (1,), "b"), Record("r2", (2,), "y")]
        store.write_release(generalize(schema, 3, [records]), schema)
        store.write_actuals(3, schema, records)
        capsys.readouterr()
        assert run(workdir, "verify", *base) == 2
        err = capsys.readouterr().err
        assert "release 3 group 1: 'r1' last appeared in release 1" in err
        assert "'r2' last appeared in release 1" in err


class TestStrayFiles:
    """Only <prefix>_<i>.csv, i in decimal without leading zeros, is a
    release or an external table: a copy saved beside one is not a second
    file number 1."""

    @pytest.fixture
    def one_release(self, workdir):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        assert run(workdir, "publish", "--microdata", workdir / "t1.csv",
                   "--m", "2", "--seed", "3", *base) == 0
        return hist, base

    @pytest.mark.parametrize("name", ["release_1_old.csv", "release_01.csv"])
    def test_verify_ignores_a_release_copy(self, workdir, one_release,
                                           capsys, name):
        hist, base = one_release
        shutil.copy(hist / "release_1.csv", hist / name)
        capsys.readouterr()
        assert run(workdir, "verify", "--m", "2", *base) == 0
        assert "OK: 1 releases satisfy 2-distinct" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["release_1_old.csv", "release_01.csv"])
    def test_publish_replays_each_release_once(self, workdir, one_release,
                                               monkeypatch, name):
        hist, base = one_release
        shutil.copy(hist / "release_1.csv", hist / name)
        read = []
        original = HistoryStore.read_release

        def counting(self, index, schema):
            read.append(index)
            return original(self, index, schema)

        monkeypatch.setattr(HistoryStore, "read_release", counting)
        assert run(workdir, "publish", "--microdata", workdir / "t2.csv",
                   "--m", "2", "--seed", "3", *base) == 0
        assert read == [1]
        assert HistoryStore(hist).release_indices() == [1, 2]

    def test_attack_reads_each_external_table_once(self, workdir,
                                                   one_release, monkeypatch,
                                                   capsys):
        hist, base = one_release
        et_dir = workdir / "et"
        et_dir.mkdir()
        write_csv(et_dir / "et_1.csv",
                  [["id", "salary", "age"], ["Ken", "14", "20"]])
        write_csv(et_dir / "et_1_old.csv",
                  [["id", "salary", "age"], ["Ken", "39", "39"]])
        parsed = []
        parse = fileio._read_qi_rows

        def counting(path, schema, tail=()):
            parsed.append(path.name)
            return parse(path, schema, tail)

        monkeypatch.setattr(fileio, "_read_qi_rows", counting)
        assert run(workdir, "attack", "--et", et_dir, *base) == 0
        assert sorted(parsed) == ["et_1.csv", "microdata_1.csv"]

    @pytest.mark.parametrize("names", [["et_7.csv"], ["et_0.csv"],
                                       ["et_1.csv", "et_2.csv"]])
    def test_attack_refuses_a_table_of_no_release(self, workdir, one_release,
                                                  capsys, names):
        hist, base = one_release
        et_dir = workdir / "et"
        et_dir.mkdir()
        for name in names:
            write_csv(et_dir / name,
                      [["id", "salary", "age"], ["Ken", "14", "20"]])
        index = names[-1][3:-4]
        capsys.readouterr()
        assert run(workdir, "attack", "--et", et_dir, *base) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: external table of release {index}: "
                              f"no release {index} in the history")
        assert not (hist / "risks.csv").exists()


class TestStoredReleases:
    """Every command reads each stored release whole before using it.  A
    gid, numeric region or sensitive value that `write_release` could not
    have written, or a real record listed in two groups, stops `publish`
    before it writes anything, and stops `verify` and `attack`."""

    @pytest.fixture
    def two_releases(self, workdir):
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        for snap in ("t1.csv", "t2.csv"):
            assert run(workdir, "publish", "--microdata", workdir / snap,
                       "--m", "2", "--seed", "3", *base) == 0
        return hist, base

    @pytest.mark.parametrize("column, text, message", [
        (2, "16..14", "bad salary region '16..14': lo > hi"),
        (2, "-5..99999", "bad salary region '-5..99999': outside 12..31"),
        (2, "+14..1_6", "bad salary region '+14..1_6': not lo..hi in "
                        "decimal"),
        (2, "14..16..18", "bad salary region '14..16..18': not lo..hi in "
                          "decimal"),
        (0, "0_1", "bad gid '0_1'"),
    ])
    def test_malformed_integer_text_exits_two(self, workdir, two_releases,
                                              capsys, column, text,
                                              message):
        hist, base = two_releases
        path = hist / "release_1.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows[1:]:
            if row[0] == rows[1][0]:  # every row of the first group
                row[column] = text
        write_csv(path, rows)
        self._refused_by_every_command(workdir, base, capsys,
                                       f"{path} line 2: {message}")

    def test_sensitive_value_outside_the_domain_exits_two(
            self, workdir, two_releases, capsys):
        hist, base = two_releases
        path = hist / "release_1.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[2][-2] = "Zzz"
        write_csv(path, rows)
        self._refused_by_every_command(
            workdir, base, capsys,
            f"{path} line 3: sensitive value 'Zzz' outside domain")

    def test_release_with_no_rows_exits_two(self, workdir, two_releases,
                                            capsys):
        """No publisher writes an empty release, so a release file cut
        down to its header is refused, not read as a release that
        publishes nobody."""
        hist, base = two_releases
        path = hist / "release_2.csv"
        write_csv(path, [path.read_text().splitlines()[0].split(",")])
        self._refused_by_every_command(workdir, base, capsys,
                                       f"{path}: no groups")

    @pytest.mark.parametrize("change, name, what", [
        ("delete", "release_2.csv", "missing"),
        ("add", "release_0.csv", "unexpected")])
    def test_releases_not_numbered_from_one_exit_two(
            self, workdir, two_releases, capsys, change, name, what):
        """Every command reads release i as the one after release i - 1,
        so a history whose release files are not numbered 1..n is neither
        attacked, verified nor extended."""
        hist, base = two_releases
        assert run(workdir, "publish", "--microdata", workdir / "t2.csv",
                   "--m", "2", "--seed", "3", *base) == 0
        if change == "delete":
            (hist / name).unlink()
        else:
            shutil.copy(hist / "release_1.csv", hist / name)
        self._refused_by_every_command(
            workdir, base, capsys,
            f"history {hist}: {name} is {what}; releases are numbered 1..n")

    @staticmethod
    def _refused_by_every_command(workdir, base, capsys, message):
        """publish, verify and attack each exit 2 with `message` and leave
        the history as it was."""
        hist = base[-1]
        before = _tree(hist)
        capsys.readouterr()
        for argv in (["publish", "--microdata", workdir / "t2.csv",
                      "--seed", "3", "--m", "2"],
                     ["verify", "--m", "2"], ["attack"]):
            assert run(workdir, *argv, *base) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert _tree(hist) == before

    def test_publish_refuses_a_record_in_two_groups(self, workdir,
                                                    two_releases, capsys):
        hist, base = two_releases
        path = hist / "release_1.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        first = rows[1]
        other = next(row for row in rows[2:] if row[0] != first[0])
        other[1] = first[1]
        write_csv(path, rows)
        message = f"release 1: id {first[1]!r} appears in two groups"
        before = _tree(hist)
        capsys.readouterr()
        assert run(workdir, "publish", "--microdata", workdir / "t2.csv",
                   "--seed", "3", "--m", "2", *base) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _tree(hist) == before
        assert run(workdir, "attack", *base) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # verify reports it among the violations, not as an error
        assert run(workdir, "verify", "--m", "2", *base) == 2
        assert f"\n{message}\n" in "\n" + capsys.readouterr().err

    def test_each_command_reads_each_release_once(self, workdir,
                                                  monkeypatch):
        """Each publish replays every earlier release, and attack and
        verify read the whole history once each: 4*3/2 + 2*4 = 14 reads
        for four releases, the identity perfbench's traced
        fileio.read_release.calls rests on."""
        read = []
        original = HistoryStore.read_release

        def counting(self, index, schema):
            read.append(index)
            return original(self, index, schema)

        monkeypatch.setattr(HistoryStore, "read_release", counting)
        hist = workdir / "hist"
        base = ["--model", workdir / "model.csv", "--history", hist]
        for snap in ("t1.csv", "t2.csv", "t2.csv", "t2.csv"):
            assert run(workdir, "publish", "--microdata", workdir / snap,
                       "--m", "2", "--seed", "3", *base) == 0
        assert run(workdir, "attack", *base) == 0
        assert run(workdir, "verify", "--m", "2", *base) == 0
        assert read == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4, 1, 2, 3, 4]


class TestBaselineCommands:
    def test_ldiv_publishes_numbered_releases(self, workdir, capsys):
        hist = workdir / "ldiv"
        base = ["--model", workdir / "model.csv", "--history", hist,
                "--m", "2"]
        assert run(workdir, "baseline", "--kind", "ldiv", "--microdata",
                   workdir / "t1.csv", *base) == 0
        assert "release 1 (ldiv)" in capsys.readouterr().out
        assert run(workdir, "baseline", "--kind", "ldiv", "--microdata",
                   workdir / "t2.csv", *base) == 0
        assert "release 2 (ldiv)" in capsys.readouterr().out

    def test_ldiv_infeasible_snapshot_exits_three(self, workdir, capsys):
        clones = workdir / "clones.csv"
        write_csv(clones, [["id", "salary", "age", "disease"]]
                  + [[f"r{i}", str(20 + i), "20", "Flu"] for i in range(4)])
        code = run(workdir, "baseline", "--kind", "ldiv", "--microdata",
                   clones, "--model", workdir / "model.csv", "--history",
                   workdir / "ldiv2", "--m", "2")
        assert code == 3
        assert "not m-eligible" in capsys.readouterr().err

    MINV_LINES = [
        "release 1 (minv): 3 groups, 0 counterfeits, 0 invalidated this "
        "release (0 cumulative)",
        "release 2 (minv): 4 groups, 3 counterfeits, 3 invalidated this "
        "release (3 cumulative)",
        "release 3 (minv): 5 groups, 6 counterfeits, 3 invalidated this "
        "release (6 cumulative)",
        "release 4 (minv): 5 groups, 6 counterfeits, 3 invalidated this "
        "release (9 cumulative)"]

    def _four_snapshots(self, workdir):
        write_csv(workdir / "t3.csv", [HEADER, *T3])
        write_csv(workdir / "t4.csv", [HEADER, *T4])
        return ["t1.csv", "t2.csv", "t3.csv", "t4.csv"]

    def test_minv_reports_cumulative_invalidations(self, workdir, capsys):
        """Four releases print the totals a count stored in meta.csv used
        to give; replay rebuilds them, and meta.csv holds no count."""
        hist = workdir / "minv"
        base = ["--model", workdir / "model.csv", "--history", hist,
                "--m", "2", "--seed", "5"]
        for snap, line in zip(self._four_snapshots(workdir),
                              self.MINV_LINES):
            assert run(workdir, "baseline", "--kind", "minv",
                       "--microdata", workdir / snap, *base) == 0
            assert capsys.readouterr().out == line + "\n"
        assert "invalidated_total" not in (hist / "meta.csv").read_text()

    def test_minv_history_with_a_stored_total_keeps_publishing(self, workdir,
                                                               capsys):
        """A history written when meta.csv kept the count: the stored value
        is ignored and left as it is."""
        hist = workdir / "minv"
        base = ["--model", workdir / "model.csv", "--history", hist,
                "--m", "2", "--seed", "5"]
        snaps = self._four_snapshots(workdir)
        for snap in snaps[:2]:
            assert run(workdir, "baseline", "--kind", "minv",
                       "--microdata", workdir / snap, *base) == 0
        old_meta = [["key", "value"], ["invalidated_total", "99"], ["m", "2"],
                    ["mode", "baseline_minv"], ["seed", "5"]]
        write_csv(hist / "meta.csv", old_meta)
        capsys.readouterr()
        for snap, line in zip(snaps[2:], self.MINV_LINES[2:]):
            assert run(workdir, "baseline", "--kind", "minv",
                       "--microdata", workdir / snap, *base) == 0
            assert capsys.readouterr().out == line + "\n"
        assert (hist / "meta.csv").read_text() == \
            "".join(",".join(row) + "\n" for row in old_meta)

    def test_minv_refuses_a_record_in_two_groups(self, workdir, capsys):
        hist = workdir / "minv"
        base = ["--model", workdir / "model.csv", "--history", hist,
                "--m", "2", "--seed", "5"]
        assert run(workdir, "baseline", "--kind", "minv", "--microdata",
                   workdir / "t1.csv", *base) == 0
        path = hist / "release_1.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        other = next(row for row in rows[2:] if row[0] != rows[1][0])
        other[1] = rows[1][1]
        write_csv(path, rows)
        before = _tree(hist)
        capsys.readouterr()
        assert run(workdir, "baseline", "--kind", "minv", "--microdata",
                   workdir / "t2.csv", *base) == 2
        assert capsys.readouterr().err == (
            f"error: release 1: id {rows[1][1]!r} appears in two groups\n")
        assert _tree(hist) == before

    def test_baseline_history_never_mixes_with_engine(self, workdir, capsys):
        hist = workdir / "hist"
        run(workdir, "publish", "--microdata", workdir / "t1.csv",
            "--model", workdir / "model.csv", "--history", hist, "--m", "2")
        capsys.readouterr()
        code = run(workdir, "baseline", "--kind", "ldiv", "--microdata",
                   workdir / "t2.csv", "--model", workdir / "model.csv",
                   "--history", hist, "--m", "2")
        assert code == 2
        assert "mode=m_distinct" in capsys.readouterr().err


class TestSimulate:
    CONFIG = dict(publisher="m_distinct", m=2, d=5, n_records=40,
                  n_releases=2, inserts=6, deletes=3, internal_updates=8,
                  thetas=[0.5], n_queries=30, seed=11, sensitive_size=10)

    def _write_config(self, path, out_dir):
        path.write_text(json.dumps({**self.CONFIG, "out_dir": str(out_dir)}))

    def test_writes_reports_and_exits_zero(self, workdir, capsys):
        config = workdir / "config.json"
        out_dir = workdir / "out"
        self._write_config(config, out_dir)
        assert run(workdir, "simulate", "--config", config) == 0
        out = capsys.readouterr().out
        assert "median relative error" in out
        assert "verify passed" in out
        for name in ("report.csv", "summary.csv", "timings.csv"):
            assert (out_dir / name).exists()

    def test_zero_releases_say_nothing_was_published(self, workdir, capsys):
        config = workdir / "config.json"
        out_dir = workdir / "out"
        config.write_text(json.dumps({**self.CONFIG, "n_releases": 0,
                                      "out_dir": str(out_dir)}))
        assert run(workdir, "simulate", "--config", config) == 0
        assert capsys.readouterr().out == (
            f"theta=0.5: no queries evaluated\n"
            f"nothing published (n_releases is 0); report in {out_dir}\n")
        summary = (out_dir / "summary.csv").read_text()
        assert "verify_ok,0\n" in summary

    def test_reruns_are_byte_identical(self, workdir):
        config = workdir / "config.json"
        self._write_config(config, workdir / "out1")
        run(workdir, "simulate", "--config", config)
        self._write_config(config, workdir / "out2")
        run(workdir, "simulate", "--config", config)
        for name in ("report.csv", "summary.csv"):
            assert (workdir / "out1" / name).read_bytes() == \
                (workdir / "out2" / name).read_bytes()

    @pytest.mark.parametrize("entry, message", [
        ({"thetas": 5}, 'thetas must be a list of numbers, got 5'),
        ({"thetas": "ab"}, 'thetas must be a list of numbers, got "ab"'),
        ({"thetas": [0.5, True]},
         'thetas must be a list of numbers, got [0.5, true]'),
        ({"n_records": 1.5}, 'n_records must be an integer, got 1.5'),
        ({"seed": "x"}, 'seed must be an integer, got "x"'),
        ({"m": "2"}, 'm must be an integer, got "2"'),
        ({"m": True}, 'm must be an integer, got true'),
        ({"publisher": 1}, 'publisher must be a string, got 1'),
        ({"out_dir": 5}, 'out_dir must be a string, got 5'),
    ])
    def test_mistyped_config_exits_two(self, workdir, capsys, entry,
                                       message):
        config = workdir / "config.json"
        out_dir = workdir / "out"
        config.write_text(json.dumps({**self.CONFIG, "out_dir": str(out_dir),
                                      **entry}))
        assert run(workdir, "simulate", "--config", config) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("raw, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
        ("1e400", "inf"), ("-0.5", "-0.5")])
    def test_out_of_range_theta_exits_two(self, workdir, capsys, raw,
                                          shown):
        # Python's json reads all of these as floats; each made the query
        # generator raise
        config = workdir / "config.json"
        out_dir = workdir / "out"
        text = json.dumps({**self.CONFIG, "out_dir": str(out_dir)})
        config.write_text(text.replace('"thetas": [0.5]',
                                       f'"thetas": [0.5, {raw}]'))
        assert run(workdir, "simulate", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"error: thetas must be finite and non-negative, got "
            f"[0.5, {shown}]\n")
        assert not out_dir.exists()

    def test_huge_theta_is_the_full_axis(self, workdir, capsys):
        config = workdir / "config.json"
        config.write_text(json.dumps({**self.CONFIG, "thetas": [1e308],
                                      "out_dir": str(workdir / "out")}))
        assert run(workdir, "simulate", "--config", config) == 0
        assert "theta=1e+308: median relative error" in capsys.readouterr().out

    def test_out_dir_under_a_file_exits_two(self, workdir, capsys):
        config = workdir / "config.json"
        taken = workdir / "taken.csv"
        taken.write_text("not a directory\n")
        self._write_config(config, taken / "out")
        assert run(workdir, "simulate", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {taken / 'out'}: Not a directory\n")
        assert taken.read_text() == "not a directory\n"

    def test_bad_config_exits_two(self, workdir, capsys):
        config = workdir / "config.json"
        config.write_text('{"publisher": "mystery"}')
        assert run(workdir, "simulate", "--config", config) == 2
        assert "unknown publisher" in capsys.readouterr().err
