import json
import shutil

import pytest

from mdistinct import fileio
from mdistinct.cli import main
from mdistinct.fileio import HistoryStore, write_csv
from mdistinct.model import Record, generalize


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


def _tree(path):
    """Every file under a history directory, name -> bytes."""
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


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

    # later snapshots of the same six people: values move inside their CUS
    T3 = [["Ben", "27", "36", "LungCancer"],
          ["Harry", "24", "33", "Gastritis"],
          ["Julia", "19", "32", "LungCancer"],
          ["Ken", "15", "21", "Gastritis"], ["Lily", "13", "18", "Cataract"],
          ["Tom", "16", "28", "Pneumonia"]]
    T4 = [["Ben", "28", "37", "LungCancer"],
          ["Harry", "25", "34", "Dyspepsia"],
          ["Julia", "20", "33", "LungCancer"],
          ["Ken", "16", "22", "Dyspepsia"], ["Lily", "14", "19", "Cataract"],
          ["Tom", "17", "29", "LungCancer"]]
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
        header = ["id", "salary", "age", "disease"]
        write_csv(workdir / "t3.csv", [header, *self.T3])
        write_csv(workdir / "t4.csv", [header, *self.T4])
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

    def test_reruns_are_byte_identical(self, workdir):
        config = workdir / "config.json"
        self._write_config(config, workdir / "out1")
        run(workdir, "simulate", "--config", config)
        self._write_config(config, workdir / "out2")
        run(workdir, "simulate", "--config", config)
        for name in ("report.csv", "summary.csv"):
            assert (workdir / "out1" / name).read_bytes() == \
                (workdir / "out2" / name).read_bytes()

    def test_bad_config_exits_two(self, workdir, capsys):
        config = workdir / "config.json"
        config.write_text('{"publisher": "mystery"}')
        assert run(workdir, "simulate", "--config", config) == 2
        assert "unknown publisher" in capsys.readouterr().err
