"""The CLI fails closed: a malformed input ends in exit code 1, 2 or 3,
never in an exception.

A history is built once: release 1 of a six-record table with a numeric
and a categorical QI column.  Each example copies it, breaks one input the
command reads and runs the command.  Every breaker below is malformed by
construction, so no drawn file can turn out valid again.  `publish` reads
the microdata, the model, `meta.csv`, `schema.json` and the stored
release; `verify` reads the model, `schema.json` and the release; `attack`
reads the model, `schema.json`, the release and the stored microdata
snapshot.  `verify` and `attack` never read `meta.csv`.  `verify` reports a
real record listed in two groups as a violation, not an error, so that one
breaker is not drawn for it.
"""

import contextlib
import csv
import io
import json
import re
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mdistinct.cli import main
from mdistinct.fileio import write_csv

T1 = [["id", "salary", "city", "disease"],
      ["Ben", "31", "north", "Flu"], ["Harry", "26", "south", "Gastritis"],
      ["Julia", "16", "north", "Pneumonia"],
      ["Ken", "14", "east", "Dyspepsia"], ["Lily", "29", "south", "Glaucoma"],
      ["Tom", "24", "east", "Pneumonia"]]
T2 = [T1[0],
      ["Ben", "26", "south", "Pneumonia"], ["Harry", "23", "east", "Dyspepsia"],
      ["Julia", "18", "north", "LungCancer"],
      ["Ken", "14", "east", "Dyspepsia"], ["Lily", "12", "north", "Glaucoma"],
      ["Tom", "15", "south", "Pneumonia"]]
DOMAIN = ("Cataract", "Dyspepsia", "Flu", "Gastritis", "Glaucoma",
          "LungCancer", "Pneumonia")
MODEL = [["value", "successor", "probability"],
         ["Cataract", "Cataract", "1"],
         ["Dyspepsia", "Dyspepsia", "1/2"], ["Dyspepsia", "Gastritis", "1/2"],
         ["Flu", "LungCancer", "1/2"], ["Flu", "Pneumonia", "1/2"],
         ["Gastritis", "Dyspepsia", "1/2"], ["Gastritis", "Gastritis", "1/2"],
         ["Glaucoma", "Cataract", "1/2"], ["Glaucoma", "Glaucoma", "1/2"],
         ["LungCancer", "LungCancer", "1"],
         ["Pneumonia", "LungCancer", "1/2"], ["Pneumonia", "Pneumonia", "1/2"]]

# line breaks drawn as often as any other character: a quoted field may
# hold one, and no loader accepts it
TEXT = st.text(st.one_of(st.sampled_from("\r\n"),
                         st.characters(blacklist_categories=("Cs",))),
               max_size=8)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False), TEXT)
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(TEXT, inner, max_size=3)), max_leaves=6)


def _csv_bytes(rows, end="\n") -> bytes:
    """rows as CSV; the writer quotes a field holding a line break, except
    a bare "\r" when `end` is "\n"."""
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerows(rows)
    return out.getvalue().encode()


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is_rational(text: str) -> bool:
    try:
        Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return False
    return True


# ---------------------------------------------------------------------------
# breakers shared by the CSV inputs


@st.composite
def wrong_field_count(draw, rows):
    """One row, the header included, cut short (down to a blank line) or
    given extra cells."""
    rows = [list(r) for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    width = len(rows[i])
    n = draw(st.integers(0, width + 3).filter(lambda n: n != width))
    rows[i] = (rows[i] + draw(st.lists(TEXT, min_size=n, max_size=n)))[:n]
    return _csv_bytes(rows)


@st.composite
def renamed_header(draw, rows):
    header = list(rows[0])
    j = draw(st.integers(0, len(header) - 1))
    header[j] = draw(TEXT.filter(lambda s: s != rows[0][j]))
    return _csv_bytes([header, *rows[1:]])


@st.composite
def bad_byte_in_header(draw, rows):
    """A NUL byte or a byte that is no UTF-8 inside the header line."""
    data = _csv_bytes(rows)
    at = draw(st.integers(0, data.index(b"\n")))
    return data[:at] + draw(st.sampled_from([b"\x00", b"\xff"])) + data[at:]


def _cell(draw, rows, column, value):
    """rows with one body row's `column` replaced by `value`."""
    rows = [list(r) for r in rows]
    rows[draw(st.integers(1, len(rows) - 1))][column] = value
    return _csv_bytes(rows)


def _body_row(draw, rows, op):
    """rows with one body row duplicated ("dup") or deleted ("del")."""
    rows = [list(r) for r in rows]
    i = draw(st.integers(1, len(rows) - 1))
    if op == "dup":
        rows.insert(i, list(rows[i]))
    else:
        del rows[i]
    return _csv_bytes(rows)


def csv_breakers(rows):
    return st.one_of(st.just(b""), wrong_field_count(rows),
                     renamed_header(rows), bad_byte_in_header(rows))


# ---------------------------------------------------------------------------
# per input


@st.composite
def broken_microdata(draw, rows):
    """A table for a history whose schema has integer salaries, cities
    from a fixed set and diseases from the model."""
    kind = draw(st.sampled_from(["csv", "salary", "city", "disease", "id",
                                 "line break", "header only"]))
    if kind == "csv":
        return draw(csv_breakers(rows))
    if kind == "line break":
        # any field, the id among them, quoted around a line break
        rows = [list(r) for r in rows]
        row = rows[draw(st.integers(1, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(TEXT) + draw(
            st.sampled_from(["\r", "\n", "\r\n"])) + draw(TEXT)
        return _csv_bytes(rows, end="\r\n")
    if kind == "salary":
        return _cell(draw, rows, 1, draw(TEXT.filter(lambda s: not _is_int(s))))
    if kind == "city":
        cities = {r[2] for r in rows[1:]}
        return _cell(draw, rows, 2, draw(TEXT.filter(lambda s: s not in cities)))
    if kind == "disease":
        return _cell(draw, rows, 3, draw(TEXT.filter(lambda s: s not in DOMAIN)))
    if kind == "id":
        rows = [list(r) for r in rows]
        i, j = draw(st.lists(st.integers(1, len(rows) - 1), min_size=2,
                             max_size=2, unique=True))
        rows[i][0] = rows[j][0]
        return _csv_bytes(rows)
    return _csv_bytes(rows[:1])


@st.composite
def broken_model(draw):
    kind = draw(st.sampled_from(["csv", "blank", "probability", "other",
                                 "successor", "dup", "del"]))
    if kind == "csv":
        return draw(csv_breakers(MODEL))
    if kind == "blank":
        return _cell(draw, MODEL, draw(st.integers(0, 1)), "")
    if kind == "probability":
        garbage = TEXT.filter(lambda s: s.strip() and not _is_rational(s))
        return _cell(draw, MODEL, 2, draw(garbage))
    if kind == "other":
        # every value's probabilities sum to 1, so any one changed breaks it
        rows = [list(r) for r in MODEL]
        i = draw(st.integers(1, len(rows) - 1))
        p = draw(st.fractions(-2, 2).filter(
            lambda p: p != Fraction(rows[i][2])))
        rows[i][2] = f"{p.numerator}/{p.denominator}"
        return _csv_bytes(rows)
    if kind == "successor":
        # a successor outside the domain has no transitions of its own
        return _cell(draw, MODEL, 1, draw(TEXT.filter(
            lambda s: s and s not in DOMAIN)))
    # a duplicate transition, or one value short of probability 1 (or, for
    # an absorbing value, a successor left without transitions)
    return _body_row(draw, MODEL, kind)


@st.composite
def broken_meta(draw, rows):
    """meta.csv of an m=2 m_distinct history."""
    kind = draw(st.sampled_from(["empty", "drop", "m", "other m", "mode",
                                 "fields", "byte"]))
    keys = [r[0] for r in rows]
    rows = [list(r) for r in rows]
    if kind == "empty":
        return b""
    if kind == "drop":
        del rows[keys.index(draw(st.sampled_from(["m", "mode"])))]
    elif kind == "m":
        rows[keys.index("m")][1] = draw(TEXT.filter(lambda s: not _is_int(s)))
    elif kind == "other m":
        rows[keys.index("m")][1] = str(draw(st.integers().filter(
            lambda m: m != 2)))
    elif kind == "mode":
        rows[keys.index("mode")][1] = draw(TEXT.filter(
            lambda s: s != "m_distinct"))
    elif kind == "fields":
        row = rows[draw(st.integers(1, len(rows) - 1))]
        if draw(st.booleans()):
            row.append(draw(TEXT))
        else:
            row.pop()
    else:
        data = _csv_bytes(rows)
        at = data.index(b"m,2\n") + 3
        return data[:at] + draw(st.sampled_from([b"\x00", b"\xff"])) + data[at:]
    return _csv_bytes(rows)


# snapshot_schema gives a text column a flat hierarchy under "any_<name>"
CITY_NODES = {"any_city", *(row[2] for row in T1[1:])}
SALARY_LO, SALARY_HI = 14, 31  # the bounds snapshot_schema takes from T1


def _salary_region(draw, rows, i):
    """A salary region text that the rule for stored regions rejects:
    inverted, outside the bounds, or with a sign, space or underscore that
    `int` would read."""
    kind = draw(st.sampled_from(["inverted", "outside", "sign"]))
    if kind == "inverted":
        lo, hi = sorted(draw(st.lists(st.integers(SALARY_LO, SALARY_HI),
                                      min_size=2, max_size=2, unique=True)))
        return f"{hi}..{lo}"
    if kind == "outside":
        if draw(st.booleans()):
            lo = draw(st.integers(-99, SALARY_LO - 1))
            hi = draw(st.integers(max(lo, 0), SALARY_HI))
        else:
            lo = draw(st.integers(SALARY_LO, SALARY_HI))
            hi = draw(st.integers(SALARY_HI + 1, 999))
        return f"{lo}..{hi}"
    ends = rows[i][2].split("..")
    k = draw(st.integers(0, 1))
    e = ends[k]
    ends[k] = draw(st.sampled_from([f"+{e}", f" {e}", f"{e} ",
                                    f"{e[0]}_{e[1:]}"]))
    return "..".join(ends)


@st.composite
def broken_release(draw, rows, duplicate_id=True):
    """release_1.csv of the base history (gid,id,salary,city,disease,
    is_counterfeit); every group has at least two rows."""
    kinds = ["csv", "gid", "counterfeit", "city", "salary", "differs"]
    if duplicate_id:
        kinds.append("duplicate id")
    kind = draw(st.sampled_from(kinds))
    if kind == "csv":
        return draw(csv_breakers(rows))
    if kind == "gid":
        return _cell(draw, rows, 0, draw(TEXT.filter(
            lambda s: not re.fullmatch(r"-?[0-9]+", s))))
    if kind == "counterfeit":
        return _cell(draw, rows, 5, draw(TEXT.filter(
            lambda s: s not in ("0", "1"))))
    if kind == "city":
        return _cell(draw, rows, 3, draw(TEXT.filter(
            lambda s: s not in CITY_NODES)))
    rows = [list(r) for r in rows]
    i = draw(st.integers(1, len(rows) - 1))
    if kind == "salary":
        rows[i][2] = _salary_region(draw, rows, i)
    elif kind == "differs":
        # a valid region other than the one the group's other rows hold
        lo, hi = draw(st.lists(st.integers(SALARY_LO, SALARY_HI),
                               min_size=2, max_size=2).map(sorted).filter(
            lambda r: f"{r[0]}..{r[1]}" != rows[i][2]))
        rows[i][2] = f"{lo}..{hi}"
    else:
        # a real record's id given to a real row of another group
        real = [r for r in rows[1:] if r[5] == "0"]
        a = draw(st.sampled_from(real))
        b = draw(st.sampled_from([r for r in real if r[0] != a[0]]))
        b[1] = a[1]
    return _csv_bytes(rows)


def _not_a(types):
    return JSON_VALUES.filter(lambda v: not (isinstance(v, types)
                                             and not isinstance(v, bool)))


@st.composite
def broken_schema(draw, text):
    """schema.json: cut short, a byte inserted, the wrong top-level type, a
    key dropped or a field of the wrong type."""
    data = json.loads(text)
    kind = draw(st.sampled_from(["cut", "byte", "top", "drop", "type",
                                 "bounds"]))
    if kind == "cut":
        return text[:draw(st.integers(0, text.rindex("}") - 1))].encode()
    if kind == "byte":
        raw = text.encode()
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + draw(st.sampled_from([b"\x00", b"\xff"])) + raw[at:]
    if kind == "top":
        return json.dumps(draw(_not_a(dict))).encode()
    attrs = {a["kind"]: a for a in data["qi"]}
    if kind == "bounds":
        num = attrs["numeric"]
        num["lo"] = num["hi"] + draw(st.integers(1, 10))
        return json.dumps(data).encode()
    fields = [(data, "qi", list), (data, "sensitive_name", str),
              (data, "sensitive_domain", list),
              (attrs["numeric"], "name", str),
              (attrs["numeric"], "kind", str), (attrs["numeric"], "lo", int),
              (attrs["numeric"], "hi", int),
              (attrs["categorical"], "root", str),
              (attrs["categorical"], "tree", dict)]
    owner, key, kind_of = draw(st.sampled_from(fields))
    if kind == "drop":
        del owner[key]
    elif key == "tree":
        # None is a one-leaf tree, and a list names leaves
        owner[key] = draw(JSON_VALUES.filter(
            lambda v: v is not None and not isinstance(v, (dict, list))))
    else:
        owner[key] = draw(_not_a(kind_of))
    return json.dumps(data).encode()


# ---------------------------------------------------------------------------
# the runs


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_csv(root / "t1.csv", T1)
    write_csv(root / "t2.csv", T2)
    write_csv(root / "model.csv", MODEL)
    assert _run(root, "publish", "--microdata", "t1.csv", "--m", "2")[0] == 0
    return root


def _run(root, command, *argv):
    """Exit code and stderr of one command on root's history; a file name
    in argv is taken from root."""
    err = io.StringIO()
    argv = [str(root / a) if a.endswith(".csv") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--model", str(root / "model.csv"),
                     "--history", str(root / "hist"), *argv])
    return code, err.getvalue()


def _fails_closed(base, target, data, command, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "w"
        shutil.copytree(base, root)
        (root / target).write_bytes(data)
        code, err = _run(root, command, *argv)
    assert code in (1, 2, 3), (target, data)
    assert err.startswith("error: "), err


def inputs(base, *names):
    hist = (base / "hist").resolve()
    options = {
        "microdata": st.tuples(st.just("t2.csv"), broken_microdata(T2)),
        "snapshot": st.tuples(st.just("hist/microdata_1.csv"),
                              broken_microdata(T1)),
        "model": st.tuples(st.just("model.csv"), broken_model()),
        "meta": st.tuples(st.just("hist/meta.csv"), broken_meta(
            list(csv.reader(io.StringIO((hist / "meta.csv").read_text()))))),
        "schema": st.tuples(st.just("hist/schema.json"), broken_schema(
            (hist / "schema.json").read_text())),
    }
    release = list(csv.reader(io.StringIO(
        (hist / "release_1.csv").read_text())))
    for name, duplicate_id in (("release", True),
                               ("release, no duplicate id", False)):
        options[name] = st.tuples(st.just("hist/release_1.csv"),
                                  broken_release(release, duplicate_id))
    return st.one_of(*(options[n] for n in names))


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def test_publish_fails_closed(base):
    @FUZZ
    @given(inputs(base, "microdata", "model", "meta", "schema", "release"))
    def check(case):
        _fails_closed(base, *case, "publish", "--microdata", "t2.csv",
                      "--m", "2")

    check()


def test_verify_fails_closed(base):
    @FUZZ
    @given(inputs(base, "model", "schema", "release, no duplicate id"))
    def check(case):
        _fails_closed(base, *case, "verify", "--m", "2")

    check()


def test_attack_fails_closed(base):
    @FUZZ
    @given(inputs(base, "snapshot", "model", "schema", "release"))
    def check(case):
        _fails_closed(base, *case, "attack")

    check()
