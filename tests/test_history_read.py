"""Reading a stored history against the straightforward implementation.

`reference_read_release` and `reference_apply` are `HistoryStore.read_release`
and `EngineState.apply` as they were before each distinct gid text and
each attribute's distinct region cell texts were parsed once per store, and
each distinct CUS multiset built once per state.  The properties below require both forms to
give equal releases and states, and the same error on a corrupted file.
There are two departures.  The first is the rule for integers: a gid and
both ends of a numeric region must be plain decimal (an optional leading
"-"), and a region must satisfy lo <= hi inside its attribute's bounds.
The reference took anything `int` reads and any order; the departure tests
below name what it let through.  The second: every row's sensitive value,
counterfeit rows included, must lie in the schema's sensitive domain,
which the reference did not check.  Region and node errors now also carry
the file and line, which the reference left off.
"""

import csv
import io
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mdistinct import cli, engine, fileio
from mdistinct.baselines import MInvarianceState
from mdistinct.engine import EngineState, PrevInfo
from mdistinct.errors import ValidationError
from mdistinct.fileio import HistoryStore, load_update_model, write_csv
from mdistinct.model import (AttributeSchema, CounterfeitMember, Hierarchy,
                             Member, PublishedRelease, QIGroup, Record,
                             TableSchema, generalize)
from mdistinct.updates import UpdateModel, uss_of

from conftest import HEADER, T3, T4
from test_publisher_kernel import block_models, closed_models

# ---------------------------------------------------------------------------
# the reference forms, as they were before the per-call memos


def _reference_cell(attr, text):
    if attr.kind == "numeric":
        lo, _, hi = text.partition("..")
        try:
            return (int(lo), int(hi))
        except ValueError:
            raise ValidationError(f"bad numeric region {text!r}") from None
    if text not in attr.hierarchy:
        raise ValidationError(f"unknown {attr.name} node {text!r}")
    return text


def reference_read_release(store, index, schema):
    path = store.path / f"release_{index}.csv"
    rows = fileio._read_csv(path)
    expected = ["gid", "id", *schema.qi_names, schema.sensitive_name,
                "is_counterfeit"]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    if rows[0] != expected:
        raise ValidationError(f"{path} line 1: header {rows[0]!r} does not "
                              f"match {expected!r}")
    groups: dict[int, tuple] = {}
    order: list[int] = []
    for lineno, row in enumerate(rows[1:], start=2):
        where = f"{path} line {lineno}: "
        if len(row) != len(expected):
            raise ValidationError(f"{where}expected {len(expected)} "
                                  f"fields, got {len(row)}")
        gid_text, rid, *rest = row
        cells_text, sensitive, cf = rest[:-2], rest[-2], rest[-1]
        try:
            gid = int(gid_text)
        except ValueError:
            raise ValidationError(f"{where}bad gid {gid_text!r}") from None
        if cf not in ("0", "1"):
            raise ValidationError(f"{where}is_counterfeit must be 0 or 1")
        region = tuple(_reference_cell(a, t)
                       for a, t in zip(schema.qi, cells_text))
        member = Member(rid, sensitive, cf == "1")
        if gid not in groups:
            groups[gid] = (region, [member])
            order.append(gid)
        else:
            if groups[gid][0] != region:
                raise ValidationError(f"{where}group {gid} region differs "
                                      f"between rows")
            groups[gid][1].append(member)
    return PublishedRelease(index, tuple(
        QIGroup(g, groups[g][0], tuple(groups[g][1]),
                tuple(m.sensitive for m in groups[g][1])) for g in order))


def reference_apply(state, release, model):
    for group in release.groups:
        sig = uss_of(group.values, model)
        for member in group.members:
            if not member.counterfeit:
                state.prev[member.rid] = PrevInfo(member.sensitive, sig,
                                                  release.release_index)
    state.release_count = release.release_index


# ---------------------------------------------------------------------------
# the integer rule, stated independently of fileio

DECIMAL = re.compile(r"-?[0-9]+")


def region_rule(attr, text):
    """Why the rule rejects a numeric region text, or None."""
    lo, sep, hi = text.partition("..")
    if not (sep and DECIMAL.fullmatch(lo) and DECIMAL.fullmatch(hi)):
        return "not lo..hi in decimal"
    if int(lo) > int(hi):
        return "lo > hi"
    if int(lo) < attr.lo or int(hi) > attr.hi:
        return f"outside {attr.lo}..{attr.hi}"
    return None


# ---------------------------------------------------------------------------
# releases

DOMAIN = tuple(f"v{i}" for i in range(6))
ATTRS = (
    AttributeSchema.numeric("age", 0, 30),
    AttributeSchema.categorical("place", Hierarchy(
        "anywhere", {"north": {"n1": None, "n2": None},
                     "south": ["s1", "s2", "s3"]})),
    AttributeSchema.numeric("shift", -5, 5),
    AttributeSchema.categorical("sex", Hierarchy.flat("any_sex",
                                                      ["f", "m"])),
)


def _nodes(attr):
    return sorted(attr.hierarchy._span)


@st.composite
def _cell(draw, attr):
    if attr.kind == "numeric":
        lo, hi = sorted(draw(st.lists(st.integers(attr.lo, attr.hi),
                                      min_size=2, max_size=2)))
        return (lo, hi)
    return draw(st.sampled_from(_nodes(attr)))


@st.composite
def releases(draw):
    """A schema and a release of 1-12 groups with 1-6 members each,
    counterfeits among them.  Each attribute's cells come from a pool of
    1-3, so regions repeat whole or in part across groups; gids are
    distinct but neither consecutive nor sorted."""
    attrs = draw(st.lists(st.sampled_from(ATTRS), min_size=1, max_size=4,
                          unique_by=lambda a: a.name))
    schema = TableSchema(tuple(attrs), "s", DOMAIN)
    pools = [draw(st.lists(_cell(a), min_size=1, max_size=3))
             for a in attrs]
    n = draw(st.integers(1, 12))
    gids = draw(st.lists(st.integers(-3, 40), min_size=n, max_size=n,
                         unique=True))
    groups, counterfeits, real = [], 0, 0
    for gid in gids:
        region = tuple(draw(st.sampled_from(pool)) for pool in pools)
        members = []
        for fake in draw(st.lists(st.booleans(), min_size=1, max_size=6)):
            value = draw(st.sampled_from(DOMAIN))
            if fake:
                counterfeits += 1
                members.append(Member(f"c{counterfeits}", value, True))
            else:
                real += 1
                members.append(Member(f"r{real}", value))
        groups.append(QIGroup(gid, region, tuple(members),
                              tuple(m.sensitive for m in members)))
    return schema, PublishedRelease(draw(st.integers(1, 9)), tuple(groups))


def _shuffle(path, draw):
    """Put the body rows of a written release in a drawn order, so that a
    group's rows need not be adjacent; returns the rows."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    rows[1:] = draw(st.permutations(rows[1:]))
    write_csv(path, rows)
    return rows


def _outcome(read, store, index, schema):
    try:
        return read(store, index, schema)
    except ValidationError as exc:
        return str(exc)


FIELD_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\r\n"), max_size=6),
    # numeric-looking: signs, spaces, underscores, extra or missing ".."
    st.from_regex(r"[-+ ]?[0-9_]{0,3}(\.\.[-+ ]?[0-9_]{0,3}){0,2}",
                  fullmatch=True),
    st.sampled_from(["0", "1", "01", "1_0", " 1", "+1", "-0", "٣",
                     "5..2", "-9..0", "0..31", "07..09", *_nodes(ATTRS[1]),
                     *_nodes(ATTRS[3])]),
)


@st.composite
def corruptions(draw, rows):
    """rows with one field replaced, or one row a field longer or shorter;
    also returns the 0-based (row, column) of a replaced field, or None."""
    rows = [list(r) for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    if draw(st.integers(0, 4)) == 0:
        if draw(st.booleans()) or len(rows[i]) == 1:
            rows[i].append(draw(FIELD_TEXT))
        else:
            rows[i].pop(draw(st.integers(0, len(rows[i]) - 1)))
        return rows, None
    j = draw(st.integers(0, len(rows[i]) - 1))
    choices = [FIELD_TEXT]
    if len(rows) > 2:  # another row's text in the same column
        choices.append(st.sampled_from([r[j] for r in rows[1:]]))
    rows[i][j] = draw(st.one_of(*choices))
    return rows, (i, j)


@settings(max_examples=400, deadline=None)
@given(releases(), st.data())
def test_parser_matches_reference(case, data):
    """In written order the rows give back the release; in any order both
    parsers give the same one."""
    schema, release = case
    index = release.release_index
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(tmp)
        store.write_release(release, schema)
        assert store.read_release(index, schema) == release
        _shuffle(store.path / f"release_{index}.csv", data.draw)
        assert store.read_release(index, schema) == \
            reference_read_release(store, index, schema)


@settings(max_examples=400, deadline=None)
@given(releases(), st.data())
def test_corrupted_release_fails_like_reference(case, data):
    """One field replaced, or one row a field longer or shorter: both
    parsers give the same release or the same error, except where the
    integer rule rejects the replacing text, a sensitive value leaves the
    domain or the reference left the file and line off a cell error."""
    schema, release = case
    index = release.release_index
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(tmp)
        store.write_release(release, schema)
        path = store.path / f"release_{index}.csv"
        broken, at = data.draw(corruptions(_shuffle(path, data.draw)))
        write_csv(path, broken)
        new = _outcome(HistoryStore.read_release, store, index, schema)
        ref = _outcome(reference_read_release, store, index, schema)
    if at is not None and at[0] > 0 and at[1] == len(broken[at[0]]) - 2:
        # a replaced sensitive value, which the reference never checked
        text = broken[at[0]][at[1]]
        if text in schema.sensitive_domain:
            assert new == ref
        else:
            assert new == f"{path} line {at[0] + 1}: sensitive value " \
                          f"{text!r} outside domain"
        return
    if new == ref:
        return
    # only a replaced gid or region cell of a body row can part the two,
    # and the parser stops at that row
    assert at is not None and at[0] > 0, (new, ref)
    i, j = at
    text = broken[i][j]
    where = f"{path} line {i + 1}: "
    if j == 0:
        assert not DECIMAL.fullmatch(text)
        assert new == f"{where}bad gid {text!r}"
        return
    attr = schema.qi[j - 2]
    if attr.kind == "categorical":
        assert ref == f"unknown {attr.name} node {text!r}"
        assert new == where + ref
        return
    why = region_rule(attr, text)
    assert why is not None, (text, new, ref)
    assert new == f"{where}bad {attr.name} region {text!r}: {why}"


def test_departures_from_the_reference(tmp_path):
    """What the reference let through: a signed, underscored or inverted
    region, one outside the attribute's bounds, and an underscored gid."""
    age = ATTRS[0]
    schema = TableSchema((age,), "s", DOMAIN)
    header = ["gid", "id", "age", "s", "is_counterfeit"]
    store = HistoryStore(tmp_path)
    cases = [("+3..4", "not lo..hi in decimal"),
             ("3..1_4", "not lo..hi in decimal"),
             ("9..4", "lo > hi"),
             ("-1..4", "outside 0..30"),
             ("3..31", "outside 0..30")]
    for cell, why in cases:
        write_csv(tmp_path / "release_1.csv",
                  [header, ["1", "a", cell, "v1", "0"]])
        assert isinstance(reference_read_release(store, 1, schema),
                          PublishedRelease)
        assert _outcome(HistoryStore.read_release, store, 1, schema) == \
            f"{tmp_path / 'release_1.csv'} line 2: bad age region " \
            f"{cell!r}: {why}"
    write_csv(tmp_path / "release_1.csv",
              [header, ["1_0", "a", "3..4", "v1", "0"]])
    assert reference_read_release(store, 1, schema).groups[0].gid == 10
    assert _outcome(HistoryStore.read_release, store, 1, schema) == \
        f"{tmp_path / 'release_1.csv'} line 2: bad gid '1_0'"


def _parse_counts(store, indices, schema):
    """The releases a store reads, and how many `_decimal` and
    `_cell_from_text` calls the reads made."""
    with mock.patch.object(fileio, "_decimal",
                           wraps=fileio._decimal) as dec, \
            mock.patch.object(fileio, "_cell_from_text",
                              wraps=fileio._cell_from_text) as cell:
        releases = [store.read_release(i, schema) for i in indices]
    return releases, dec.call_count, cell.call_count


def test_each_distinct_text_is_parsed_once(tmp_path):
    """Three groups over two region texts, in rows that interleave: the
    gid texts are parsed once each and each attribute's distinct cell
    texts once, so the age text both regions share is parsed once.  The
    memos live as long as the store: a second release read through it
    parses only the texts the first did not hold, and a new store parses
    them all again."""
    schema = TableSchema((ATTRS[0], ATTRS[1]), "s", DOMAIN)
    header = ["gid", "id", "age", "place", "s", "is_counterfeit"]
    body = [["1", "a", "1..4", "north", "v1", "0"],
            ["2", "b", "1..4", "south", "v2", "0"],
            ["1", "c", "1..4", "north", "v3", "0"],
            ["3", "d", "1..4", "north", "v1", "0"],
            ["2", "c1", "1..4", "south", "v4", "1"],
            ["3", "e", "1..4", "north", "v5", "0"]]
    write_csv(tmp_path / "release_1.csv", [header, *body])
    # gids 2 and 3 and the "1..4" and "south" cells again; gid 4 and the
    # "2..4" cell are new
    write_csv(tmp_path / "release_2.csv",
              [header, ["3", "a", "1..4", "south", "v1", "0"],
               ["4", "b", "2..4", "south", "v2", "0"],
               ["2", "c", "1..4", "south", "v3", "0"]])
    store = HistoryStore(tmp_path)
    (release,), dec, cell = _parse_counts(store, [1], schema)
    assert release == reference_read_release(store, 1, schema)
    # 3 gid texts, then lo and hi of the one age text
    assert dec == 3 + 2
    # "1..4", "north" and "south"
    assert cell == 3
    assert [g.gid for g in release.groups] == [1, 2, 3]
    (second,), dec, cell = _parse_counts(store, [2], schema)
    assert second == reference_read_release(store, 2, schema)
    # gid 4, then lo and hi of "2..4"
    assert (dec, cell) == (1 + 2, 1)
    fresh, dec, cell = _parse_counts(HistoryStore(tmp_path), [1, 2], schema)
    assert fresh == [release, second]
    assert (dec, cell) == (3 + 2 + 1 + 2, 3 + 1)


def test_rows_that_spell_a_group_differently_are_one_group(tmp_path):
    """A group whose rows spell its gid as "1" and "01" and its region as
    "0..4" and "-0..4": the texts differ, the parsed values do not, so the
    rows are one group, as the reference reads them."""
    schema = TableSchema((ATTRS[0], ATTRS[1]), "s", DOMAIN)
    header = ["gid", "id", "age", "place", "s", "is_counterfeit"]
    body = [["1", "a", "0..4", "north", "v1", "0"],
            ["01", "b", "-0..4", "north", "v2", "0"],
            ["1", "c", "-0..4", "north", "v3", "1"]]
    write_csv(tmp_path / "release_1.csv", [header, *body])
    store = HistoryStore(tmp_path)
    release = store.read_release(1, schema)
    assert release == reference_read_release(store, 1, schema)
    assert release == PublishedRelease(1, (QIGroup(
        1, ((0, 4), "north"),
        (Member("a", "v1"), Member("b", "v2"), Member("c", "v3", True)),
        ("v1", "v2", "v3")),))


# ---------------------------------------------------------------------------
# the fold


@st.composite
def histories(draw, model):
    """1-3 releases of groups of 1-6 members drawn from a pool of 8 ids,
    so records return, skip releases and may even sit in two groups of one
    release.  A group's values are often a permutation of an earlier
    group's, so equal CUS multisets come in different orders."""
    domain = sorted(model.cus)
    out = []
    for index in range(1, draw(st.integers(1, 3)) + 1):
        groups, fakes = [], 0
        earlier: list[list[str]] = []
        for gid in range(1, draw(st.integers(1, 8)) + 1):
            if earlier and draw(st.booleans()):
                values = draw(st.permutations(draw(st.sampled_from(earlier))))
            else:
                values = draw(st.lists(st.sampled_from(domain), min_size=1,
                                       max_size=6))
            earlier.append(list(values))
            members = []
            for value in values:
                if draw(st.integers(0, 3)) == 0:
                    fakes += 1
                    members.append(Member(f"c{fakes}", value, True))
                else:
                    rid = f"r{draw(st.integers(0, 7))}"
                    members.append(Member(rid, value))
            groups.append(QIGroup(gid, ((0, 0),), tuple(members),
                                  tuple(values)))
        out.append(PublishedRelease(index, tuple(groups)))
    return out


@settings(max_examples=300, deadline=None)
@given(st.one_of(block_models(), closed_models()).flatmap(
    lambda model: st.tuples(st.just(model), histories(model))))
def test_fold_matches_reference(case):
    model, history = case
    state, reference = EngineState(2), EngineState(2)
    seen = set()
    for release in history:
        with mock.patch.object(engine, "uss_of", wraps=uss_of) as built:
            state.apply(release, model)
        # a signature is built only for a key new to the state
        keys = {uss_of(g.values, model).key for g in release.groups}
        assert built.call_count == len(keys - seen)
        seen |= keys
        reference_apply(reference, release, model)
        assert state.prev == reference.prev
        assert state.release_count == reference.release_count


class _SameHash(str):
    """A value whose hash ties with every other, so that a set of such
    values iterates in the order they were added."""

    def __hash__(self):
        return 0


def test_equal_cus_sets_in_any_order_share_one_signature():
    """Two values whose CUS sets are equal but iterate in different orders:
    their one-member groups have the same signature, built once."""
    a, b = _SameHash("a"), _SameHash("b")
    model = UpdateModel.uniform({a: [a, b], b: [b, a]})
    assert list(model.cus_of(a)) != list(model.cus_of(b))
    release = PublishedRelease(1, (
        QIGroup(1, ((0, 0),), (Member("r1", a),), (a,)),
        QIGroup(2, ((0, 0),), (Member("r2", b),), (b,))))
    state = EngineState(2)
    with mock.patch.object(engine, "uss_of", wraps=uss_of) as built:
        state.apply(release, model)
    assert built.call_count == 1
    assert state.prev["r1"].signature is state.prev["r2"].signature


# ---------------------------------------------------------------------------
# stored values and the replay of a written history


def _stores_its_values(release):
    return all(g.values == tuple(m.sensitive for m in g.members)
               for g in release.groups)


@settings(max_examples=200, deadline=None)
@given(releases(), st.data())
def test_read_groups_store_their_members_values(case, data):
    """Whatever order a group's rows come in, its values follow its
    members."""
    schema, release = case
    index = release.release_index
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(tmp)
        store.write_release(release, schema)
        _shuffle(store.path / f"release_{index}.csv", data.draw)
        assert _stores_its_values(store.read_release(index, schema))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.booleans(), st.sampled_from(DOMAIN)),
                         min_size=1, max_size=6), min_size=1, max_size=8))
def test_generalized_groups_store_their_members_values(shape):
    """Real members sorted by id, then counterfeits by value: the values
    come in that order too.  A group's first member is real."""
    schema = TableSchema((ATTRS[0],), "s", DOMAIN)
    groups = [[Record(f"r{g}.{9 - k}", (k,), value) if real or k == 0
               else CounterfeitMember(value)
               for k, (real, value) in enumerate(members)]
              for g, members in enumerate(shape)]
    release = generalize(schema, 1, groups)
    assert _stores_its_values(release)
    assert [sorted(g.values) for g in release.groups] == [
        sorted(m.sensitive for m in group) for group in groups]


@pytest.mark.parametrize("kind", ["m_distinct", "minv"])
def test_replay_of_a_written_history_matches_the_fold(tmp_path, data_dir,
                                                      monkeypatch, kind):
    """Folding the releases `publish` made in memory gives the state that
    `replay_state` rebuilds from the files the CLI wrote, and each publish
    reads its snapshot once."""
    snapshots = [data_dir / "microdata_t1.csv", data_dir / "microdata_t2.csv",
                 tmp_path / "t3.csv", tmp_path / "t4.csv"]
    write_csv(snapshots[2], [HEADER, *T3])
    write_csv(snapshots[3], [HEADER, *T4])
    model_path = data_dir / "disease_transitions.csv"
    made = []
    name = "publish" if kind == "m_distinct" else "publish_m_invariance"
    real = getattr(cli, name)

    def keeping(*args, **kwargs):
        out = real(*args, **kwargs)
        made.append(out[0])
        return out

    monkeypatch.setattr(cli, name, keeping)
    read = []
    read_csv = fileio._read_csv

    def counting(path):
        read.append(str(path))
        return read_csv(path)

    monkeypatch.setattr(fileio, "_read_csv", counting)
    hist = tmp_path / "hist"
    command = ["publish"] if kind == "m_distinct" else [
        "baseline", "--kind", "minv"]
    for snap in snapshots:
        assert cli.main([*command, "--microdata", str(snap),
                         "--model", str(model_path), "--history", str(hist),
                         "--m", "2", "--seed", "3"]) == 0
    assert [r.release_index for r in made] == [1, 2, 3, 4]
    # one read of each snapshot gives its schema and its records
    assert [read.count(str(snap)) for snap in snapshots] == [1, 1, 1, 1]
    model = load_update_model(model_path)
    fresh = (lambda: EngineState(2)) if kind == "m_distinct" else (
        lambda: MInvarianceState(2))
    folded = fresh()
    for release in made:
        assert _stores_its_values(release)
        folded.apply(release, model)
    replayed = HistoryStore(hist).replay_state(fresh(), model)
    assert replayed == folded
    if kind == "m_distinct":
        assert replayed.prev == folded.prev
        assert replayed.signatures == folded.signatures
        assert len(folded.prev) == 6
    else:
        assert replayed.signatures == folded.signatures
        assert replayed.invalidated_total == folded.invalidated_total
