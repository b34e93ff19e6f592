"""Reading a stored history against the straightforward implementation.

`reference_read_release` and `reference_apply` are `HistoryStore.read_release`
and `EngineState.apply` as they were before each distinct gid text, each
distinct tuple of region cell texts and each distinct CUS multiset was
parsed or built once per call.  The properties below require both forms to
give equal releases and states, and the same error on a corrupted file.
The one departure is the rule for integers: a gid and both ends of a
numeric region must be plain decimal (an optional leading "-"), and a
region must satisfy lo <= hi inside its attribute's bounds.  The reference
took anything `int` reads and any order; the departure tests below name
what it let through.  Region and node errors now also carry the file and
line, which the reference left off.
"""

import csv
import io
import re
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from mdistinct import engine, fileio
from mdistinct.engine import EngineState, PrevInfo
from mdistinct.errors import ValidationError
from mdistinct.fileio import HistoryStore, write_csv
from mdistinct.model import (AttributeSchema, Hierarchy, Member,
                             PublishedRelease, QIGroup, TableSchema)
from mdistinct.updates import UpdateModel, uss_of

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
    if not rows or rows[0] != expected:
        raise ValidationError(f"{path} line 1: bad header")
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
        QIGroup(g, groups[g][0], tuple(groups[g][1])) for g in order))


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
        groups.append(QIGroup(gid, region, tuple(members)))
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
    integer rule rejects the replacing text or the reference left the file
    and line off a cell error."""
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


def test_each_distinct_text_is_parsed_once(tmp_path):
    """Three groups over two region texts, in rows that interleave: the
    gid texts are parsed once each and each distinct tuple of cell texts
    once, cell by cell."""
    schema = TableSchema((ATTRS[0], ATTRS[1]), "s", DOMAIN)
    header = ["gid", "id", "age", "place", "s", "is_counterfeit"]
    body = [["1", "a", "1..4", "north", "v1", "0"],
            ["2", "b", "1..4", "south", "v2", "0"],
            ["1", "c", "1..4", "north", "v3", "0"],
            ["3", "d", "1..4", "north", "v1", "0"],
            ["2", "c1", "1..4", "south", "v4", "1"],
            ["3", "e", "1..4", "north", "v5", "0"]]
    write_csv(tmp_path / "release_1.csv", [header, *body])
    store = HistoryStore(tmp_path)
    with mock.patch.object(fileio, "_decimal",
                           wraps=fileio._decimal) as dec, \
            mock.patch.object(fileio, "_cell_from_text",
                              wraps=fileio._cell_from_text) as cell:
        release = store.read_release(1, schema)
    assert release == reference_read_release(store, 1, schema)
    # 3 gid texts, then lo and hi of the age cell in 2 distinct regions
    assert dec.call_count == 3 + 2 * 2
    assert cell.call_count == 2 * 2
    assert [g.gid for g in release.groups] == [1, 2, 3]


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
            groups.append(QIGroup(gid, ((0, 0),), tuple(members)))
        out.append(PublishedRelease(index, tuple(groups)))
    return out


@settings(max_examples=300, deadline=None)
@given(st.one_of(block_models(), closed_models()).flatmap(
    lambda model: st.tuples(st.just(model), histories(model))))
def test_fold_matches_reference(case):
    model, history = case
    state, reference = EngineState(2), EngineState(2)
    for release in history:
        with mock.patch.object(engine, "uss_of", wraps=uss_of) as built:
            state.apply(release, model)
        # the fold reads values from the members, never the cached property
        assert not any("values" in vars(g) for g in release.groups)
        assert built.call_count == len({uss_of(g.values, model)
                                        for g in release.groups})
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
    release = PublishedRelease(1, (QIGroup(1, ((0, 0),), (Member("r1", a),)),
                                   QIGroup(2, ((0, 0),), (Member("r2", b),))))
    state = EngineState(2)
    with mock.patch.object(engine, "uss_of", wraps=uss_of) as built:
        state.apply(release, model)
    assert built.call_count == 1
    assert state.prev["r1"].signature is state.prev["r2"].signature
