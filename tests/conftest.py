"""Shared fixtures: the six-patient disease example, its update models, and
the hand-checked releases used as golden attack inputs."""

from fractions import Fraction
from pathlib import Path

import pytest

from mdistinct.engine import _Extents, _point
from mdistinct.model import (AttributeSchema, Member, PublishedRelease,
                             QIGroup, Record, TableSchema)
from mdistinct.updates import UpdateModel

DATA = Path(__file__).parent / "data"

# later snapshots of data/microdata_t1.csv's and _t2.csv's six people:
# values move inside their CUS, and T3's ages reach 36, past the bound of
# 35 that t1 and t2 set
HEADER = ["id", "salary", "age", "disease"]
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

DISEASES = ("Cataract", "Dyspepsia", "Flu", "Gastritis", "Glaucoma",
            "LungCancer", "Pneumonia")

# one line per acceptance criterion, echoed after the test summary
acceptance_lines: list[str] = []


def layer_values(sug, i: int) -> tuple[str, ...]:
    """Values of a candidate graph's layer i (1-based)."""
    return tuple(n.value for n in sug.layers[i - 1])


def covers(uss, value: str) -> bool:
    """Whether some entry of a signature holds the value."""
    return any(value in e for e in uss.entries)


def span_extent(attr, lo: int, hi: int) -> int:
    """Points covered by the generalization of an index span [lo, hi],
    worked out from the hierarchy on every call: the oracle for the
    publisher's cached `engine._Extents`."""
    if attr.kind == "numeric":
        return hi - lo + 1
    return attr.hierarchy.leafcount(attr.hierarchy.covering_node(lo, hi))


def side_numerator(extents, cof) -> int:
    """One side's sum_j extent_j / parent_extent_j times prod(parent
    extents), cof[j] being prod(parent extents) // parent_extent_j: the
    numerator that the split sweep of phase 3 and the static partitioner
    carries for each side.  A split scores sum over its sides of |side|
    (real records) times that sum."""
    return sum(x * c for x, c in zip(extents, cof))


def add(bucket, rec, entry_index: int, schema) -> None:
    """Place one record in a bucket entry, as phase 2 does."""
    bucket._place(rec, entry_index, _point(schema.qi, rec),
                  _Extents(schema.qi))


def path_weights(fs) -> dict[tuple[str, ...], Fraction]:
    """Every first-to-last-layer path of a candidate graph, as its values,
    with its exact weight: the product of every node weight and every edge
    weight along it.  Values are unique within a layer, so they name the
    path."""
    paths: dict[tuple[str, ...], Fraction] = {}

    def walk(i, u, values, weight):
        node = fs.layers[i][u]
        values += (node.value,)
        weight *= node.weight
        if i == fs.depth - 1:
            paths[values] = weight
        else:
            for v, w in fs.out[i][u]:
                walk(i + 1, v, values, weight * w)

    for u in range(len(fs.layers[0])):
        walk(0, u, (), Fraction(1))
    return paths


@pytest.fixture(scope="session")
def criterion_log():
    return acceptance_lines.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def worked_model() -> UpdateModel:
    """Dyspepsia<->Gastritis, {Flu,Pneumonia}->{Pneumonia,LungCancer},
    Glaucoma->{Glaucoma,Cataract}; LungCancer and Cataract absorbing."""
    return UpdateModel.uniform({
        "Dyspepsia": {"Dyspepsia", "Gastritis"},
        "Gastritis": {"Dyspepsia", "Gastritis"},
        "Pneumonia": {"Pneumonia", "LungCancer"},
        "Flu": {"Pneumonia", "LungCancer"},
        "LungCancer": {"LungCancer"},
        "Glaucoma": {"Glaucoma", "Cataract"},
        "Cataract": {"Cataract"},
    }, DISEASES)


@pytest.fixture(scope="session")
def class_model() -> UpdateModel:
    """Coarser model: values mix freely inside their disease class."""
    return UpdateModel.from_classes([
        ["Dyspepsia", "Gastritis"],
        ["Flu", "Pneumonia", "LungCancer"],
        ["Glaucoma", "Cataract"],
    ])


@pytest.fixture(scope="session")
def disease_schema() -> TableSchema:
    return TableSchema((AttributeSchema.numeric("salary", 10, 40),
                        AttributeSchema.numeric("age", 15, 40)),
                       "disease", DISEASES)


@pytest.fixture(scope="session")
def t1_records() -> list[Record]:
    return [
        Record("Ben", (31, 19), "Flu"),
        Record("Harry", (26, 35), "Gastritis"),
        Record("Julia", (16, 23), "Pneumonia"),
        Record("Ken", (14, 20), "Dyspepsia"),
        Record("Lily", (29, 17), "Glaucoma"),
        Record("Tom", (24, 32), "Pneumonia"),
    ]


@pytest.fixture(scope="session")
def t2_records() -> list[Record]:
    return [
        Record("Ben", (26, 35), "Pneumonia"),
        Record("Harry", (23, 32), "Dyspepsia"),
        Record("Julia", (18, 31), "LungCancer"),
        Record("Ken", (14, 20), "Dyspepsia"),
        Record("Lily", (12, 17), "Glaucoma"),
        Record("Tom", (15, 27), "Pneumonia"),
    ]


def _group(gid, region, members):
    return QIGroup(gid, tuple(region),
                   tuple(Member(rid, s, rid.startswith("c"))
                         for rid, s in members),
                   tuple(s for _, s in members))


@pytest.fixture(scope="session")
def release_one() -> PublishedRelease:
    """First release: {Ken,Julia}, {Tom,Harry}, {Lily,Ben}."""
    return PublishedRelease(1, (
        _group(1, [(14, 16), (20, 23)],
               [("Ken", "Dyspepsia"), ("Julia", "Pneumonia")]),
        _group(2, [(24, 26), (32, 35)],
               [("Tom", "Pneumonia"), ("Harry", "Gastritis")]),
        _group(3, [(29, 31), (17, 19)],
               [("Lily", "Glaucoma"), ("Ben", "Flu")]),
    ))


@pytest.fixture(scope="session")
def release_two_naive() -> PublishedRelease:
    """Second release regrouped with no memory: {Ken,Lily}, {Julia,Tom},
    {Harry,Ben}.  Legal-looking but exploitable."""
    return PublishedRelease(2, (
        _group(1, [(12, 14), (17, 20)],
               [("Ken", "Dyspepsia"), ("Lily", "Glaucoma")]),
        _group(2, [(15, 18), (27, 31)],
               [("Julia", "LungCancer"), ("Tom", "Pneumonia")]),
        _group(3, [(23, 26), (32, 35)],
               [("Harry", "Dyspepsia"), ("Ben", "Pneumonia")]),
    ))


@pytest.fixture(scope="session")
def release_two_defended() -> PublishedRelease:
    """Second release with history-aware groups and two counterfeits:
    {Ken,Tom}, {Julia,Harry}, {Lily,c1}, {Ben,c2}."""
    return PublishedRelease(2, (
        _group(1, [(14, 15), (20, 27)],
               [("Ken", "Dyspepsia"), ("Tom", "Pneumonia")]),
        _group(2, [(18, 23), (31, 32)],
               [("Julia", "LungCancer"), ("Harry", "Dyspepsia")]),
        _group(3, [(10, 12), (16, 17)],
               [("Lily", "Glaucoma"), ("c1", "Pneumonia")]),
        _group(4, [(26, 27), (35, 37)],
               [("Ben", "Pneumonia"), ("c2", "Cataract")]),
    ))


@pytest.fixture(scope="session")
def histories_12(t1_records, t2_records) -> dict[str, dict[int, str]]:
    out: dict[str, dict[int, str]] = {}
    for index, snap in ((1, t1_records), (2, t2_records)):
        for rec in snap:
            out.setdefault(rec.id, {})[index] = rec.sensitive
    return out


# --------------------------------------------------------------------------
# three-release fixture with hand-checked path weights


@pytest.fixture(scope="session")
def three_layer_model() -> UpdateModel:
    from fractions import Fraction as F
    table = {
        "a": {"q": F(1)},
        "m": {"q": F(1)},
        "d": {"q": F(1, 4), "r": F(3, 4)},
        "x": {"a": F(2, 9), "d": F(4, 9), "q": F(1, 6), "r": F(1, 6)},
        "y": {"a": F(4, 9), "m": F(4, 9), "q": F(1, 9)},
        "q": {"q": F(1)},
        "r": {"r": F(1)},
    }
    return UpdateModel(("a", "d", "m", "q", "r", "x", "y"), table)


@pytest.fixture(scope="session")
def three_layer_history() -> list[list[str]]:
    return [["y", "x"], ["a", "d", "m"], ["q", "q", "q", "r"]]


@pytest.fixture(scope="session")
def three_layer_actual() -> list[str]:
    return ["x", "d", "r"]
