"""CSV/JSON persistence and the synthetic evolving-population workload.

A history directory holds one republication sequence:

    meta.csv              key,value pairs (seed, m, mode)
    schema.json           the QI schema, written on the first publish
    release_<i>.csv       gid,id,<qi regions...>,sensitive,is_counterfeit
    counterfeits_<i>.csv  gid,count (non-zero groups only)
    microdata_<i>.csv     the raw snapshot behind release i (attack actuals)
    risks.csv             written by the attack command
    lock                  advisory lock, held while writing

Numeric region cells serialize as "lo..hi"; categorical cells as the
hierarchy node name.
"""

from __future__ import annotations

import csv
import json
import os
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError
from .model import (AttributeSchema, ExternalKnowledgeTable, Hierarchy,
                    Member, PublishedRelease, QIGroup, QIValue, Record,
                    TableSchema)
from .sug import RiskReport
from .updates import UpdateModel, validate_update_model

if TYPE_CHECKING:
    from .baselines import MInvarianceState
    from .engine import EngineState
    from .evaluation import RunReport

__all__ = [
    "load_microdata",
    "write_microdata",
    "infer_schema",
    "widen_schema",
    "load_update_model",
    "write_update_model",
    "HistoryStore",
    "snapshot_histories",
    "snapshot_tables",
    "load_external_tables",
    "write_risks",
    "write_csv",
    "synthetic_schema",
    "initial_population",
    "apply_external_updates",
    "synthesize_internal_updates",
]


def write_csv(path: Path | str, rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _read_csv(path: Path | str) -> list[list[str]]:
    """The rows of a CSV file.  No field may hold a line break: `write_csv`
    leaves a bare carriage return unquoted, so such a value would not
    survive being written back into a history."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a CSV text file ({exc})") from None
    # only a quoted field holding a line break makes a row span two lines,
    # and every row before the first such row starts on its own line number
    if reader.line_num != len(rows):
        lineno = next(i for i, row in enumerate(rows, start=1)
                      if any("\r" in cell or "\n" in cell for cell in row))
        raise ValidationError(f"{path} line {lineno}: a field holds a line "
                              f"break")
    return rows


def _read_table(path: Path | str, header: list[str] | None = None,
                ) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """A CSV file's header and its body rows as (line number, row).  The
    header must equal `header` unless that is None.  A row whose width is
    not the header's raises when the iteration reaches it, so the first
    bad row raises first, whatever is wrong with it."""
    rows = _read_csv(path)
    if not rows:
        raise ValidationError(f"{path}: empty file")
    if header is not None and rows[0] != header:
        raise ValidationError(f"{path} line 1: header {rows[0]!r} does not "
                              f"match {header!r}")
    width = len(rows[0])

    def body() -> Iterator[tuple[int, list[str]]]:
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != width:
                raise ValidationError(f"{path} line {lineno}: expected "
                                      f"{width} fields, got {len(row)}")
            yield lineno, row

    return rows[0], body()


# An integer as `str` writes one.  `int` alone would also take "+5", " 5",
# "1_0" and non-ASCII digits.
_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str) -> int | None:
    """The integer a plain decimal text spells, or None."""
    if _DECIMAL.fullmatch(text) is None:
        return None
    try:
        return int(text)
    except ValueError:  # more digits than `int` converts
        return None


# ---------------------------------------------------------------------------
# microdata


def _csv_indices(directory: Path, prefix: str) -> list[int]:
    """The sorted i of every <prefix>_<i>.csv in a directory, i written in
    decimal without leading zeros; a stray copy such as <prefix>_1_old.csv
    or <prefix>_01.csv is not a second file number 1."""
    out = []
    for p in directory.glob(f"{prefix}_*.csv"):
        i = p.stem[len(prefix) + 1:]
        if re.fullmatch(r"0|[1-9][0-9]*", i):
            out.append(int(i))
    return sorted(out)


def _read_qi_rows(path: Path | str, schema: TableSchema,
                  tail: Sequence[str] = (),
                  ) -> Iterator[tuple[int, str, tuple[QIValue, ...],
                                      list[str]]]:
    """Parse id,<qi...>,<tail...> rows: unique ids, decimal integers in
    numeric columns and every QI value inside its attribute's domain.
    Yields (line number, id, qi, tail fields)."""
    _, rows = _read_table(path, ["id", *schema.qi_names, *tail])
    n_qi = len(schema.qi)
    seen: set[str] = set()
    for lineno, row in rows:
        rid = row[0]
        if rid in seen:
            raise ValidationError(f"{path} line {lineno}: duplicate id "
                                  f"{rid!r}")
        seen.add(rid)
        qi: list[QIValue] = []
        for attr, text in zip(schema.qi, row[1:]):
            value: QIValue | None = text
            if attr.kind == "numeric":
                value = _decimal(text)
                if value is None:
                    raise ValidationError(f"{path} line {lineno}: "
                                          f"{attr.name}={text!r} is not an "
                                          f"integer")
            if not attr.contains(value):
                raise ValidationError(f"{path} line {lineno}: record "
                                      f"{rid!r}: {attr.name}={value!r} "
                                      f"outside domain")
            qi.append(value)
        yield lineno, rid, tuple(qi), row[1 + n_qi:]


def load_microdata(path: Path | str, schema: TableSchema) -> list[Record]:
    """Read id,<qi...>,<sensitive> rows; errors carry 1-based line numbers.
    `_read_qi_rows` checks the field count and every QI value, so only the
    sensitive value is left to check here."""
    domain = frozenset(schema.sensitive_domain)
    out: list[Record] = []
    for lineno, rid, qi, (sensitive,) in _read_qi_rows(
            path, schema, (schema.sensitive_name,)):
        if sensitive not in domain:
            raise ValidationError(f"{path} line {lineno}: record {rid!r}: "
                                  f"sensitive value {sensitive!r} outside "
                                  f"domain")
        out.append(Record(rid, qi, sensitive))
    return out


def write_microdata(path: Path | str, schema: TableSchema,
                    records: Sequence[Record]) -> None:
    rows = [["id", *schema.qi_names, schema.sensitive_name]]
    for rec in sorted(records, key=lambda r: r.id):
        rows.append([rec.id, *[str(v) for v in rec.qi], rec.sensitive])
    write_csv(path, rows)


def widen_schema(stored: TableSchema, observed: TableSchema) -> TableSchema:
    """Grow `stored`'s numeric bounds to cover `observed` (same attributes,
    same kinds).  Returns `stored` itself when nothing needs to grow; new
    categorical values are an error, since published regions name nodes of
    the stored hierarchy."""
    if [(a.name, a.kind) for a in stored.qi] != \
            [(a.name, a.kind) for a in observed.qi]:
        raise ValidationError(
            f"microdata columns {[a.name for a in observed.qi]} do not match "
            f"the history schema {[a.name for a in stored.qi]}")
    changed = False
    attrs: list[AttributeSchema] = []
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


def infer_schema(path: Path | str, model: UpdateModel) -> TableSchema:
    """Derive a QI schema from a microdata file: columns of decimal integers
    become numeric attributes with data-driven bounds, everything else
    becomes a flat categorical hierarchy over the observed values."""
    header, rows = _read_table(path)
    if len(header) < 3 or header[0] != "id":
        raise ValidationError(f"{path} line 1: need id, at least one QI "
                              f"column and a sensitive column")
    body = [row for _, row in rows]
    if not body:
        raise ValidationError(f"{path}: no records")
    attrs: list[AttributeSchema] = []
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


# ---------------------------------------------------------------------------
# update model files: value,successor,probability


def load_update_model(path: Path | str) -> UpdateModel:
    """Read transition rows.  A blank probability means "uniform over this
    value's successors" and must then be blank on all of the value's rows.
    Probabilities parse as exact rationals: "1/3", "0.25" or "1".  The
    domain is every value the rows name."""
    _, rows = _read_table(path, ["value", "successor", "probability"])
    succ: dict[str, dict[str, Fraction | None]] = {}
    for lineno, (a, b, text) in rows:
        where = f"{path} line {lineno}: "
        if not a or not b:
            raise ValidationError(f"{where}blank value or successor")
        prob: Fraction | None = None
        if text.strip():
            try:
                prob = Fraction(text.strip())
            except (ValueError, ZeroDivisionError):
                raise ValidationError(
                    f"{where}bad probability {text!r}") from None
        entry = succ.setdefault(a, {})
        if b in entry:
            raise ValidationError(f"{where}duplicate transition {a!r}->{b!r}")
        entry[b] = prob
    cus: dict[str, frozenset[str]] = {}
    p_trans: dict[tuple[str, str], Fraction] = {}
    for a, targets in succ.items():
        blanks = [p is None for p in targets.values()]
        if any(blanks) and not all(blanks):
            raise ValidationError(
                f"{path}: value {a!r} mixes blank (uniform) and explicit "
                f"probabilities")
        cus[a] = frozenset(targets)
        if all(blanks):
            share = Fraction(1, len(targets))
            for b in targets:
                p_trans[(a, b)] = share
        else:
            for b, p in targets.items():
                p_trans[(a, b)] = p
    names = set(succ)
    for targets in succ.values():
        names.update(targets)
    model = UpdateModel(tuple(sorted(names)), cus, p_trans)
    problems = validate_update_model(model)
    if problems:
        raise ValidationError(f"{path}: invalid update model:\n  "
                              + "\n  ".join(problems))
    return model


def write_update_model(path: Path | str, model: UpdateModel) -> None:
    rows = [["value", "successor", "probability"]]
    for a in sorted(model.cus):
        for b in sorted(model.cus[a]):
            p = model.prob(a, b)
            rows.append([a, b, f"{p.numerator}/{p.denominator}"])
    write_csv(path, rows)


# ---------------------------------------------------------------------------
# schema persistence


def _schema_to_json(schema: TableSchema) -> dict:
    def tree(h: Hierarchy, node: str):
        kids = h._children[node]
        return {k: tree(h, k) for k in kids} if kids else None

    qi = []
    for attr in schema.qi:
        if attr.kind == "numeric":
            qi.append({"name": attr.name, "kind": "numeric",
                       "lo": attr.lo, "hi": attr.hi})
        else:
            h = attr.hierarchy
            qi.append({"name": attr.name, "kind": "categorical",
                       "root": h.root, "tree": tree(h, h.root)})
    return {"qi": qi, "sensitive_name": schema.sensitive_name,
            "sensitive_domain": list(schema.sensitive_domain)}


def _is_tree(tree: object) -> bool:
    """A hierarchy as JSON holds it: null (a leaf), a list of leaf names or
    an object of subtrees."""
    if isinstance(tree, list):
        return all(type(leaf) is str for leaf in tree)
    return tree is None or (isinstance(tree, dict)
                            and all(map(_is_tree, tree.values())))


def _has_line_break(data: object) -> bool:
    """Whether a string or key anywhere in decoded JSON holds a line
    break, which no CSV field of a history may hold."""
    if isinstance(data, str):
        return "\r" in data or "\n" in data
    if isinstance(data, dict):
        return any(map(_has_line_break, [*data, *data.values()]))
    return isinstance(data, list) and any(map(_has_line_break, data))


def _schema_from_json(data: object, where: str) -> TableSchema:
    """The schema `_schema_to_json` wrote; any other layout is a
    ValidationError."""
    if _has_line_break(data):
        raise ValidationError(f"{where}a name holds a line break")
    def typed(obj: object, key: str, kind: type):
        value = obj.get(key) if isinstance(obj, dict) else None
        if type(value) is not kind:
            raise ValidationError(f"{where}{key!r} missing or not a "
                                  f"{kind.__name__}")
        return value

    attrs = []
    for entry in typed(data, "qi", list):
        name = typed(entry, "name", str)
        if entry.get("kind") == "numeric":
            attrs.append(AttributeSchema.numeric(
                name, typed(entry, "lo", int), typed(entry, "hi", int)))
        elif entry.get("kind") == "categorical" and _is_tree(
                entry.get("tree", 0)):
            attrs.append(AttributeSchema.categorical(
                name, Hierarchy(typed(entry, "root", str), entry["tree"])))
        else:
            raise ValidationError(f"{where}{name}: bad kind or tree")
    domain = typed(data, "sensitive_domain", list)
    if not all(type(v) is str for v in domain):
        raise ValidationError(f"{where}sensitive values must be strings")
    return TableSchema(tuple(attrs), typed(data, "sensitive_name", str),
                       tuple(domain))


# ---------------------------------------------------------------------------
# history directories


def _cell_to_text(attr: AttributeSchema, cell) -> str:
    if attr.kind == "numeric":
        lo, hi = cell
        return f"{lo}..{hi}"
    if ".." in cell:
        raise ValidationError(f"category name {cell!r} contains '..'")
    return cell


def _cell_from_text(attr: AttributeSchema, text: str):
    """The cell `_cell_to_text` wrote: "lo..hi" with lo <= hi inside the
    attribute's bounds, or a node of its hierarchy."""
    if attr.kind == "numeric":
        lo_text, sep, hi_text = text.partition("..")
        lo, hi = _decimal(lo_text), _decimal(hi_text)
        if not sep or lo is None or hi is None:
            raise ValidationError(f"bad {attr.name} region {text!r}: not "
                                  f"lo..hi in decimal")
        if lo > hi:
            raise ValidationError(f"bad {attr.name} region {text!r}: lo > hi")
        if lo < attr.lo or hi > attr.hi:
            raise ValidationError(f"bad {attr.name} region {text!r}: outside "
                                  f"{attr.lo}..{attr.hi}")
        return (lo, hi)
    if text not in attr.hierarchy:
        raise ValidationError(f"unknown {attr.name} node {text!r}")
    return text


class HistoryStore:
    """One directory holding a whole republication sequence."""

    def __init__(self, path: Path | str):
        self.path = Path(path)

    @contextmanager
    def lock(self):
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # the path or a parent is not a directory
            raise ValidationError(f"history {self.path} cannot be a "
                                  f"directory: {exc.strerror}") from None
        lockfile = self.path / "lock"
        try:
            fd = os.open(lockfile, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ValidationError(
                f"history {self.path} is locked; remove {lockfile} if no "
                f"other publish is running") from None
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield self
        finally:
            lockfile.unlink(missing_ok=True)

    # --- meta / schema

    def write_meta(self, meta: Mapping[str, str]) -> None:
        rows = [["key", "value"]]
        rows += [[k, str(meta[k])] for k in sorted(meta)]
        write_csv(self.path / "meta.csv", rows)

    def read_meta(self) -> dict[str, str]:
        _, rows = _read_table(self.path / "meta.csv", ["key", "value"])
        return {k: v for _, (k, v) in rows}

    def read_meta_int(self, meta: Mapping[str, str], key: str) -> int:
        """An integer entry of `meta` (as read_meta returned it)."""
        if key not in meta:
            raise ValidationError(f"{self.path / 'meta.csv'}: no {key!r} "
                                  f"entry")
        value = _decimal(meta[key])
        if value is None:
            raise ValidationError(f"{self.path / 'meta.csv'}: "
                                  f"{key}={meta[key]!r} is not an integer")
        return value

    def write_schema(self, schema: TableSchema) -> None:
        with open(self.path / "schema.json", "w") as fh:
            json.dump(_schema_to_json(schema), fh, indent=2)
            fh.write("\n")

    def read_schema(self) -> TableSchema:
        path = self.path / "schema.json"
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"no schema in history {self.path}: "
                                  f"{exc.strerror}") from None
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: bad JSON ({exc})") from None
        return _schema_from_json(data, f"{path}: ")

    def has_schema(self) -> bool:
        return (self.path / "schema.json").exists()

    # --- releases

    def release_indices(self) -> list[int]:
        return _csv_indices(self.path, "release")

    def write_release(self, release: PublishedRelease,
                      schema: TableSchema) -> None:
        rows = [["gid", "id", *schema.qi_names, schema.sensitive_name,
                 "is_counterfeit"]]
        for group in release.groups:
            cells = [_cell_to_text(a, c)
                     for a, c in zip(schema.qi, group.region)]
            for member in group.members:
                rows.append([str(group.gid), member.rid, *cells,
                             member.sensitive,
                             "1" if member.counterfeit else "0"])
        write_csv(self.path / f"release_{release.release_index}.csv", rows)
        cf_rows = [["gid", "count"]]
        stats = release.counterfeit_stats
        cf_rows += [[str(g), str(stats[g])] for g in sorted(stats)]
        write_csv(self.path / f"counterfeits_{release.release_index}.csv",
                  cf_rows)

    def read_release(self, index: int,
                     schema: TableSchema) -> PublishedRelease:
        path = self.path / f"release_{index}.csv"
        _, rows = _read_table(path, ["gid", "id", *schema.qi_names,
                                     schema.sensitive_name, "is_counterfeit"])
        end = len(schema.qi) + 2  # a row's region cells are row[2:end]
        domain = frozenset(schema.sensitive_domain)
        # Parsing is a function of the text alone, so each distinct gid
        # text and each distinct tuple of cell texts is parsed once.
        gids: dict[str, int] = {}
        regions: dict[tuple[str, ...], tuple] = {}
        groups: dict[int, tuple[tuple, list[Member]]] = {}
        for lineno, row in rows:
            try:
                gid = gids.get(row[0])
                if gid is None:
                    gid = _decimal(row[0])
                    if gid is None:
                        raise ValidationError(f"bad gid {row[0]!r}")
                    gids[row[0]] = gid
                cf = row[-1]
                if cf != "0" and cf != "1":
                    raise ValidationError("is_counterfeit must be 0 or 1")
                if row[-2] not in domain:
                    raise ValidationError(f"sensitive value {row[-2]!r} "
                                          f"outside domain")
                cells = tuple(row[2:end])
                region = regions.get(cells)
                if region is None:
                    region = regions[cells] = tuple(
                        map(_cell_from_text, schema.qi, cells))
                member = Member(row[1], row[-2], cf == "1")
                group = groups.get(gid)
                if group is None:
                    groups[gid] = (region, [member])
                elif group[0] != region:
                    raise ValidationError(f"group {gid} region differs "
                                          f"between rows")
                else:
                    group[1].append(member)
            except ValidationError as exc:
                raise ValidationError(f"{path} line {lineno}: {exc}") \
                    from None
        return PublishedRelease(index, tuple(
            QIGroup(g, region, tuple(members))
            for g, (region, members) in groups.items()))

    def read_releases(self, schema: TableSchema) -> list[PublishedRelease]:
        return [self.read_release(i, schema) for i in self.release_indices()]

    # --- actual microdata snapshots (attack ground truth)

    def write_actuals(self, index: int, schema: TableSchema,
                      records: Sequence[Record]) -> None:
        write_microdata(self.path / f"microdata_{index}.csv", schema, records)

    def read_actuals(self, index: int, schema: TableSchema) -> list[Record]:
        return load_microdata(self.path / f"microdata_{index}.csv", schema)

    def snapshots(self, schema: TableSchema) -> dict[int, list[Record]]:
        """Every stored microdata snapshot, parsed once, by release index."""
        return {i: self.read_actuals(i, schema)
                for i in self.release_indices()
                if (self.path / f"microdata_{i}.csv").exists()}

    def histories(self, schema: TableSchema) -> dict[str, dict[int, str]]:
        return snapshot_histories(self.snapshots(schema))

    # --- publisher state replay

    def replay_state(self, state: EngineState | MInvarianceState,
                     model: UpdateModel) -> EngineState | MInvarianceState:
        """Fold every stored release, in order, into a fresh publisher
        state and return it.  A release that lists a real record in two
        groups is refused: the fold would keep only the record's last
        group, and a publish built on that would extend a history that
        `verify` and `attack` reject."""
        indices = self.release_indices()
        if indices:
            schema = self.read_schema()
            for i in indices:
                release = self.read_release(i, schema)
                release.group_of()  # raises on a record in two groups
                state.apply(release, model)
        return state


def snapshot_histories(snapshots: Mapping[int, Sequence[Record]],
                       ) -> dict[str, dict[int, str]]:
    """Actual sensitive value per record id and release index."""
    out: dict[str, dict[int, str]] = {}
    for i, records in snapshots.items():
        for rec in records:
            out.setdefault(rec.id, {})[i] = rec.sensitive
    return out


def snapshot_tables(snapshots: Mapping[int, Sequence[Record]],
                    ) -> list[ExternalKnowledgeTable]:
    """The snapshots as exact-QI external-knowledge tables."""
    return [ExternalKnowledgeTable(i, {rec.id: rec.qi for rec in records})
            for i, records in snapshots.items()]


def load_external_tables(directory: Path | str,
                         schema: TableSchema) -> list[ExternalKnowledgeTable]:
    """Read et_<i>.csv files (columns id,<qi...>) from a directory, which
    must hold at least one."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"external tables {directory}: not a "
                              f"directory")
    indices = _csv_indices(directory, "et")
    if not indices:
        raise ValidationError(f"external tables {directory}: no et_<i>.csv "
                              f"file")
    out = []
    for i in indices:
        rows = _read_qi_rows(directory / f"et_{i}.csv", schema)
        out.append(ExternalKnowledgeTable(
            i, {rid: qi for _, rid, qi, _ in rows}))
    return out


def write_risks(path: Path | str, reports: Sequence[RiskReport]) -> None:
    rows = [["id", "version", "risk_num", "risk_den", "risk_decimal"]]
    for report in sorted(reports, key=lambda r: r.record_id):
        for version, risk in zip(report.versions, report.risks):
            rows.append([report.record_id, str(version),
                         str(risk.numerator), str(risk.denominator),
                         f"{float(risk):.12g}"])
    write_csv(path, rows)


# ---------------------------------------------------------------------------
# experiment reports


def write_report_files(out_dir: Path | str, report: RunReport) -> None:
    """report.csv (one row per release) + summary.csv are deterministic for
    a given config; wall-clock numbers go to timings.csv on the side."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "report.csv", report.to_rows())
    write_csv(out_dir / "summary.csv", report.summary_rows())
    write_csv(out_dir / "timings.csv", report.timing_rows())


# ---------------------------------------------------------------------------
# synthetic workload


MARITAL_TREE = {
    "unmarried": {"never_married": None, "separated": None,
                  "divorced": None, "widowed": None},
    "married": {"civil_marriage": None, "religious_marriage": None},
}
# progression order for the evolving population (index only ever increases)
MARITAL_ORDER = ("never_married", "civil_marriage", "religious_marriage",
                 "separated", "divorced", "widowed")
EDU_LEVELS = tuple(f"edu_{i:02d}" for i in range(1, 18))
EDU_TREE = {
    "primary": {v: None for v in EDU_LEVELS[:5]},
    "secondary": {v: None for v in EDU_LEVELS[5:11]},
    "higher": {v: None for v in EDU_LEVELS[11:]},
}
QI_DRIFT_CHANCE = 0.1
AGE_CAP = 100


def synthetic_schema(cus_size: int = 10, sensitive_size: int = 50,
                     ) -> tuple[TableSchema, UpdateModel]:
    """Census-style QI schema plus a block update model: occupations fall in
    consecutive classes of `cus_size`, uniform within the class."""
    if not 1 <= cus_size <= sensitive_size:
        raise ValidationError("need 1 <= cus_size <= sensitive_size")
    occupations = [f"occ_{i:02d}" for i in range(sensitive_size)]
    blocks = [occupations[i:i + cus_size]
              for i in range(0, sensitive_size, cus_size)]
    model = UpdateModel.from_classes(blocks)
    schema = TableSchema((
        AttributeSchema.numeric("age", 1, AGE_CAP),
        AttributeSchema.categorical("gender",
                                    Hierarchy.flat("any_gender",
                                                   ["female", "male"])),
        AttributeSchema.categorical("marital",
                                    Hierarchy("any_marital", MARITAL_TREE)),
        AttributeSchema.categorical("education",
                                    Hierarchy("any_education", EDU_TREE)),
    ), "occupation", tuple(occupations))
    return schema, model


def _new_record(rid: str, schema: TableSchema, rng: random.Random) -> Record:
    age = rng.randint(1, AGE_CAP)
    gender = rng.choice(["female", "male"])
    marital = rng.choice(MARITAL_ORDER)
    education = rng.choice(EDU_LEVELS)
    occupation = rng.choice(schema.sensitive_domain)
    return Record(rid, (age, gender, marital, education), occupation)


def initial_population(n: int, schema: TableSchema, model: UpdateModel,
                       rng: random.Random) -> tuple[list[Record], int]:
    records = [_new_record(f"r{i:06d}", schema, rng) for i in range(n)]
    return records, n


def _drift_qi(rec: Record, rng: random.Random) -> Record:
    age, gender, marital, education = rec.qi
    age = min(age + 1, AGE_CAP)
    if rng.random() < QI_DRIFT_CHANCE:
        i = MARITAL_ORDER.index(marital)
        if i + 1 < len(MARITAL_ORDER):
            marital = MARITAL_ORDER[i + 1]
    if rng.random() < QI_DRIFT_CHANCE:
        i = EDU_LEVELS.index(education)
        if i + 1 < len(EDU_LEVELS):
            education = EDU_LEVELS[i + 1]
    return Record(rec.id, (age, gender, marital, education), rec.sensitive)


def apply_external_updates(records: Sequence[Record], schema: TableSchema,
                           rng: random.Random, inserts: int, deletes: int,
                           next_id: int) -> tuple[list[Record], int]:
    """Membership churn for one census step: delete some ids (never to be
    reused), then insert fresh records with new ids."""
    ordered = sorted(records, key=lambda r: r.id)
    k = min(deletes, max(len(ordered) - 1, 0))
    doomed = set(rng.sample([r.id for r in ordered], k))
    survivors = [r for r in ordered if r.id not in doomed]
    fresh = []
    for _ in range(inserts):
        fresh.append(_new_record(f"r{next_id:06d}", schema, rng))
        next_id += 1
    return survivors + fresh, next_id


def synthesize_internal_updates(records: Sequence[Record],
                                schema: TableSchema, model: UpdateModel,
                                count: int, rng: random.Random,
                                ) -> list[Record]:
    """In-place attribute churn for one census step.

    Every record ages one year (capped) and has a small chance of advancing
    marital status and education one step along their fixed progressions;
    gender never changes.  Exactly `count` records (fewer only if the
    population is smaller) then redraw their sensitive value uniformly from
    its CUS, so the new value is always reachable under the update model.
    """
    ordered = [_drift_qi(r, rng) for r in sorted(records, key=lambda r: r.id)]
    chosen = set(rng.sample([r.id for r in ordered],
                            min(count, len(ordered))))
    out = []
    for rec in ordered:
        if rec.id in chosen:
            value = rng.choice(sorted(model.cus_of(rec.sensitive)))
            rec = Record(rec.id, rec.qi, value)
        out.append(rec)
    return out
