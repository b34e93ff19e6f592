"""Utility evaluation: range-count queries against generalized releases.

Counts are estimated under the uniform-within-region assumption: each real
member of a group contributes the fraction of its group's region that
overlaps the query box.  Counterfeit members never contribute.  Estimates
are exact rationals, summed on integers: the groups' numerators are added
up per distinct region volume (the denominator), the per-denominator sums
meet the multipliers that scale them to the release's common denominator
in an int64 product on limbs of the multipliers, and each query's estimate
is built as one rational at the end.  Exact counts come from prefix
bitsets of the snapshot held as Python ints: one AND per axis and one bit
count per query.  Both are evaluated for a batch of queries at once; the
tests hold scalar oracles for both.

The experiment driver replays the full pipeline on synthetic data: evolve
the population, publish with the chosen scheme, attack after every release,
and measure relative query error |R* - R| / R* (R* the estimate, R the
exact count on the microdata; zero-estimate queries are resampled).  Each
error is one rational built from integers, and medians are exact: a sort
keyed on the correctly rounded float compares rationals only on float ties.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import (MInvarianceState, count_vulnerable,
                        publish_l_diversity, publish_m_invariance)
from .engine import EngineState, publish, verify_m_distinct
from .errors import ValidationError
from .fileio import (apply_external_updates, initial_population,
                     synthesize_internal_updates, synthetic_schema)
from .model import PublishedRelease, Record, TableSchema
from .sug import AttackMemo, RiskReport, attack_release_sequence
from .updates import UpdateModel

__all__ = [
    "AggregateQuery",
    "random_query",
    "ReleaseEvaluator",
    "SnapshotCounter",
    "median_fraction",
    "ExperimentConfig",
    "load_experiment_config",
    "ReleaseStats",
    "RunReport",
    "run_experiment",
]

OVERSAMPLE_FACTOR = 10

# the estimate of a query no real member falls in; Fractions are immutable
ZERO = Fraction(0)

PUBLISHERS = ("m_distinct", "m_distinct_star", "l_diversity", "m_invariance")


@dataclass(frozen=True)
class AggregateQuery:
    """A box over QI index space plus a contiguous sensitive-value span
    (indexes into the sorted sensitive domain)."""

    qi_spans: tuple[tuple[int, int], ...]
    sensitive_span: tuple[int, int]


def _theta_width(size: int, theta: float) -> int:
    # a theta above 1 already means the full axis; clamping it first keeps
    # a huge one from overflowing round()
    return min(size - 1, round(min(theta, 1.0) * size))


def random_query(schema: TableSchema, domain: Sequence[str], theta: float,
                 rng: random.Random) -> AggregateQuery:
    """A box whose side along every axis covers about a theta fraction of
    that axis, placed uniformly.  Categorical axes use the fixed leaf order."""
    spans = []
    for attr in schema.qi:
        width = _theta_width(attr.size, theta)
        lo = rng.randrange(attr.size - width)
        spans.append((lo, lo + width))
    width = _theta_width(len(domain), theta)
    lo = rng.randrange(len(domain) - width)
    return AggregateQuery(tuple(spans), (lo, lo + width))


def _region_span(attr, cell) -> tuple[int, int]:
    if attr.kind == "numeric":
        lo, hi = cell
        return (lo - attr.lo, hi - attr.lo)
    return attr.hierarchy.span(cell)


def _query_bounds(queries: Sequence[AggregateQuery], n_attr: int):
    """The queries' span bounds (lo, hi), each Q x (n_attr + 1): a column
    per QI attribute, then one for the sensitive span."""
    width = 2 * (n_attr + 1)
    flat = np.fromiter(chain.from_iterable(chain(*q.qi_spans,
                                                 q.sensitive_span)
                                           for q in queries),
                       dtype=np.int64, count=len(queries) * width)
    box = flat.reshape(len(queries), n_attr + 1, 2)
    return box[:, :, 0], box[:, :, 1]


class ReleaseEvaluator:
    """Exact count estimates of query batches against one release.

    A group adds to a query's estimate its real members in the value span
    times the overlap of its region with the query box, over its region's
    volume `extprod`.  The groups are kept in `extprod` order, so the
    numerators over one denominator fill one run of columns: each run is
    summed on integers, and the sums meet the multipliers `lcm // den`
    that scale them to the release's `lcm` of denominators, which leaves
    one `Fraction` to build per query.  A numerator is at most (real
    members) x (largest `extprod`); when that bound does not fit int64,
    the same steps run on Python ints.

    The multipliers can be far wider than 64 bits, so on int64 they are
    cut into k-bit limbs, k the largest width at which D sums of at most
    the batch's largest sum times a limb stay below 2**63 (D the number of
    denominators).  One int64 product per batch gives each query's dot
    with every limb, and L shifts put each total back together.  Below
    16-bit limbs the dot runs on Python ints.
    """

    def __init__(self, release: PublishedRelease, schema: TableSchema,
                 domain: Sequence[str]):
        domain_index = {v: i for i, v in enumerate(domain)}
        groups = release.groups
        regions, extprod = [], []
        hist = np.zeros((len(domain) + 1, len(groups)), dtype=np.int64)
        for g, group in enumerate(groups):
            region = [_region_span(attr, cell)
                      for attr, cell in zip(schema.qi, group.region)]
            regions.append(region)
            extprod.append(math.prod(hi - lo + 1 for lo, hi in region))
            for member in group.members:
                if not member.counterfeit:
                    hist[domain_index[member.sensitive] + 1, g] += 1
        order = sorted(range(len(groups)), key=extprod.__getitem__)
        # per attribute, the distinct group spans (lo, hi) and each group's
        # index among them
        self.spans = []
        for j in range(len(schema.qi)):
            bounds = np.array([regions[g][j] for g in order],
                              dtype=np.int64).reshape(-1, 2)
            unique, index = np.unique(bounds, axis=0, return_inverse=True)
            self.spans.append((unique[:, 0], unique[:, 1], index.reshape(-1)))
        # per value index v, each group's real members with a value below v
        self.cumhist = np.cumsum(hist[:, order], axis=0)
        dens = [extprod[g] for g in order]
        self.starts = np.array([g for g in range(len(dens))
                                if g == 0 or dens[g] != dens[g - 1]],
                               dtype=np.intp)
        distinct = [dens[g] for g in self.starts.tolist()]
        self.lcm = math.lcm(*distinct)
        self.mult = np.array([self.lcm // den for den in distinct],
                             dtype=object)
        real = int(hist.sum())
        self.dtype = (np.int64 if real * max(distinct, default=1) < 2 ** 63
                      else object)

    def batch(self, queries: Sequence[AggregateQuery]) -> list[Fraction]:
        if not queries:
            return []
        qlo, qhi = _query_bounds(queries, len(self.spans))
        # Q x G: real members in each query's value span, then times each
        # attribute's overlap width, clipped at 0, taken from the query's
        # overlap with each distinct region
        num = (self.cumhist[qhi[:, -1] + 1]
               - self.cumhist[qlo[:, -1]]).astype(self.dtype, copy=False)
        for j, (lo, hi, index) in enumerate(self.spans):
            ov = (np.minimum(hi, qhi[:, j:j + 1])
                  - np.maximum(lo, qlo[:, j:j + 1]) + 1)
            np.maximum(ov, 0, out=ov)
            num *= ov.take(index, axis=1)
        sums = np.add.reduceat(num, self.starts, axis=1)
        return [Fraction(t, self.lcm) if t else ZERO
                for t in self._totals(sums)]

    def _totals(self, sums: np.ndarray) -> list[int]:
        """Each row of `sums` (Q x D) dotted with the multipliers."""
        if self.dtype is np.int64 and sums.size:
            width = 63 - (len(self.mult) * int(sums.max())).bit_length()
            if width >= 16:
                limbs = _split(self.mult, width)
                parts = sums @ limbs
                total = parts[:, -1].astype(object)
                for i in range(limbs.shape[1] - 2, -1, -1):
                    total = (total << width) + parts[:, i]
                return total.tolist()
        return sums.dot(self.mult).tolist()


def _split(mult: np.ndarray, width: int) -> np.ndarray:
    """The positive ints `mult` as a D x L int64 array of `width`-bit
    limbs, least significant first: mult[d] = sum of limbs[d, i] << (i *
    width)."""
    n = -(-max(int(m).bit_length() for m in mult) // width)
    mask = (1 << width) - 1
    return np.array([[(int(m) >> (i * width)) & mask for i in range(n)]
                     for m in mult], dtype=np.int64)


class SnapshotCounter:
    """Exact counts of query batches on one microdata snapshot.

    Each axis, every QI attribute and then the sensitive index, keeps the
    snapshot's distinct values on it, sorted, and prefix bitsets over them
    as Python ints: bit i of `pre[k + 1]` is set when record i's value is
    at most the k-th distinct value.  The records inside a span [lo, hi]
    are then `pre[b] & ~pre[a]`, a and b the ranks of lo and hi among the
    values, and a query's count is the bit count of its axes' AND.  Ranks,
    not raw indexes, keep a wide numeric axis as small as the snapshot.
    """

    def __init__(self, records: Sequence[Record], schema: TableSchema,
                 domain_index: dict[str, int]):
        columns = [[attr.to_index(rec.qi[j]) for rec in records]
                   for j, attr in enumerate(schema.qi)]
        columns.append([domain_index[rec.sensitive] for rec in records])
        self.axes = [_prefix_bitsets(column) for column in columns]

    def batch(self, queries: Sequence[AggregateQuery]) -> np.ndarray:
        if not queries:
            return np.zeros(0, dtype=np.int64)
        qlo, qhi = _query_bounds(queries, len(self.axes) - 1)
        inside = None
        for (values, pre), lo, hi in zip(self.axes, qlo.T, qhi.T):
            spans = zip(np.searchsorted(values, lo, side="left").tolist(),
                        np.searchsorted(values, hi, side="right").tolist())
            if inside is None:
                inside = [pre[b] & ~pre[a] for a, b in spans]
            else:
                inside = [s & pre[b] & ~pre[a]
                          for s, (a, b) in zip(inside, spans)]
        return np.array([s.bit_count() for s in inside], dtype=np.int64)


def _prefix_bitsets(column: list[int]) -> tuple[np.ndarray, list[int]]:
    """One axis of a `SnapshotCounter`: its sorted distinct values and the
    prefix bitsets `pre` over them."""
    values = sorted(set(column))
    rank = {v: k for k, v in enumerate(values)}
    cells = [0] * len(values)
    for i, v in enumerate(column):
        cells[rank[v]] |= 1 << i
    pre = [0]
    for cell in cells:
        pre.append(pre[-1] | cell)
    return np.array(values, dtype=np.int64), pre


def median_fraction(values: Sequence[Fraction]) -> Fraction:
    """The exact median.  Fraction -> float rounds correctly and so keeps
    order, and distinct floats order their values exactly: the sort
    compares rationals only where two floats tie.  A value beyond float
    range falls back to comparing rationals throughout."""
    if not values:
        raise ValidationError("median of nothing")
    try:
        ordered = sorted(values, key=lambda f: (float(f), f))
    except OverflowError:
        ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


# ---------------------------------------------------------------------------
# end-to-end experiment


@dataclass(frozen=True)
class ExperimentConfig:
    publisher: str = "m_distinct"     # one of PUBLISHERS
    m: int = 2                        # group-size parameter (l for l-diversity)
    d: int = 10                       # internal update diameter = |CUS|
    n_records: int = 2000
    n_releases: int = 10
    inserts: int = 500
    deletes: int = 200
    internal_updates: int = 500
    thetas: tuple[float, ...] = (0.25, 0.5, 0.75)
    n_queries: int = 1000
    seed: int = 7
    sensitive_size: int = 50

    def __post_init__(self):
        if self.publisher not in PUBLISHERS:
            raise ValidationError(f"unknown publisher {self.publisher!r}; "
                                  f"choose from {PUBLISHERS}")
        if self.m < 2:
            raise ValidationError("m must be at least 2")
        if not 1 <= self.d <= self.sensitive_size:
            raise ValidationError("need 1 <= d <= sensitive domain size")
        if min((self.n_records, self.n_releases, self.inserts, self.deletes,
                self.internal_updates, self.n_queries), default=0) < 0:
            raise ValidationError("counts must be non-negative")
        if not all(0 <= t < math.inf for t in self.thetas):
            raise ValidationError(f"thetas must be finite and non-negative, "
                                  f"got {list(self.thetas)}")


_CONFIG_KINDS = {int: "an integer", str: "a string",
                 tuple: "a list of numbers"}


def load_experiment_config(path: Path | str) -> tuple[ExperimentConfig, Path]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: bad JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    # each field's default has its type: int, str or (for thetas) tuple
    kinds = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    kinds["out_dir"] = str
    unknown = set(data) - set(kinds)
    if unknown:
        raise ValidationError(f"{path}: unknown config keys "
                              f"{sorted(unknown)}")
    for key, value in data.items():
        if kinds[key] is tuple:
            ok = type(value) is list and all(type(t) in (int, float)
                                             for t in value)
        else:  # a bool is not an int here
            ok = type(value) is kinds[key]
        if not ok:
            raise ValidationError(f"{path}: {key} must be "
                                  f"{_CONFIG_KINDS[kinds[key]]}, got "
                                  f"{json.dumps(value)}")
    out_dir = Path(data.pop("out_dir", Path(path).parent))
    if "thetas" in data:
        data["thetas"] = tuple(map(float, data["thetas"]))
    return ExperimentConfig(**data), out_dir


@dataclass(frozen=True)
class ReleaseStats:
    release_index: int
    n_groups: int
    n_counterfeits: int
    cnt_g: Fraction              # average counterfeits per group
    vulnerable: int              # risk-1 exposures attacking releases 1..i
    invalidated: int             # this release (m-invariance only)
    publish_seconds: float


def _frac(x: Fraction | None) -> str:
    """A rational as n/d; a missing one as the empty cell."""
    return "" if x is None else f"{x.numerator}/{x.denominator}"


@dataclass
class RunReport:
    """One experiment run.  The median query errors are keyed by theta
    (`pooled_medians`, over every release) and by (release index, theta)
    (`release_medians`); a theta or release with no kept query has no
    entry, and a repeated theta keeps its first per-release median while
    its pooled median covers every pass."""

    config: ExperimentConfig
    releases: list[ReleaseStats] = field(default_factory=list)
    pooled_medians: dict[float, Fraction] = field(default_factory=dict)
    release_medians: dict[tuple[int, float], Fraction] = field(
        default_factory=dict)
    vulnerable: int = 0          # final attack, risk exactly 1
    max_risk: Fraction = Fraction(0)
    verify_ok: bool = False
    violations: list[str] = field(default_factory=list)
    # in-memory artifacts for further analysis (not serialized)
    published: list[PublishedRelease] = field(default_factory=list)
    snapshots: list[list[Record]] = field(default_factory=list)
    final_reports: list[RiskReport] = field(default_factory=list)

    def to_rows(self) -> list[list[str]]:
        """One deterministic row per release (timings live elsewhere)."""
        thetas = self.config.thetas
        head = ["release", "n_groups", "n_counterfeits", "cnt_g",
                "vulnerable", "invalidated"]
        head += [f"median_error_theta_{t}" for t in thetas]
        rows = [head]
        for r in self.releases:
            row = [str(r.release_index), str(r.n_groups),
                   str(r.n_counterfeits), _frac(r.cnt_g), str(r.vulnerable),
                   str(r.invalidated)]
            row += [_frac(self.release_medians.get((r.release_index, t)))
                    for t in thetas]
            rows.append(row)
        return rows

    def summary_rows(self) -> list[list[str]]:
        rows = [["key", "value"]]
        rows.append(["publisher", self.config.publisher])
        rows.append(["m", str(self.config.m)])
        rows.append(["d", str(self.config.d)])
        rows.append(["seed", str(self.config.seed)])
        for t in self.config.thetas:
            rows.append([f"pooled_median_error_theta_{t}",
                         _frac(self.pooled_medians.get(t))])
        rows.append(["vulnerable_final", str(self.vulnerable)])
        rows.append(["max_risk", _frac(self.max_risk)])
        rows.append(["verify_ok", "1" if self.verify_ok else "0"])
        rows.append(["violations", str(len(self.violations))])
        return rows

    def timing_rows(self) -> list[list[str]]:
        rows = [["release", "publish_seconds"]]
        for r in self.releases:
            rows.append([str(r.release_index), f"{r.publish_seconds:.6f}"])
        return rows


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Synthesize an evolving population, publish every release with the
    configured scheme, attack after each release, and measure query error."""
    schema, model = synthetic_schema(config.d, config.sensitive_size)
    domain = sorted(model.sensitive_domain)
    domain_index = {v: i for i, v in enumerate(domain)}
    master = random.Random(config.seed)
    pop_rng = random.Random(master.randrange(2 ** 32))
    records, next_id = initial_population(config.n_records, schema, model,
                                          pop_rng)
    engine_state = EngineState(m=config.m, mode=config.publisher)
    minv_state = MInvarianceState(config.m)
    report = RunReport(config)
    errors: dict[float, list[Fraction]] = {t: [] for t in config.thetas}
    asks_queries = config.n_queries > 0 and bool(config.thetas)
    histories: dict[str, dict[int, str]] = {}
    memo = AttackMemo()

    for step in range(config.n_releases):
        step_seed = master.randrange(2 ** 32)
        rng = random.Random(step_seed)
        if step > 0:
            records, next_id = apply_external_updates(
                records, schema, rng, config.inserts, config.deletes, next_id)
            records = synthesize_internal_updates(
                records, schema, model, config.internal_updates, rng)
        seed = rng.randrange(2 ** 32)
        invalidated = 0
        t0 = time.perf_counter()
        if config.publisher == "l_diversity":
            release = publish_l_diversity(records, config.m, schema, model,
                                          seed, release_index=step + 1)
        elif config.publisher == "m_invariance":
            release, minv_state, dropped = publish_m_invariance(
                records, minv_state, schema, model, seed)
            invalidated = len(dropped)
        else:
            release, engine_state = publish(records, engine_state, model,
                                            schema, seed=seed)
        seconds = time.perf_counter() - t0
        report.published.append(release)
        report.snapshots.append(list(records))
        for rec in records:
            histories.setdefault(rec.id, {})[release.release_index] = \
                rec.sensitive

        prefix_reports = attack_release_sequence(
            report.published, None, model, histories, memo=memo)
        report.final_reports = prefix_reports
        vulnerable = count_vulnerable(prefix_reports)
        stats = release.counterfeit_stats
        n_cf = sum(stats.values())
        report.releases.append(ReleaseStats(
            release.release_index, len(release.groups), n_cf,
            Fraction(n_cf, len(release.groups)), vulnerable, invalidated,
            seconds))

        if not asks_queries:
            continue
        evaluator = ReleaseEvaluator(release, schema, domain)
        counter = SnapshotCounter(records, schema, domain_index)
        for theta in config.thetas:
            qrng = random.Random(rng.randrange(2 ** 32))
            kept: list[AggregateQuery] = []
            estimates: list[Fraction] = []
            for _ in range(OVERSAMPLE_FACTOR):
                if len(kept) == config.n_queries:
                    break
                chunk = [random_query(schema, domain, theta, qrng)
                         for _ in range(config.n_queries)]
                for query, est in zip(chunk, evaluator.batch(chunk)):
                    if est > 0:
                        kept.append(query)
                        estimates.append(est)
                        if len(kept) == config.n_queries:
                            break
            # |n/d - act| / (n/d), the estimate n/d in lowest terms
            errs = [Fraction(abs(est.numerator - act * est.denominator),
                             est.numerator)
                    for est, act in zip(estimates,
                                        counter.batch(kept).tolist())]
            if errs:
                report.release_medians.setdefault(
                    (release.release_index, theta), median_fraction(errs))
            errors[theta].extend(errs)

    for theta, errs in errors.items():
        if errs:
            report.pooled_medians[theta] = median_fraction(errs)

    if report.published:
        report.verify_ok, report.violations = verify_m_distinct(
            report.published, model, config.m,
            star=(config.publisher == "m_distinct_star"))
        report.vulnerable = count_vulnerable(report.final_reports)
        report.max_risk = max((r.max_risk for r in report.final_reports),
                              default=Fraction(0))
    return report
