"""Utility evaluation: range-count queries against generalized releases.

Counts are estimated under the uniform-within-region assumption: each real
member of a group contributes the fraction of its group's region that
overlaps the query box.  Counterfeit members never contribute.  Estimates
are exact rationals.  Both the estimate and the exact count are evaluated
for a batch of queries at once with numpy; the tests hold scalar oracles
for both.

The experiment driver replays the full pipeline on synthetic data: evolve
the population, publish with the chosen scheme, attack after every release,
and measure relative query error |R* - R| / R* (R* the estimate, R the
exact count on the microdata; zero-estimate queries are resampled).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
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
from .sug import RiskReport, attack_release_sequence
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
    "QueryStats",
    "RunReport",
    "run_experiment",
]

OVERSAMPLE_FACTOR = 10

PUBLISHERS = ("m_distinct", "m_distinct_star", "l_diversity", "m_invariance")


@dataclass(frozen=True)
class AggregateQuery:
    """A box over QI index space plus a contiguous sensitive-value span
    (indexes into the sorted sensitive domain)."""

    qi_spans: tuple[tuple[int, int], ...]
    sensitive_span: tuple[int, int]


def _theta_width(size: int, theta: float) -> int:
    return min(size - 1, round(theta * size))


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
    """The queries' QI box bounds (qlo, qhi), each Q x n_attr, and their
    sensitive-span bounds (slo, shi), each of length Q."""
    box = np.array([q.qi_spans for q in queries],
                   dtype=np.int64).reshape(len(queries), n_attr, 2)
    span = np.array([q.sensitive_span for q in queries], dtype=np.int64)
    return box[:, :, 0], box[:, :, 1], span[:, 0], span[:, 1]


class ReleaseEvaluator:
    """Exact count estimates of query batches against one release."""

    def __init__(self, release: PublishedRelease, schema: TableSchema,
                 domain: Sequence[str]):
        self.schema = schema
        domain_index = {v: i for i, v in enumerate(domain)}
        groups = release.groups
        n_attr = len(schema.qi)
        self.glo = np.zeros((len(groups), n_attr), dtype=np.int64)
        self.ghi = np.zeros((len(groups), n_attr), dtype=np.int64)
        hist = np.zeros((len(groups), len(domain) + 1), dtype=np.int64)
        self.extprod = [1] * len(groups)
        for g, group in enumerate(groups):
            for j, (attr, cell) in enumerate(zip(schema.qi, group.region)):
                lo, hi = _region_span(attr, cell)
                self.glo[g, j], self.ghi[g, j] = lo, hi
                self.extprod[g] *= hi - lo + 1
            for member in group.members:
                if not member.counterfeit:
                    hist[g, domain_index[member.sensitive] + 1] += 1
        self.cumhist = np.cumsum(hist, axis=1)

    def batch(self, queries: Sequence[AggregateQuery]) -> list[Fraction]:
        if not queries:
            return []
        qlo, qhi, slo, shi = _query_bounds(queries, self.glo.shape[1])
        # overlap widths per (group, query, attr); clip negatives to 0
        ov = (np.minimum(self.ghi[:, None, :], qhi[None, :, :])
              - np.maximum(self.glo[:, None, :], qlo[None, :, :]) + 1)
        np.clip(ov, 0, None, out=ov)
        ovprod = ov.prod(axis=2)
        cnt = self.cumhist[:, shi + 1] - self.cumhist[:, slo]
        num = cnt * ovprod
        out: list[Fraction] = []
        for q in range(len(queries)):
            nz = np.nonzero(num[:, q])[0]
            by_den: dict[int, int] = {}
            for g in nz.tolist():
                den = self.extprod[g]
                by_den[den] = by_den.get(den, 0) + int(num[g, q])
            total = Fraction(0)
            for den in sorted(by_den):
                total += Fraction(by_den[den], den)
            out.append(total)
        return out


class SnapshotCounter:
    """Exact counts of query batches on one microdata snapshot."""

    def __init__(self, records: Sequence[Record], schema: TableSchema,
                 domain_index: dict[str, int]):
        self.idx = np.array([[attr.to_index(v)
                              for attr, v in zip(schema.qi, rec.qi)]
                             for rec in records], dtype=np.int64)
        self.sens = np.array([domain_index[rec.sensitive]
                              for rec in records], dtype=np.int64)

    def batch(self, queries: Sequence[AggregateQuery]) -> np.ndarray:
        if not queries:
            return np.zeros(0, dtype=np.int64)
        n_attr = self.idx.shape[1]
        qlo, qhi, slo, shi = _query_bounds(queries, n_attr)
        inside = (self.sens[:, None] >= slo[None, :]) \
            & (self.sens[:, None] <= shi[None, :])
        for j in range(n_attr):
            col = self.idx[:, j:j + 1]
            inside &= (col >= qlo[None, :, j]) & (col <= qhi[None, :, j])
        return inside.sum(axis=0)


def median_fraction(values: Sequence[Fraction]) -> Fraction:
    if not values:
        raise ValidationError("median of nothing")
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
    out_dir = Path(data.pop("out_dir", Path(path).parent))
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"{path}: unknown config keys "
                              f"{sorted(unknown)}")
    if "thetas" in data:
        data["thetas"] = tuple(float(t) for t in data["thetas"])
    try:
        config = ExperimentConfig(**data)
    except TypeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return config, out_dir


@dataclass(frozen=True)
class ReleaseStats:
    release_index: int
    n_groups: int
    n_counterfeits: int
    cnt_g: Fraction              # average counterfeits per group
    vulnerable: int              # risk-1 exposures attacking releases 1..i
    invalidated: int             # this release (m-invariance only)
    publish_seconds: float


@dataclass(frozen=True)
class QueryStats:
    theta: float
    release_index: int           # 0 means pooled across releases
    n_queries: int
    median_error: Fraction


@dataclass
class RunReport:
    config: ExperimentConfig
    releases: list[ReleaseStats] = field(default_factory=list)
    queries: list[QueryStats] = field(default_factory=list)
    vulnerable: int = 0          # final attack, risk exactly 1
    max_risk: Fraction = Fraction(0)
    verify_ok: bool = False
    violations: list[str] = field(default_factory=list)
    # in-memory artifacts for further analysis (not serialized)
    published: list[PublishedRelease] = field(default_factory=list)
    snapshots: list[list[Record]] = field(default_factory=list)
    final_reports: list[RiskReport] = field(default_factory=list)

    def pooled_median(self, theta: float) -> Fraction:
        for row in self.queries:
            if row.release_index == 0 and row.theta == theta:
                return row.median_error
        raise KeyError(theta)

    def release_median(self, release_index: int,
                       theta: float) -> Fraction | None:
        for row in self.queries:
            if row.release_index == release_index and row.theta == theta:
                return row.median_error
        return None

    def to_rows(self) -> list[list[str]]:
        """One deterministic row per release (timings live elsewhere)."""
        def frac(x: Fraction | None) -> str:
            return "" if x is None else f"{x.numerator}/{x.denominator}"

        thetas = self.config.thetas
        head = ["release", "n_groups", "n_counterfeits", "cnt_g",
                "vulnerable", "invalidated"]
        head += [f"median_error_theta_{t}" for t in thetas]
        rows = [head]
        for r in self.releases:
            row = [str(r.release_index), str(r.n_groups),
                   str(r.n_counterfeits), frac(r.cnt_g), str(r.vulnerable),
                   str(r.invalidated)]
            row += [frac(self.release_median(r.release_index, t))
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
            try:
                med = self.pooled_median(t)
                rows.append([f"pooled_median_error_theta_{t}",
                             f"{med.numerator}/{med.denominator}"])
            except KeyError:
                rows.append([f"pooled_median_error_theta_{t}", ""])
        rows.append(["vulnerable_final", str(self.vulnerable)])
        rows.append(["max_risk", f"{self.max_risk.numerator}/"
                                 f"{self.max_risk.denominator}"])
        rows.append(["verify_ok", "1" if self.verify_ok else "0"])
        rows.append(["violations", str(len(self.violations))])
        return rows

    def timing_rows(self) -> list[list[str]]:
        rows = [["release", "publish_seconds"]]
        for r in self.releases:
            rows.append([str(r.release_index), f"{r.publish_seconds:.6f}"])
        return rows


def _publish_step(config: ExperimentConfig, records, state, model, schema,
                  seed: int):
    """Dispatch one release to the configured publisher.

    Returns (release, state, invalidated-count).
    """
    kind = config.publisher
    if kind in ("m_distinct", "m_distinct_star"):
        release, state = publish(records, state, model, schema, seed=seed)
        return release, state, 0
    if kind == "l_diversity":
        index = state  # plain integer counter for this publisher
        release = publish_l_diversity(records, config.m, schema, model,
                                      seed, release_index=index)
        return release, index + 1, 0
    release, state, invalidated = publish_m_invariance(records, state,
                                                       schema, model, seed)
    return release, state, len(invalidated)


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
    state: object
    if config.publisher == "l_diversity":
        state = 1
    elif config.publisher == "m_invariance":
        state = MInvarianceState(config.m)
    else:
        state = EngineState(m=config.m, mode=config.publisher)
    report = RunReport(config)
    errors: dict[float, list[Fraction]] = {t: [] for t in config.thetas}
    histories: dict[str, dict[int, str]] = {}

    for step in range(config.n_releases):
        step_seed = master.randrange(2 ** 32)
        rng = random.Random(step_seed)
        if step > 0:
            records, next_id = apply_external_updates(
                records, schema, rng, config.inserts, config.deletes, next_id)
            records = synthesize_internal_updates(
                records, schema, model, config.internal_updates, rng)
        t0 = time.perf_counter()
        release, state, invalidated = _publish_step(
            config, records, state, model, schema, seed=rng.randrange(2 ** 32))
        seconds = time.perf_counter() - t0
        report.published.append(release)
        report.snapshots.append(list(records))
        for rec in records:
            histories.setdefault(rec.id, {})[release.release_index] = \
                rec.sensitive

        prefix_reports = attack_release_sequence(
            report.published, None, model, histories,
            previous=report.final_reports)
        report.final_reports = prefix_reports
        vulnerable = count_vulnerable(prefix_reports)
        stats = release.counterfeit_stats
        n_cf = sum(stats.values())
        report.releases.append(ReleaseStats(
            release.release_index, len(release.groups), n_cf,
            Fraction(n_cf, len(release.groups)), vulnerable, invalidated,
            seconds))

        evaluator = ReleaseEvaluator(release, schema, domain)
        counter = SnapshotCounter(records, schema, domain_index)
        for theta in config.thetas:
            qrng = random.Random(rng.randrange(2 ** 32))
            kept: list[AggregateQuery] = []
            estimates: list[Fraction] = []
            for _ in range(OVERSAMPLE_FACTOR):
                if len(kept) == config.n_queries or config.n_queries == 0:
                    break
                chunk = [random_query(schema, domain, theta, qrng)
                         for _ in range(config.n_queries)]
                for query, est in zip(chunk, evaluator.batch(chunk)):
                    if est > 0:
                        kept.append(query)
                        estimates.append(est)
                        if len(kept) == config.n_queries:
                            break
            actuals = counter.batch(kept).tolist()
            errs = [abs(est - act) / est
                    for est, act in zip(estimates, actuals)]
            if errs:
                report.queries.append(QueryStats(
                    theta, release.release_index, len(errs),
                    median_fraction(errs)))
            errors[theta].extend(errs)

    for theta in config.thetas:
        if errors[theta]:
            report.queries.append(QueryStats(
                theta, 0, len(errors[theta]),
                median_fraction(errors[theta])))

    if report.published:
        report.verify_ok, report.violations = verify_m_distinct(
            report.published, model, config.m,
            star=(config.publisher == "m_distinct_star"))
        report.vulnerable = count_vulnerable(report.final_reports)
        report.max_risk = max((r.max_risk for r in report.final_reports),
                              default=Fraction(0))
    return report
