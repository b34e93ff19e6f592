import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdistinct import evaluation
from mdistinct.errors import ValidationError
from mdistinct.evaluation import (AggregateQuery, ExperimentConfig,
                                  ReleaseEvaluator, SnapshotCounter,
                                  _region_span, median_fraction,
                                  random_query, run_experiment)
from mdistinct.fileio import synthetic_schema
from mdistinct.model import (AttributeSchema, CounterfeitMember, Hierarchy,
                             Record, TableSchema, generalize)

F = Fraction

# ---------------------------------------------------------------------------
# scalar oracles of the two batch evaluators, one query and one group or
# record at a time


def actual_count(records, query, schema, domain_index) -> int:
    """Records inside the query's QI box with a value in its span."""
    total = 0
    slo, shi = query.sensitive_span
    for rec in records:
        s = domain_index[rec.sensitive]
        if not slo <= s <= shi:
            continue
        ok = True
        for attr, v, (qlo, qhi) in zip(schema.qi, rec.qi, query.qi_spans):
            if not qlo <= attr.to_index(v) <= qhi:
                ok = False
                break
        if ok:
            total += 1
    return total


def estimate_count(release, query, schema, domain) -> Fraction:
    """Exact rational estimate of the query count from one release: each
    real member in the value span counts for the share of its group's
    region inside the query box."""
    domain_index = {v: i for i, v in enumerate(domain)}
    slo, shi = query.sensitive_span
    total = Fraction(0)
    for group in release.groups:
        hits = sum(1 for member in group.members
                   if not member.counterfeit
                   and slo <= domain_index[member.sensitive] <= shi)
        if hits == 0:
            continue
        weight = Fraction(1)
        for attr, cell, (qlo, qhi) in zip(schema.qi, group.region,
                                          query.qi_spans):
            glo, ghi = _region_span(attr, cell)
            ov = min(ghi, qhi) - max(glo, qlo) + 1
            if ov <= 0:
                weight = Fraction(0)
                break
            weight *= Fraction(ov, ghi - glo + 1)
        total += hits * weight
    return total


DOMAIN = ("Cataract", "Dyspepsia", "Flu", "Gastritis", "Glaucoma",
          "LungCancer", "Pneumonia")
ALL = AggregateQuery(((0, 30), (0, 25)), (0, 6))


@pytest.fixture
def one_group_release(disease_schema):
    members = [Record("a", (10, 15), "Flu"),
               Record("b", (13, 16), "Pneumonia"),
               CounterfeitMember("Pneumonia")]
    return generalize(disease_schema, 1, [members])


class TestEstimate:
    def test_partial_overlap_scales_by_region_fraction(self, disease_schema,
                                                       one_group_release):
        # region is salary 10..13 x age 15..16; query takes half the salary
        # extent and all of the age extent
        query = AggregateQuery(((0, 1), (0, 1)), (0, 6))
        est = estimate_count(one_group_release, query, disease_schema, DOMAIN)
        assert est == F(2) * F(2, 4) * F(2, 2) == 1

    def test_covering_query_returns_real_count(self, disease_schema,
                                               one_group_release):
        assert estimate_count(one_group_release, ALL, disease_schema,
                              DOMAIN) == 2

    def test_counterfeits_never_contribute(self, disease_schema,
                                           one_group_release):
        pneumonia_only = AggregateQuery(((0, 30), (0, 25)), (6, 6))
        assert estimate_count(one_group_release, pneumonia_only,
                              disease_schema, DOMAIN) == 1

    def test_disjoint_query_is_zero(self, disease_schema, one_group_release):
        far = AggregateQuery(((20, 30), (0, 25)), (0, 6))
        assert estimate_count(one_group_release, far, disease_schema,
                              DOMAIN) == 0


class TestActualCount:
    def test_counts_box_and_value_span(self, t1_records, disease_schema):
        index = {v: i for i, v in enumerate(DOMAIN)}
        assert actual_count(t1_records, ALL, disease_schema, index) == 6
        pneumonia_only = AggregateQuery(((0, 30), (0, 25)), (6, 6))
        assert actual_count(t1_records, pneumonia_only, disease_schema,
                            index) == 2
        low_salary = AggregateQuery(((0, 6), (0, 25)), (0, 6))
        # salaries 10..16: Ken (14) and Julia (16)
        assert actual_count(t1_records, low_salary, disease_schema,
                            index) == 2


class TestQueryError:
    """`run_experiment` measures each kept query's error as |R* - R| / R*,
    R* the estimate from the release and R the count on the snapshot, and
    resamples queries whose estimate is zero.  The oracles recompute both
    on the very queries it kept."""

    CONFIG = ExperimentConfig(m=2, d=5, n_records=40, n_releases=2,
                              inserts=6, deletes=3, internal_updates=8,
                              thetas=(0.1, 0.5), n_queries=30, seed=3,
                              sensitive_size=10)

    @pytest.fixture(scope="class")
    def run(self):
        """The report and, per release, the release, the snapshot, every
        query drawn and the queries kept for each theta."""
        seen = []

        class Evaluator(ReleaseEvaluator):
            def __init__(self, release, schema, domain):
                super().__init__(release, schema, domain)
                seen.append({"release": release, "drawn": [], "kept": []})

            def batch(self, queries):
                seen[-1]["drawn"].extend(queries)
                return super().batch(queries)

        class Counter(SnapshotCounter):
            def __init__(self, records, schema, domain_index):
                super().__init__(records, schema, domain_index)
                seen[-1]["records"] = list(records)

            def batch(self, queries):
                seen[-1]["kept"].append(list(queries))
                return super().batch(queries)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "ReleaseEvaluator", Evaluator)
            patch.setattr(evaluation, "SnapshotCounter", Counter)
            report = run_experiment(self.CONFIG)
        schema, model = synthetic_schema(self.CONFIG.d,
                                         self.CONFIG.sensitive_size)
        return report, seen, schema, sorted(model.sensitive_domain)

    def test_relative_to_the_estimate(self, run):
        report, seen, schema, domain = run
        index = {v: i for i, v in enumerate(domain)}
        assert len(seen) == self.CONFIG.n_releases
        for step in seen:
            release = step["release"]
            for theta, kept in zip(self.CONFIG.thetas, step["kept"]):
                assert len(kept) == self.CONFIG.n_queries
                errors = []
                for q in kept:
                    est = estimate_count(release, q, schema, domain)
                    act = actual_count(step["records"], q, schema, index)
                    errors.append(abs(est - act) / est)
                assert report.release_medians[
                    (release.release_index, theta)] == median_fraction(errors)

    def test_zero_estimate_rejected(self, run):
        _, seen, schema, domain = run
        drawn = [(step["release"], q) for step in seen for q in step["drawn"]]
        kept = {id(q) for step in seen for qs in step["kept"] for q in qs}
        zero = [q for release, q in drawn
                if estimate_count(release, q, schema, domain) == 0]
        assert zero, "the narrow theta should draw some empty queries"
        assert not any(id(q) in kept for q in zero)


class TestBatchTwins:
    def test_batch_matches_scalar_paths(self, t1_records, worked_model,
                                        disease_schema):
        from mdistinct.engine import EngineState, publish
        release, _ = publish(t1_records, EngineState(m=2), worked_model,
                             disease_schema, seed=3)
        rng = random.Random(0)
        queries = [random_query(disease_schema, DOMAIN, theta, rng)
                   for theta in (0.3, 0.5, 0.8) for _ in range(50)]
        evaluator = ReleaseEvaluator(release, disease_schema, DOMAIN)
        scalar = [estimate_count(release, q, disease_schema, DOMAIN)
                  for q in queries]
        assert evaluator.batch(queries) == scalar
        index = {v: i for i, v in enumerate(DOMAIN)}
        counter = SnapshotCounter(t1_records, disease_schema, index)
        assert counter.batch(queries).tolist() == [
            actual_count(t1_records, q, disease_schema, index)
            for q in queries]

    def test_empty_batches(self, t1_records, disease_schema,
                           one_group_release):
        evaluator = ReleaseEvaluator(one_group_release, disease_schema,
                                     DOMAIN)
        assert evaluator.batch([]) == []
        no_groups = ReleaseEvaluator(generalize(disease_schema, 1, []),
                                     disease_schema, DOMAIN)
        assert no_groups.batch([ALL, ALL]) == [0, 0]
        index = {v: i for i, v in enumerate(DOMAIN)}
        counter = SnapshotCounter(t1_records, disease_schema, index)
        assert counter.batch([]).tolist() == []


# ---------------------------------------------------------------------------
# the batch evaluator against the scalar oracle on random releases


def _tree(draw, leaves, name, depth):
    """A hierarchy subtree over `leaves`, cut into contiguous runs."""
    if depth == 0 or len(leaves) == 1:
        return list(leaves)
    cuts = sorted(draw(st.sets(st.integers(1, len(leaves) - 1), max_size=3)))
    out = {}
    for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, len(leaves)])):
        run = leaves[a:b]
        if len(run) == 1:
            out[run[0]] = None
        else:
            out[f"{name}/{i}"] = _tree(draw, run, f"{name}/{i}", depth - 1)
    return out


@st.composite
def attributes(draw, j, wide):
    """A numeric attribute, 2**32 to 2**40 points wide if `wide`, or a
    categorical one over a random hierarchy of up to 8 leaves."""
    if wide:
        lo = draw(st.integers(-2 ** 40, 2 ** 40))
        return AttributeSchema.numeric(
            f"a{j}", lo, lo + draw(st.integers(2 ** 32, 2 ** 40)))
    if draw(st.booleans()):
        lo = draw(st.integers(-5, 5))
        return AttributeSchema.numeric(f"a{j}", lo,
                                       lo + draw(st.integers(0, 12)))
    leaves = [f"a{j}.{i}" for i in range(draw(st.integers(1, 8)))]
    return AttributeSchema.categorical(
        f"a{j}", Hierarchy(f"a{j}", _tree(draw, leaves, f"a{j}", 2)))


def _value(draw, attr):
    if attr.kind == "numeric":
        return draw(st.integers(attr.lo, attr.hi))
    return draw(st.sampled_from(attr.hierarchy.leaves))


@st.composite
def estimate_cases(draw, wide=False):
    """(release, schema, domain, queries).  With `wide`, two or three
    numeric attributes each at least 2**32 points wide, and a first group
    spanning them all: its extent product alone is 2**64 or more."""
    n_attr = draw(st.integers(2, 3) if wide else st.integers(1, 3))
    qi = tuple(draw(attributes(j, wide)) for j in range(n_attr))
    domain = tuple(f"s{i}" for i in range(draw(st.integers(1, 6))))
    schema = TableSchema(qi, "s", domain)
    groups, n = [], 0
    for g in range(draw(st.integers(1, 8))):
        members = []
        for _ in range(draw(st.integers(1, 4))):
            n += 1
            members.append(Record(f"r{n}", tuple(_value(draw, a) for a in qi),
                                  draw(st.sampled_from(domain))))
        if wide and g == 0:
            for point in ((a.lo for a in qi), (a.hi for a in qi)):
                n += 1
                members.append(Record(f"r{n}", tuple(point), domain[0]))
        members += [CounterfeitMember(draw(st.sampled_from(domain)))
                    for _ in range(draw(st.integers(0, 2)))]
        groups.append(members)
    release = generalize(schema, 1, groups)

    def span(size):
        lo = draw(st.integers(0, size - 1))
        return (lo, draw(st.integers(lo, size - 1)))

    queries = [AggregateQuery(tuple(span(a.size) for a in qi),
                              span(len(domain)))
               for _ in range(draw(st.integers(1, 10)))]
    return release, schema, domain, queries


def numerator_bound(release, schema) -> int:
    """Real members times the largest region volume: no group's numerator
    over its own volume exceeds it."""
    real = sum(not m.counterfeit for g in release.groups for m in g.members)
    volume = max(math.prod(hi - lo + 1 for lo, hi in
                           (_region_span(a, c) for a, c in
                            zip(schema.qi, g.region)))
                 for g in release.groups)
    return real * volume


class TestBatchProperty:
    def _check(self, case, dtype):
        release, schema, domain, queries = case
        evaluator = ReleaseEvaluator(release, schema, domain)
        assert evaluator.dtype is dtype
        assert evaluator.batch(queries) == [
            estimate_count(release, q, schema, domain) for q in queries]

    @settings(max_examples=200, deadline=None)
    @given(estimate_cases())
    def test_int64_numerators(self, case):
        release, schema, _, _ = case
        assert numerator_bound(release, schema) < 2 ** 63
        self._check(case, np.int64)

    @settings(max_examples=100, deadline=None)
    @given(estimate_cases(wide=True))
    def test_python_int_numerators(self, case):
        release, schema, _, _ = case
        assert numerator_bound(release, schema) >= 2 ** 63
        self._check(case, object)


class TestRandomQuery:
    def test_spans_cover_a_theta_fraction(self, disease_schema):
        rng = random.Random(1)
        for theta in (0.25, 0.5, 0.75, 1.0):
            for _ in range(50):
                q = random_query(disease_schema, DOMAIN, theta, rng)
                for attr, (lo, hi) in zip(disease_schema.qi, q.qi_spans):
                    assert 0 <= lo <= hi < attr.size
                    assert hi - lo == min(attr.size - 1,
                                          round(theta * attr.size))
                slo, shi = q.sensitive_span
                assert 0 <= slo <= shi < len(DOMAIN)

    def test_full_theta_covers_every_axis(self, disease_schema):
        q = random_query(disease_schema, DOMAIN, 1.0, random.Random(4))
        assert q.qi_spans == ((0, 30), (0, 25))
        assert q.sensitive_span == (0, 6)

    def test_huge_theta_is_the_full_axis(self, disease_schema):
        # theta * size overflows float; a theta above 1 means the full axis
        assert (random_query(disease_schema, DOMAIN, 1e308, random.Random(4))
                == random_query(disease_schema, DOMAIN, 1.0,
                                random.Random(4)))


class TestMedian:
    def test_odd_and_even(self):
        assert median_fraction([F(3), F(1), F(2)]) == 2
        assert median_fraction([F(1), F(2), F(3), F(10)]) == F(5, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            median_fraction([])


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.publisher == "m_distinct"

    @pytest.mark.parametrize("kwargs", [
        {"publisher": "k_anonymity"},
        {"m": 1},
        {"d": 0},
        {"d": 51},
        {"n_queries": -1},
        {"thetas": (0.5, float("nan"))},
        {"thetas": (float("inf"),)},
        {"thetas": (-0.5,)},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)


SMALL = dict(m=2, d=5, n_records=40, n_releases=3, inserts=6, deletes=3,
             internal_updates=8, thetas=(0.5,), n_queries=40, seed=11,
             sensitive_size=10)


class TestRunExperiment:
    def test_engine_run_shapes_and_guarantees(self):
        report = run_experiment(ExperimentConfig(**SMALL))
        assert [r.release_index for r in report.releases] == [1, 2, 3]
        assert report.verify_ok, report.violations
        assert report.vulnerable == 0
        assert report.max_risk <= F(1, 2)
        assert report.pooled_medians[0.5] >= 0
        rows = report.to_rows()
        assert rows[0] == ["release", "n_groups", "n_counterfeits", "cnt_g",
                           "vulnerable", "invalidated",
                           "median_error_theta_0.5"]
        assert len(rows) == 4
        assert len(report.timing_rows()) == 4
        keys = [row[0] for row in report.summary_rows()]
        assert keys[:5] == ["key", "publisher", "m", "d", "seed"]
        assert "vulnerable_final" in keys and "verify_ok" in keys

    def test_rerun_is_deterministic(self):
        a = run_experiment(ExperimentConfig(**SMALL))
        b = run_experiment(ExperimentConfig(**SMALL))
        assert a.to_rows() == b.to_rows()
        assert a.summary_rows() == b.summary_rows()
        assert a.published == b.published

    def test_zero_releases_is_an_empty_report(self):
        report = run_experiment(ExperimentConfig(**{**SMALL,
                                                    "n_releases": 0}))
        assert report.releases == []
        assert report.pooled_medians == {} and report.release_medians == {}
        assert not report.verify_ok
        assert report.to_rows()[1:] == []

    def test_repeated_theta(self):
        """Each release keeps its first pass's median; the pooled median
        covers both passes.  Read off the written rows, with the medians'
        inputs recorded as run_experiment asks for them."""
        calls = []

        def recording(values):
            calls.append(list(values))
            return median_fraction(values)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "median_fraction", recording)
            report = run_experiment(ExperimentConfig(
                **{**SMALL, "thetas": (0.5, 0.5)}))
        n = len(report.releases)
        passes, pooled = calls[:2 * n], calls[2 * n:]
        everything = [e for errs in passes for e in errs]
        assert pooled and all(c == everything for c in pooled)
        firsts = passes[::2]
        assert any(median_fraction(a) != median_fraction(b)
                   for a, b in zip(firsts, passes[1::2]))

        def frac(x):
            return f"{x.numerator}/{x.denominator}"

        for row, errs in zip(report.to_rows()[1:], firsts):
            assert row[-2:] == [frac(median_fraction(errs))] * 2
        summary = [row for row in report.summary_rows()
                   if row[0] == "pooled_median_error_theta_0.5"]
        assert summary == [["pooled_median_error_theta_0.5",
                            frac(median_fraction(everything))]] * 2

    def test_single_value_churn_never_invalidates(self):
        config = ExperimentConfig(publisher="m_invariance",
                                  **{**SMALL, "d": 1})
        report = run_experiment(config)
        assert [r.invalidated for r in report.releases] == [0, 0, 0]

    def test_wider_churn_eventually_invalidates(self):
        config = ExperimentConfig(publisher="m_invariance", **SMALL)
        report = run_experiment(config)
        assert report.releases[-1].invalidated > 0


# ---------------------------------------------------------------------------
# the integer kernels against their plain twins


TINY = F(1, 2 ** 80)


@st.composite
def colliding_fractions(draw):
    """Fractions built to tie in float, with an odd or even count: values
    next to x + 2**-80, integers above 2**53 next to their successors, and
    repeats."""
    bases = draw(st.lists(st.one_of(
        st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                     max_denominator=10 ** 6),
        st.integers(2 ** 53, 2 ** 60).map(F)), min_size=1, max_size=4))
    pool = [x + k * TINY for x in bases for k in (-1, 0, 1)]
    pool += [x + 1 for x in bases if x >= 2 ** 53]
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    if len(values) % 2 != draw(st.integers(0, 1)):
        values.append(values[0])
    return values


def plain_median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


class TestFloatKeyedMedian:
    def test_inputs_do_tie_in_float(self):
        assert float(F(1, 3)) == float(F(1, 3) + TINY)
        assert float(F(2 ** 53)) == float(F(2 ** 53 + 1))

    @settings(max_examples=300, deadline=None)
    @given(colliding_fractions())
    def test_equals_the_plain_sort(self, values):
        assert median_fraction(values) == plain_median(values)

    def test_beyond_float_range(self):
        huge = F(2 ** 2000)
        assert median_fraction([huge, F(1), F(3)]) == 3
        assert median_fraction([huge, huge + TINY, F(-1)]) == huge


@st.composite
def count_cases(draw):
    """(records, schema, domain, queries): up to 12 records over narrow
    and wide attributes, and queries mixing full-axis spans, single cells
    (often on a record's own index) and random spans."""
    n_attr = draw(st.integers(1, 3))
    qi = tuple(draw(attributes(j, draw(st.booleans())))
               for j in range(n_attr))
    domain = tuple(f"s{i}" for i in range(draw(st.integers(1, 6))))
    schema = TableSchema(qi, "s", domain)
    records = [Record(f"r{i}", tuple(_value(draw, a) for a in qi),
                      draw(st.sampled_from(domain)))
               for i in range(draw(st.integers(0, 12)))]

    def span(size, hits):
        kind = draw(st.sampled_from(("full", "cell", "any")))
        if kind == "full":
            return (0, size - 1)
        if kind == "cell":
            v = draw(st.sampled_from(hits) if hits
                     else st.integers(0, size - 1))
            return (v, v)
        lo = draw(st.integers(0, size - 1))
        return (lo, draw(st.integers(lo, size - 1)))

    index = {v: i for i, v in enumerate(domain)}
    queries = [AggregateQuery(
        tuple(span(a.size, [a.to_index(r.qi[j]) for r in records])
              for j, a in enumerate(qi)),
        span(len(domain), [index[r.sensitive] for r in records]))
        for _ in range(draw(st.integers(1, 10)))]
    return records, schema, domain, queries


class TestBitsetCounter:
    @staticmethod
    def _check(records, schema, domain, queries):
        index = {v: i for i, v in enumerate(domain)}
        counts = SnapshotCounter(records, schema, index).batch(queries)
        assert counts.dtype == np.int64
        assert counts.tolist() == [actual_count(records, q, schema, index)
                                   for q in queries]

    @settings(max_examples=200, deadline=None)
    @given(count_cases())
    def test_matches_scalar_count(self, case):
        self._check(*case)

    def test_empty_and_single_record_snapshots(self, t1_records,
                                               disease_schema):
        rng = random.Random(2)
        queries = [ALL, AggregateQuery(((0, 0), (0, 0)), (0, 0))] + [
            random_query(disease_schema, DOMAIN, theta, rng)
            for theta in (0.0, 0.5) for _ in range(20)]
        for snapshot in ([], t1_records[:1]):
            self._check(snapshot, disease_schema, DOMAIN, queries)
        one = t1_records[0]
        cell = AggregateQuery(
            tuple((a.to_index(v), a.to_index(v))
                  for a, v in zip(disease_schema.qi, one.qi)),
            (DOMAIN.index(one.sensitive),) * 2)
        index = {v: i for i, v in enumerate(DOMAIN)}
        assert SnapshotCounter([one], disease_schema, index).batch(
            [cell, ALL]).tolist() == [1, 1]


def _primes(lo: int, n: int) -> list[int]:
    out, k = [], lo
    while len(out) < n:
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            out.append(k)
        k += 1
    return out


class TestLimbDot:
    """Regions of 12 distinct prime volumes above 1000 give a release
    whose common denominator is over 100 bits wide."""

    @pytest.fixture(scope="class")
    def case(self):
        qi = (AttributeSchema.numeric("age", 0, 2000),)
        domain = ("s0", "s1")
        schema = TableSchema(qi, "s", domain)
        groups = [[Record(f"r{p}a", (0,), "s0"),
                   Record(f"r{p}b", (p - 1,), domain[p % 2])]
                  for p in _primes(1000, 12)]
        release = generalize(schema, 1, groups)
        rng = random.Random(5)
        queries = [random_query(schema, domain, theta, rng)
                   for theta in (0.1, 0.4, 0.9) for _ in range(30)]
        return release, schema, domain, queries

    def test_wide_lcm_on_limbs(self, case):
        release, schema, domain, queries = case
        evaluator = ReleaseEvaluator(release, schema, domain)
        assert evaluator.lcm.bit_length() > 100
        assert evaluator.dtype is np.int64
        with patch.object(evaluation, "_split",
                          wraps=evaluation._split) as split:
            assert evaluator.batch(queries) == [
                estimate_count(release, q, schema, domain) for q in queries]
        assert split.called     # the int64 limb product ran

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 52), st.integers(1, 5), st.randoms())
    def test_totals_equal_the_object_dot(self, case, top, rows, rnd):
        release, schema, domain, _ = case
        evaluator = ReleaseEvaluator(release, schema, domain)
        sums = np.array([[rnd.randint(0, top) for _ in evaluator.mult]
                         for _ in range(rows)], dtype=np.int64)
        width = 63 - (len(evaluator.mult) * int(sums.max())).bit_length()
        with patch.object(evaluation, "_split",
                          wraps=evaluation._split) as split:
            assert evaluator._totals(sums) == \
                sums.astype(object).dot(evaluator.mult).tolist()
        # below 16-bit limbs the Python-int dot ran instead
        assert split.called == (width >= 16)
