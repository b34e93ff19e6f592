import copy
import random
import sys
from collections import Counter
from fractions import Fraction
from math import prod

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mdistinct import engine
from mdistinct.engine import (Bucket, EngineState, PrevInfo, _Extents,
                              _emit_group, _epsilon, _point, _score,
                              phase1_create_buckets,
                              phase2_assign, phase3_split, publish,
                              static_partition, verify_m_distinct)
from mdistinct.errors import InfeasibilityError, ValidationError
from mdistinct.evaluation import ExperimentConfig, run_experiment
from mdistinct.fileio import (apply_external_updates, initial_population,
                              synthesize_internal_updates, synthetic_schema)
from mdistinct.model import (AttributeSchema, CounterfeitMember, Hierarchy,
                             Record, TableSchema, generalize)
from mdistinct.updates import USS, UpdateModel, implies, uss_of
from mdistinct.baselines import count_vulnerable, max_risk
from mdistinct.sug import attack_release_sequence

from conftest import add, side_numerator, span_extent

F = Fraction


def sig_of(*value_sets) -> USS:
    return USS([frozenset(s) for s in value_sets])


class TestPhase1:
    def test_shared_signature_collapses_to_one_bucket(self, worked_model):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        buckets = phase1_create_buckets([sig, sig, sig])
        assert len(buckets) == 1
        assert buckets[0].origin == "signature"

    def test_intersectable_pair_appends_third_bucket(self):
        a = sig_of({"a", "b"}, {"c", "d"})
        b = sig_of({"b", "c"}, {"d", "e"})
        buckets = phase1_create_buckets([a, b])
        assert [bk.origin for bk in buckets] == ["signature", "signature",
                                                 "intersection"]
        assert buckets[2].signature == sig_of({"b"}, {"d"})

    def test_absorbed_intersection_deduplicated(self):
        coarse = sig_of({"a", "b"}, {"c", "d", "e"})
        fine = sig_of({"a", "b"}, {"c", "d"})
        buckets = phase1_create_buckets([coarse, fine])
        # their best intersection IS the finer signature, already queued
        assert len(buckets) == 2

    def test_nine_entry_intersection_has_the_most_overlap(self):
        # entry-by-entry greedy picks pair a's {b,d} with b's {c,d}, which
        # leaves a's {c,d} a {d}: overlap 9, score 9/14; the best pairing
        # keeps {c,d} whole: overlap 10, score 10/13
        a = sig_of({"a"}, {"a"}, {"a", "c"}, {"b"}, {"b", "d"}, {"c"}, {"c"},
                   {"c", "d"}, {"d"})
        b = sig_of({"a"}, {"a"}, {"b", "d"}, {"c"}, {"c"}, {"c"}, {"c", "d"},
                   {"d"}, {"d"})
        buckets = phase1_create_buckets([a, b])
        assert [bk.origin for bk in buckets] == ["signature", "signature",
                                                 "intersection"]
        assert buckets[2].signature == sig_of(
            {"a"}, {"a"}, {"b"}, {"c"}, {"c"}, {"c"}, {"c", "d"}, {"d"},
            {"d"})

    def test_worked_first_release_signatures(self, worked_model):
        # the three first-release groups yield only two distinct signatures
        # ({Dysp,Pneu} and {Pneu,Gastritis} canonicalize identically), and
        # eye/respiratory entries cannot pair, so no intersection bucket
        sigs = [uss_of(v, worked_model)
                for v in (["Dyspepsia", "Pneumonia"],
                          ["Pneumonia", "Gastritis"],
                          ["Glaucoma", "Flu"])]
        buckets = phase1_create_buckets(sigs)
        assert len(buckets) == 2
        assert all(b.origin == "signature" for b in buckets)


class TestCntBuc:
    """CNT_buc, the number of buckets a record may join: the buckets that
    cover its value and that its previous signature implies (star mode
    first-timers: whose entries are pairwise disjoint)."""

    def test_returning_record_counts_implied_covering_buckets(
            self, worked_model, disease_schema):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        other = uss_of(["Dyspepsia", "Glaucoma"], worked_model)
        buckets = phase1_create_buckets([other, sig])
        state = EngineState(m=2, prev={"Ken": PrevInfo("Pneumonia", sig, 1)})
        ken = Record("Ken", (14, 20), "Dyspepsia")
        # both buckets cover Dyspepsia and tie on score; only the second is
        # implied by sig
        assert phase2_assign([ken], state, buckets, disease_schema) == []
        assert [b.entries for b in buckets] == [[[], []], [[ken], []]]
        # the state keeps both verdicts for the next release
        assert state.verdicts == {(sig, other): False, (sig, sig): True}

    def test_uncovered_value_counts_nothing(self, worked_model,
                                            disease_schema):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        buckets = phase1_create_buckets([sig])
        stranger = Record("new", (20, 20), "Cataract")
        assert phase2_assign([stranger], EngineState(m=2), buckets,
                             disease_schema) == [stranger]
        assert buckets[0].size == 0

    def test_star_first_timer_skips_overlapping_entries(self, small_schema):
        def placed(mode):
            buckets = [Bucket(sig_of({"a", "b"}, {"b", "c"}), "signature"),
                       Bucket(sig_of({"a"}, {"b", "c"}), "signature")]
            assert phase2_assign([Record("r", (1,), "a")],
                                 EngineState(m=2, mode=mode), buckets,
                                 small_schema) == []
            return [b.size for b in buckets]

        # both empty buckets tie on score, so the first wins unless skipped
        assert placed("m_distinct_star") == [0, 1]
        assert placed("m_distinct") == [1, 0]


@pytest.fixture
def small_schema():
    return TableSchema((AttributeSchema.numeric("x", 0, 9),), "s",
                       ("a", "b", "c", "d", "e"))


def _recount(bucket, schema):
    """(size, delta, extent product) of a bucket, from its members."""
    members = [r for entry in bucket.entries for r in entry]
    freq = Counter(r.sensitive for r in members)
    delta = max(max(freq.values(), default=0),
                max(len(e) for e in bucket.entries))
    product = 1
    if members:
        for j, attr in enumerate(schema.qi):
            idx = [attr.to_index(r.qi[j]) for r in members]
            product *= span_extent(attr, min(idx), max(idx))
    return len(members), delta, product


STATE_SCHEMA = TableSchema(
    (AttributeSchema.numeric("x", 0, 9),
     AttributeSchema.categorical("c", Hierarchy("any", {
         "p": ["a", "b"], "q": {"r": ["c", "d"], "e": None}}))),
    "s", ("a", "b", "c", "d"))


class TestBucketState:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9),
                              st.sampled_from("abcde"),
                              st.sampled_from("abcd")), max_size=12))
    def test_running_state_matches_a_recount(self, adds):
        """After every add, the size, delta() and extent product kept by
        `add` equal a recount from the members."""
        cus = [{"a", "b"}, {"b", "c"}, {"a", "b", "c", "d"}]
        bucket = Bucket(sig_of(*cus), "signature")
        entry_cus = bucket.signature.entries
        assert (bucket.size, bucket.delta(), bucket.extent_product) \
            == (0, 0, 1)
        for n, (entry, x, c, value) in enumerate(adds):
            if value not in entry_cus[entry]:
                value = min(entry_cus[entry])
            add(bucket, Record(f"r{n}", (x, c), value), entry, STATE_SCHEMA)
            assert (bucket.size, bucket.delta(), bucket.extent_product) \
                == _recount(bucket, STATE_SCHEMA)


def assignment_score(rec, bucket, entry_index, schema):
    """(epsilon, lam, score) of a record against a bucket entry, from the
    integer helpers phase 2 runs: score = 1/lam when epsilon is +1, -lam
    when it is -1, with lam the extent product after over before."""
    eps = _epsilon(bucket, entry_index, rec.sensitive)
    before = bucket.extent_product
    after = bucket.extent_product_with(_point(schema.qi, rec),
                                       _Extents(schema.qi))
    return eps, F(after, before), F(*_score(eps, before, after))


class TestAssignmentScore:
    def test_empty_bucket_scores_one(self, small_schema):
        bucket = Bucket(sig_of({"a", "b"}, {"c"}), "signature")
        assert assignment_score(Record("r1", (4,), "a"), bucket, 0,
                                small_schema) == (1, F(1), F(1))

    def test_inside_region_no_collision_scores_one(self, small_schema):
        bucket = Bucket(sig_of({"a", "b"}, {"c", "d"}), "signature")
        add(bucket, Record("r1", (2,), "a"), 0, small_schema)
        add(bucket, Record("r2", (6,), "c"), 1, small_schema)
        # entry 1 already holds delta records
        assert _epsilon(bucket, 1, "d") == -1
        assert assignment_score(Record("r3", (4,), "b"), bucket, 0,
                                small_schema) == (-1, F(1), F(-1))

    def test_region_growth_penalized(self, small_schema):
        bucket = Bucket(sig_of({"a", "b"}, {"c", "d"}), "signature")
        add(bucket, Record("r1", (2,), "a"), 0, small_schema)
        add(bucket, Record("r2", (3,), "c"), 1, small_schema)
        add(bucket, Record("r3", (3,), "b"), 0, small_schema)
        # delta=2, entry 1 has room and "d" is fresh: epsilon=+1,
        # lambda = extent 0..3 over extent 2..3
        assert assignment_score(Record("r4", (0,), "d"), bucket, 1,
                                small_schema) == (1, F(2), F(1, 2))

    def test_value_outside_entry_rejected(self, small_schema):
        """Phase 2 only places a record in an entry whose CUS holds its
        value, even when another entry has fewer records."""
        bucket = Bucket(sig_of({"a"}, {"b"}), "signature")
        records = [Record("r1", (1,), "b"), Record("r2", (2,), "b"),
                   Record("r3", (3,), "c")]
        assert phase2_assign(records, EngineState(m=2), [bucket],
                             small_schema) == records[2:]
        assert bucket.entries == [[], records[:2]]


class TestPhase2:
    def test_new_records_without_buckets_pool(self, small_schema):
        records = [Record("r1", (1,), "a"), Record("r2", (2,), "b")]
        pool = phase2_assign(records, EngineState(m=2), [], small_schema)
        assert pool == records

    def test_returning_record_with_no_bucket_is_model_contradiction(
            self, worked_model, small_schema):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        buckets = phase1_create_buckets([sig])
        state = EngineState(m=2, prev={"Ken": PrevInfo("Dyspepsia", sig, 1)})
        with pytest.raises(ValidationError, match="contradicts"):
            phase2_assign([Record("Ken", (3,), "Glaucoma")], state, buckets,
                          small_schema)

    def test_worked_second_release_lands_in_implied_buckets(
            self, worked_model, disease_schema, t1_records, t2_records):
        state = EngineState(m=2)
        _, state = publish(t1_records, state, worked_model, disease_schema,
                           seed=3)
        prev = dict(state.prev)
        buckets = phase1_create_buckets(
            [prev[r.id].signature for r in sorted(t2_records,
                                                  key=lambda r: r.id)])
        pool = phase2_assign(sorted(t2_records, key=lambda r: r.id), state,
                             buckets, disease_schema)
        assert pool == []
        for bucket in buckets:
            for entry, cus in zip(bucket.entries, bucket.signature.entries):
                for rec in entry:
                    assert rec.sensitive in cus
                    assert implies(prev[rec.id].signature, bucket.signature)


def test_later_publish_asks_implies_only_about_new_pairs(monkeypatch):
    """Each publish of a small m=4 run asks `implies` only about pairs no
    earlier publish of the run asked about, each once, and its phase 2
    fills the buckets as a state with empty memos would."""
    real_phase2 = engine.phase2_assign
    asked, repeats = [], []

    def pairs_asked(state, records, buckets, schema):
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return implies(a, b)

        with mock.patch.object(engine, "implies", recording):
            pool = real_phase2(records, state, buckets, schema)
        return pool, calls

    def checked_phase2(records, state, buckets, schema):
        known = set(state.verdicts)
        fresh = [Bucket(b.signature, b.origin) for b in buckets]
        got, calls = pairs_asked(state, records, buckets, schema)
        assert not known & set(calls) and len(set(calls)) == len(calls)
        memo_less = EngineState(state.m, state.mode, state.release_count,
                                dict(state.prev))
        pool, again = pairs_asked(memo_less, records, fresh, schema)
        assert pool == got
        assert [b.entries for b in fresh] == [b.entries for b in buckets]
        asked.append(calls)
        repeats.append(len(again) - len(calls))
        return got

    monkeypatch.setattr(engine, "phase2_assign", checked_phase2)
    run_experiment(ExperimentConfig(
        m=4, n_records=120, n_releases=4, inserts=20, deletes=10,
        internal_updates=30, n_queries=0, seed=5))
    # the first publish has no returning record; the second asks afresh
    assert len(asked) == 4 and not asked[0] and asked[1]
    # a memo-less state would ask again about pairs an earlier publish
    # settled
    assert repeats[:2] == [0, 0] and sum(repeats) > 0


class TestBalance:
    def test_pads_every_entry_to_delta(self, small_schema):
        """Each entry gets delta - len(entry) counterfeit slots, whose
        values `_emit_group` draws from that entry's CUS."""
        bucket = Bucket(sig_of({"a", "b"}, {"c"}, {"d", "e"}), "signature")
        add(bucket, Record("r1", (1,), "a"), 0, small_schema)
        add(bucket, Record("r2", (2,), "b"), 0, small_schema)
        add(bucket, Record("r3", (3,), "a"), 0, small_schema)
        add(bucket, Record("r4", (4,), "c"), 1, small_schema)
        add(bucket, Record("r5", (5,), "d"), 2, small_schema)
        add(bucket, Record("r6", (6,), "e"), 2, small_schema)
        assert bucket.delta() == 3
        groups = [_emit_group(group, bucket.signature.entries,
                              random.Random(0))
                  for group in phase3_split(bucket, small_schema)]
        assert len(groups) == 3
        fakes = Counter()
        for group in groups:
            for cus, member in zip(bucket.signature.entries, group):
                if isinstance(member, CounterfeitMember):
                    assert member.sensitive in cus
                    fakes[cus] += 1
        assert [fakes[cus] for cus in bucket.signature.entries] == [0, 2, 1]


class TestSplitScore:
    def test_tight_split_beats_interleaved(self):
        """sum over sides of |side| * extent(side) / extent(parent), as the
        integer numerator over the parent's extent product."""
        schema = TableSchema((AttributeSchema.numeric("x", 1, 10),), "s",
                             ("a", "b"))
        (attr,) = schema.qi
        parent = [10]
        cof = [prod(parent) // e for e in parent]

        def numerator(*sides):
            return sum(n * side_numerator(
                [span_extent(attr, lo, hi) for lo, hi in spans], cof)
                for n, spans in sides)

        tight = numerator((2, [(0, 1)]), (2, [(8, 9)]))
        crossed = numerator((2, [(0, 8)]), (2, [(1, 9)]))
        assert F(tight, prod(parent)) == F(4, 5)
        assert F(crossed, prod(parent)) == F(18, 5)
        assert tight < crossed


GEOMETRIC = 400  # records; x = 2^0 .. 2^399


def geometric_schema(values: str) -> TableSchema:
    """One numeric QI spanning 2^0 .. 2^(GEOMETRIC - 1).  Records at the
    powers of two make each cut take a few records off the top, so the
    partitioners' nesting grows with the record count."""
    return TableSchema(
        (AttributeSchema.numeric("x", 1, 2 ** (GEOMETRIC - 1)),), "s",
        tuple(values))


def with_shallow_stack(run, frames: int = 40):
    """`run()` with the recursion limit `frames` above the current stack
    depth, so that nesting one frame per partition level fails."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return run()
    finally:
        sys.setrecursionlimit(limit)


class TestPhase3:
    def _bucket(self, schema):
        bucket = Bucket(sig_of({"a", "b"}, {"c", "d"}), "signature")
        add(bucket, Record("r1", (0,), "a"), 0, schema)
        add(bucket, Record("r2", (9,), "b"), 0, schema)
        add(bucket, Record("r3", (1,), "c"), 1, schema)
        add(bucket, Record("r4", (8,), "d"), 1, schema)
        return bucket

    def test_splits_along_the_gap(self, small_schema):
        groups = phase3_split(self._bucket(small_schema), small_schema)
        members = sorted(sorted(r.id for r in g) for g in groups)
        assert members == [["r1", "r3"], ["r2", "r4"]]

    def test_counterfeit_values_come_from_the_entry(self, small_schema):
        bucket = Bucket(sig_of({"a", "b"}, {"c", "d"}), "signature")
        add(bucket, Record("r1", (0,), "a"), 0, small_schema)
        add(bucket, Record("r2", (9,), "b"), 0, small_schema)
        add(bucket, Record("r3", (1,), "c"), 1, small_schema)
        groups = [_emit_group(group, bucket.signature.entries,
                              random.Random(0))
                  for group in phase3_split(bucket, small_schema)]
        assert len(groups) == 2
        for group in groups:
            values = [m.sensitive for m in group]
            assert len(set(values)) == 2
            fakes = [m for m in group if isinstance(m, CounterfeitMember)]
            for fake in fakes:
                assert fake.sensitive in {"c", "d"}

    def test_unsplittable_bucket_falls_back_but_stays_legal(self,
                                                          small_schema):
        # the one pick on x takes 2 and 4 and leaves both c cells on side B,
        # so no split is valid and the fallback decomposes the bucket
        bucket = Bucket(sig_of({"a", "c"}, {"b", "c"}), "signature")
        add(bucket, Record("r0", (5,), "c"), 0, small_schema)
        add(bucket, Record("r1", (2,), "a"), 0, small_schema)
        add(bucket, Record("s0", (6,), "c"), 1, small_schema)
        add(bucket, Record("s1", (4,), "b"), 1, small_schema)
        groups = phase3_split(bucket, small_schema)
        assert len(groups) == bucket.delta() == 2
        for group in groups:
            assert len(group) == 2
            values = [m.sensitive for m in group if m is not None]
            assert len(set(values)) == len(values)
            assert any(m is not None for m in group)

    def test_peeling_bucket_needs_no_recursion(self):
        schema = geometric_schema("ab")
        bucket = Bucket(sig_of({"a"}, {"b"}), "signature")
        for i in range(GEOMETRIC):
            add(bucket, Record(f"r{i:03d}", (2 ** i,), "ab"[i % 2]), i % 2,
                schema)
        groups = with_shallow_stack(
            lambda: phase3_split(bucket, schema))
        assert len(groups) == GEOMETRIC // 2
        assert all(sorted(m.sensitive for m in g) == ["a", "b"]
                   for g in groups)


class TestStaticPartition:
    def test_geometric_pool_needs_no_recursion(self):
        values = "abcd"
        model = UpdateModel.from_classes([[v] for v in values])
        pool = [Record(f"r{i:03d}", (2 ** i,), values[i % 4])
                for i in range(GEOMETRIC)]
        groups = with_shallow_stack(lambda: static_partition(
            pool, 2, geometric_schema(values), model, random.Random(0)))
        assert sorted(m.id for g in groups for m in g) == [r.id for r in pool]
        assert all(len({m.sensitive for m in g}) == len(g) >= 2
                   for g in groups)

    def test_worked_first_release_grouping(self, t1_records, worked_model,
                                           disease_schema):
        groups = static_partition(t1_records, 2, disease_schema, worked_model,
                                  random.Random(0))
        ids = sorted(sorted(r.id for r in g) for g in groups)
        assert ids == [["Ben", "Lily"], ["Harry", "Tom"], ["Julia", "Ken"]]

    def test_ineligible_pool_gets_counterfeits(self, worked_model,
                                               disease_schema):
        records = [Record(f"r{i}", (10 + i, 20 + i), "Flu") for i in range(3)]
        groups = static_partition(records, 2, disease_schema, worked_model,
                                  random.Random(0))
        assert len(groups) == 3
        for group in groups:
            values = [m.sensitive for m in group]
            assert len(values) == 2 and len(set(values)) == 2
            assert sum(isinstance(m, CounterfeitMember) for m in group) == 1

    def test_star_mode_groups_have_disjoint_cus(self, worked_model,
                                                disease_schema):
        records = [Record("r1", (10, 20), "Flu"),
                   Record("r2", (11, 21), "Pneumonia"),
                   Record("r3", (30, 30), "Dyspepsia"),
                   Record("r4", (31, 31), "Glaucoma")]
        groups = static_partition(records, 2, disease_schema, worked_model,
                                  random.Random(0), star=True)
        for group in groups:
            sets = [worked_model.cus_of(m.sensitive) for m in group]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert not (sets[i] & sets[j])

    def test_empty_input_is_empty(self, worked_model, disease_schema):
        assert static_partition([], 2, disease_schema, worked_model,
                                random.Random(0)) == []


class TestPublish:
    def test_two_release_worked_flow(self, t1_records, t2_records,
                                     worked_model, disease_schema,
                                     histories_12):
        state = EngineState(m=2)
        r1, state = publish(t1_records, state, worked_model, disease_schema,
                            seed=3)
        r2, state = publish(t2_records, state, worked_model, disease_schema,
                            seed=3)
        ok, violations = verify_m_distinct([r1, r2], worked_model, 2)
        assert ok, violations
        reports = attack_release_sequence([r1, r2], None, worked_model,
                                          histories_12)
        assert count_vulnerable(reports) == 0
        assert max_risk(reports) == F(1, 2)

    def test_deterministic_given_seed(self, t1_records, worked_model,
                                      disease_schema):
        a, _ = publish(t1_records, EngineState(m=2), worked_model,
                       disease_schema, seed=9)
        b, _ = publish(t1_records, EngineState(m=2), worked_model,
                       disease_schema, seed=9)
        assert a == b

    @pytest.mark.parametrize("mode, m", [
        ("m_distinct", 2), ("m_distinct", 6), ("m_distinct_star", 2)])
    def test_seed_chooses_only_counterfeit_values(self, mode, m):
        """The same records and state published under two seeds make the
        same groups: real members, regions and counterfeit counts.  Only
        counterfeit values differ, on a first release and on a second one
        published from one shared state."""
        schema, model = synthetic_schema()
        rng = random.Random(4)
        first, next_id = initial_population(400, schema, model, rng)
        second = synthesize_internal_updates(first, schema, model, 100, rng)
        second, _ = apply_external_updates(second, schema, rng, 40, 20,
                                           next_id)

        def shape(release):
            return [(g.region, [mm.rid for mm in g.members
                                if not mm.counterfeit], g.counterfeit_count)
                    for g in release.groups]

        state = EngineState(m, mode)
        for records in (first, second):
            a, _ = publish(records, copy.deepcopy(state), model, schema,
                           seed=1)
            b, _ = publish(records, copy.deepcopy(state), model, schema,
                           seed=2)
            assert shape(a) == shape(b)
            _, state = publish(records, state, model, schema, seed=0)
        # the second release has counterfeits, and the seeds drew them
        # differently
        assert sum(a.counterfeit_stats.values()) > 0 and a != b

    def test_duplicate_ids_rejected(self, worked_model, disease_schema):
        rec = Record("Ken", (14, 20), "Dyspepsia")
        with pytest.raises(ValidationError):
            publish([rec, rec], EngineState(m=2), worked_model,
                    disease_schema, seed=0)

    def test_model_contradiction_rejected(self, t1_records, worked_model,
                                          disease_schema):
        state = EngineState(m=2)
        publish(t1_records, state, worked_model, disease_schema, seed=3)
        jump = [Record("Ken", (14, 20), "Glaucoma"),
                Record("Julia", (16, 23), "Pneumonia")]
        with pytest.raises(ValidationError):
            publish(jump, state, worked_model, disease_schema, seed=3)

    def test_returning_after_a_gap_rejected(self, t1_records, worked_model,
                                            disease_schema):
        state = EngineState(m=2)
        publish(t1_records, state, worked_model, disease_schema, seed=3)
        others = [Record("Amy", (20, 20), "Flu"),
                  Record("Bob", (21, 21), "Glaucoma")]
        publish(others, state, worked_model, disease_schema, seed=3)
        with pytest.raises(ValidationError, match="record 'Ben' last "
                           "appeared in release 1 and returns in release 3"):
            publish(t1_records, state, worked_model, disease_schema, seed=3)
        assert state.release_count == 2

    def test_nothing_to_publish(self, worked_model, disease_schema):
        with pytest.raises(ValidationError):
            publish([], EngineState(m=2), worked_model, disease_schema,
                    seed=0)

    def test_empty_intersection_bucket_is_not_split(self):
        """Signatures {a,b},{c,d} and {b,c},{d,e} intersect in {b},{d}.
        Phase 2 fills both signature buckets, which score 1 first, and
        leaves the intersection bucket empty, so publish hands phase 3 the
        two filled buckets only."""
        model = UpdateModel.uniform({"p": ["a", "b"], "q": ["c", "d"],
                                     "r": ["b", "c"], "s": ["d", "e"],
                                     **{v: [v] for v in "abcde"}})
        schema = TableSchema((AttributeSchema.numeric("x", 0, 9),), "s",
                             model.sensitive_domain)
        a, b = uss_of(["p", "q"], model), uss_of(["r", "s"], model)
        state = EngineState(m=2, release_count=1, prev={
            "r1": PrevInfo("p", a, 1), "r2": PrevInfo("q", a, 1),
            "r3": PrevInfo("r", b, 1), "r4": PrevInfo("s", b, 1)})
        records = [Record(rid, (1,), value)
                   for rid, value in zip(["r1", "r2", "r3", "r4"], "acbd")]
        made: list[Bucket] = []

        def phase1(signatures):
            made.extend(phase1_create_buckets(signatures))
            return made

        with mock.patch.object(engine, "phase1_create_buckets", phase1), \
                mock.patch.object(engine, "phase3_split",
                                  wraps=phase3_split) as split:
            release, _ = publish(records, state, model, schema, seed=1)
        assert [(bk.origin, bk.size) for bk in made] == [
            ("signature", 2), ("signature", 2), ("intersection", 0)]
        assert made[2].signature == sig_of({"b"}, {"d"})
        assert [call.args[0] for call in split.call_args_list] == made[:2]
        assert [[mm.rid for mm in g.members] for g in release.groups] == [
            ["r1", "r2"], ["r3", "r4"]]

    def test_star_mode_first_release_disjoint(self, t1_records, worked_model,
                                              disease_schema):
        state = EngineState(m=2, mode="m_distinct_star")
        r1, _ = publish(t1_records, state, worked_model, disease_schema,
                        seed=3)
        ok, violations = verify_m_distinct([r1], worked_model, 2, star=True)
        assert ok, violations


class TestVerify:
    def test_flags_small_groups_and_duplicates(self, worked_model,
                                               disease_schema):
        release = generalize(disease_schema, 1, [
            [Record("a", (10, 20), "Flu")],
            [Record("b", (11, 21), "Pneumonia"),
             Record("c", (12, 22), "Pneumonia")],
        ])
        ok, violations = verify_m_distinct([release], worked_model, 2)
        assert not ok
        assert any("fewer than 2" in v for v in violations)
        assert any("duplicate sensitive values" in v for v in violations)

    def test_flags_illegal_regrouping(self, release_one, release_two_naive,
                                      worked_model):
        # Ken's second group {Dyspepsia, Glaucoma} is not a legal update
        # instance of his first signature
        ok, violations = verify_m_distinct(
            [release_one, release_two_naive], worked_model, 2)
        assert not ok
        assert any("legal update instance" in v for v in violations)

    def test_flags_a_record_that_skips_a_release(self, t1_records,
                                                 worked_model,
                                                 disease_schema):
        # Julia (Pneumonia) and Ken (Dyspepsia) may keep their values, so
        # the skipped release is the only violation
        pair = t1_records[2:4]
        first = generalize(disease_schema, 1, [pair])
        middle = generalize(disease_schema, 2, [t1_records[:2]])
        back = generalize(disease_schema, 3, [pair])
        ok, violations = verify_m_distinct([first, middle, back],
                                           worked_model, 2)
        assert not ok
        assert violations == [
            f"release 3 group 1: {r.id!r} last appeared in release 1; a "
            f"record may not skip a release" for r in pair]

    def test_flags_a_record_placed_in_two_groups(self, worked_model,
                                                 disease_schema):
        release = generalize(disease_schema, 1, [
            [Record("a", (10, 20), "Flu"), Record("b", (11, 21), "Glaucoma")],
            [Record("a", (12, 22), "Pneumonia"),
             Record("c", (13, 23), "Cataract")],
        ])
        # the second group is even a legal update instance of the first
        ok, violations = verify_m_distinct([release], worked_model, 2)
        assert not ok
        assert violations == ["release 1: id 'a' appears in two groups"]

    def test_defended_sequence_passes(self, release_one, release_two_defended,
                                      worked_model):
        ok, violations = verify_m_distinct(
            [release_one, release_two_defended], worked_model, 2)
        assert ok, violations

    def test_release_given_twice_refused(self, release_one, worked_model):
        # before, [release_one, release_one] verified as (True, [])
        with pytest.raises(ValidationError, match="^release 1 given twice$"):
            verify_m_distinct([release_one, release_one], worked_model, 2)


# ---------------------------------------------------------------------------
# randomized end-to-end soundness


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_random_histories_always_verify(seed, m):
    """Publishing a few random snapshots under a random class model always
    produces verifiable sequences with no fully disclosed record."""
    rng = random.Random(seed)
    domain = [f"v{i}" for i in range(8)]
    classes = [domain[:3], domain[3:5], domain[5:]]
    from mdistinct.updates import UpdateModel
    model = UpdateModel.from_classes(classes)
    schema = TableSchema((AttributeSchema.numeric("x", 0, 49),
                          AttributeSchema.numeric("y", 0, 19)), "s",
                         tuple(domain))
    cus = {v: sorted(model.cus_of(v)) for v in domain}
    records = [Record(f"r{i:03d}", (rng.randrange(50), rng.randrange(20)),
                      rng.choice(domain)) for i in range(6 * m)]
    state = EngineState(m=m)
    releases = []
    histories: dict[str, dict[int, str]] = {}
    for _ in range(3):
        release, state = publish(records, state, model, schema,
                                 seed=rng.randrange(10 ** 6))
        releases.append(release)
        for rec in records:
            histories.setdefault(rec.id, {})[release.release_index] = \
                rec.sensitive
        records = [Record(r.id, r.qi, rng.choice(cus[r.sensitive]))
                   for r in records]
    ok, violations = verify_m_distinct(releases, model, m)
    assert ok, violations
    reports = attack_release_sequence(releases, None, model, histories)
    assert count_vulnerable(reports) == 0
