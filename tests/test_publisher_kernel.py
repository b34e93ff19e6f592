"""Phase-2 assignment and the static partitioner against their `Fraction` forms.

`reference_phase2_assign` and `reference_static_partition` are the kernels
that the integer ones replaced.  The reference phase 2 scans every bucket
for every record and scores each (record, bucket, entry) candidate with a
pair of `Fraction`s, its bucket state recomputed from the members; the
reference partitioner re-sorts each node per attribute and ranks cuts by
`Fraction` split scores.  The properties below require both forms to
leave the same pool, the same bucket entries in the same order, the same
groups and the random generator in the same state.

Phase 1 and `implies` skip work with necessary conditions tested first;
`reference_phase1_create_buckets` tries `intersect` on every pair and
`reference_implies` always runs the matching, and both must agree.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import prod
from typing import NamedTuple

from hypothesis import example, given, settings, strategies as st

from mdistinct import baselines, engine
from mdistinct.engine import (Bucket, EngineState, PrevInfo, _Extents,
                              _color_key, _deal, _epsilon, _pad_group,
                              _point, _score, phase1_create_buckets,
                              phase2_assign, static_partition)
from mdistinct.errors import InfeasibilityError, ValidationError
from mdistinct.evaluation import ExperimentConfig, run_experiment
from mdistinct.model import AttributeSchema, Hierarchy, Record, TableSchema
from mdistinct.updates import (USS, UpdateModel, has_matching, implies,
                               intersect, uss_of, validate_update_model)

from conftest import add, covers, side_numerator, span_extent

F = Fraction

# ---------------------------------------------------------------------------
# the reference kernels, as they were before the integer rewrite


def scratch_extent_product(schema, members):
    out = 1
    for j, attr in enumerate(schema.qi):
        idx = [attr.to_index(r.qi[j]) for r in members]
        out *= span_extent(attr, min(idx), max(idx))
    return out


def scratch_delta(bucket):
    freq = Counter(r.sensitive for entry in bucket.entries for r in entry)
    return max(max(freq.values(), default=0),
               max((len(e) for e in bucket.entries), default=0))


class AssignmentScore(NamedTuple):
    epsilon: int        # +1: no counterfeit growth; -1: padding will grow
    lam: Fraction       # area after / area before, >= 1
    value: Fraction     # 1/lam or -lam


def reference_assignment_score(rec, bucket, entry_index, schema):
    if rec.sensitive not in bucket.signature.entries[entry_index]:
        raise ValidationError("record's value not in the entry's CUS")
    members = [r for entry in bucket.entries for r in entry]
    if not members:
        return AssignmentScore(1, F(1), F(1))
    delta = scratch_delta(bucket)
    eps = 1
    if sum(r.sensitive == rec.sensitive for r in members) == delta \
            or len(bucket.entries[entry_index]) == delta:
        eps = -1
    lam = F(scratch_extent_product(schema, members + [rec]),
            scratch_extent_product(schema, members))
    return AssignmentScore(eps, lam, 1 / lam if eps == 1 else -lam)


def reference_eligible_buckets(rec, prev, buckets, star, implies_cache):
    out = []
    for b, bucket in enumerate(buckets):
        if not covers(bucket.signature, rec.sensitive):
            continue
        if prev is not None:
            key = (prev.signature.key, b)
            ok = implies_cache.get(key)
            if ok is None:
                ok = implies(prev.signature, bucket.signature)
                implies_cache[key] = ok
            if not ok:
                continue
        elif star and any(x & y for x, y in itertools.combinations(
                bucket.signature.entries, 2)):
            continue
        out.append(b)
    return out


def reference_phase2_assign(records, state, buckets, schema):
    """Phase 2 with a per-call verdict cache of its own; it reads only the
    previous publications and the mode from `state`."""
    prev_of, star = state.prev, state.star
    implies_cache = {}
    eligible = {}
    pool = []
    assignable = []
    for rec in records:
        prev = prev_of.get(rec.id)
        buckets_for = reference_eligible_buckets(rec, prev, buckets, star,
                                                 implies_cache)
        if not buckets_for:
            if prev is not None:
                raise ValidationError(
                    f"returning record {rec.id!r} fits no bucket; its update "
                    f"{prev.value!r} -> {rec.sensitive!r} contradicts the model")
            pool.append(rec)
            continue
        eligible[rec.id] = buckets_for
        assignable.append((len(buckets_for), rec.id, rec))
    assignable.sort(key=lambda t: (t[0], t[1]))

    for _, _, rec in assignable:
        best_score = None
        best = None
        for b in eligible[rec.id]:
            bucket = buckets[b]
            buc_score = None
            buc_entry = None
            for i, cus in enumerate(bucket.signature.entries):
                if rec.sensitive not in cus:
                    continue
                s = reference_assignment_score(rec, bucket, i, schema).value
                if buc_score is None or s > buc_score:
                    buc_score, buc_entry = s, i
                elif s == buc_score and (len(bucket.entries[i])
                                         < len(bucket.entries[buc_entry])):
                    buc_entry = i
            if buc_score is not None and (best_score is None
                                          or buc_score > best_score):
                best_score = buc_score
                best = (b, buc_entry)
        assert best is not None
        add(buckets[best[0]], rec, best[1], schema)
    return pool


def reference_split_score(schema, parent_extents, side_a, side_b):
    total = F(0)
    for n, spans in (side_a, side_b):
        if n == 0:
            raise ValidationError("empty split child")
        part = F(0)
        for j, attr in enumerate(schema.qi):
            lo, hi = spans[j]
            part += F(span_extent(attr, lo, hi), parent_extents[j])
        total += n * part
    return total


def _grow(span, idx):
    if span is None:
        return (idx, idx)
    return (min(span[0], idx), max(span[1], idx))


def reference_static_partition(records, m, schema, model, rng, star=False):
    if not records:
        return []

    def eligible(recs):
        if len(recs) < m:
            return False
        freq = Counter(_color_key(r, model, star) for r in recs)
        return max(freq.values()) <= len(recs) // m

    out = []

    def check_star(group):
        sets = [model.cus_of(x.sensitive) for x in group]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j]:
                    raise InfeasibilityError(
                        "static partition cannot keep group CUS pairwise "
                        "disjoint under this update model")

    def emit_leaf(recs):
        for group in _deal(recs, max(len(recs) // m, 1), model, star):
            if star:
                check_star(group)
            out.append(list(group))

    def recurse(recs):
        n = len(recs)
        best = None
        for attr_pos, attr in enumerate(schema.qi):
            ordered = sorted(recs, key=lambda r: (attr.to_index(r.qi[attr_pos]),
                                                  r.id))
            spans_fwd = []
            spans_bwd = []
            cur = [None] * len(schema.qi)
            for rec in ordered:
                cur = [_grow(span, a.to_index(rec.qi[j]))
                       for j, (span, a) in enumerate(zip(cur, schema.qi))]
                spans_fwd.append(list(cur))
            cur = [None] * len(schema.qi)
            for rec in reversed(ordered):
                cur = [_grow(span, a.to_index(rec.qi[j]))
                       for j, (span, a) in enumerate(zip(cur, schema.qi))]
                spans_bwd.append(list(cur))
            spans_bwd.reverse()
            freq_fwd = Counter()
            fmax_fwd = []
            running = 0
            for rec in ordered:
                c = _color_key(rec, model, star)
                freq_fwd[c] += 1
                running = max(running, freq_fwd[c])
                fmax_fwd.append(running)
            freq_bwd = Counter()
            fmax_bwd = [0] * (n + 1)
            running = 0
            for i in range(n - 1, -1, -1):
                c = _color_key(ordered[i], model, star)
                freq_bwd[c] += 1
                running = max(running, freq_bwd[c])
                fmax_bwd[i] = running
            parent = [span_extent(a, *spans_fwd[-1][j])
                      for j, a in enumerate(schema.qi)]
            for cut in range(m, n - m + 1, m):
                if fmax_fwd[cut - 1] > cut // m:
                    continue
                if fmax_bwd[cut] > (n - cut) // m:
                    continue
                score = reference_split_score(schema, parent,
                                              (cut, spans_fwd[cut - 1]),
                                              (n - cut, spans_bwd[cut]))
                cand = (score, attr_pos, cut)
                if best is None or cand < (best[0], best[1], best[2]):
                    best = (score, attr_pos, cut, ordered)
        if best is None:
            emit_leaf(sorted(recs, key=lambda r: r.id))
            return
        _, _, cut, ordered = best
        recurse(ordered[:cut])
        recurse(ordered[cut:])

    pool = sorted(records, key=lambda r: r.id)
    if eligible(pool):
        recurse(pool)
        return out
    freq = Counter(_color_key(r, model, star) for r in pool)
    n_groups = max(max(freq.values(), default=1), 1)
    for group in _deal(pool, n_groups, model, star):
        if star:
            check_star(group)
        out.append(_pad_group(list(group), m, model, star, rng))
    return out


# ---------------------------------------------------------------------------
# random inputs: small QI domains, so points and scores tie often

AGE = AttributeSchema.numeric("age", 20, 24)
TREE = AttributeSchema.categorical("region", Hierarchy("any", {
    "north": {"n1": ["a", "b"], "n2": ["c"]},
    "south": ["d", "e", "f"],
    "west": ["g"],
}))
FLAT = AttributeSchema.categorical("sex", Hierarchy.flat("any_sex",
                                                         ["f", "m"]))
ATTRS = (AGE, TREE, FLAT)


@st.composite
def schemas(draw, domain):
    picked = draw(st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3,
                           unique_by=lambda a: a.name))
    return TableSchema(tuple(picked), "s", tuple(domain))


@st.composite
def closed_models(draw):
    """A closed model that is not a block model: either the reachability
    closure of a random digraph, whose CUS sets mostly nest, or values that
    each stay or fall into some shared absorbing states, whose CUS sets
    overlap without nesting, so that signatures intersect."""
    n = draw(st.integers(2, 7))
    domain = [f"s{i}" for i in range(n)]
    if draw(st.booleans()):
        sinks = domain[:draw(st.integers(1, n - 1))]
        cus = {v: {v} if v in sinks else {v, *draw(st.lists(
            st.sampled_from(sinks), min_size=1, max_size=2))}
            for v in domain}
    else:
        cus = {v: set(draw(st.lists(st.sampled_from(domain), min_size=1,
                                    max_size=2, unique=True)))
               for v in domain}
        changed = True
        while changed:
            changed = False
            for v in domain:
                for w in list(cus[v]):
                    if not cus[w] <= cus[v]:
                        cus[v] |= cus[w]
                        changed = True
    model = UpdateModel.uniform(cus, domain)
    assert validate_update_model(model) == []
    return model


def _qi(draw, schema):
    out = []
    for attr in schema.qi:
        if attr.kind == "numeric":
            out.append(draw(st.integers(attr.lo, attr.hi)))
        else:
            out.append(draw(st.sampled_from(attr.hierarchy.leaves)))
    return tuple(out)


@st.composite
def phase2_cases(draw):
    """Buckets from 2-5 distinct previous groups of one size, so that
    signatures often intersect, some buckets pre-filled, and up to 16
    records: returning ones with a previous signature and a value it
    covers, occasionally one it does not, and first-timers."""
    model = draw(closed_models())
    domain = list(model.sensitive_domain)
    schema = draw(schemas(domain))
    k = draw(st.integers(1, min(3, len(domain))))
    groups = draw(st.lists(st.lists(st.sampled_from(domain), min_size=k,
                                    max_size=k, unique=True),
                           min_size=2, max_size=5, unique_by=frozenset))
    sigs = [uss_of(g, model) for g in groups]
    n_buckets = len(phase1_create_buckets(sigs))
    prefill = []
    for _ in range(draw(st.integers(0, 6))):
        b = draw(st.integers(0, n_buckets - 1))
        prefill.append((b, draw(st.integers(0, 99)), _qi(draw, schema)))
    n = draw(st.integers(0, 16))
    ids = draw(st.permutations(range(n)))
    records, prev_of = [], {}
    for at in range(n):
        rid = f"r{ids[at]:02d}"
        if draw(st.booleans()):
            sig = draw(st.sampled_from(sigs))
            covered = sorted(set().union(*sig.entries))
            value = draw(st.sampled_from(covered if draw(st.integers(0, 9))
                                         else domain))
            prev_of[rid] = PrevInfo(draw(st.sampled_from(domain)), sig, 1)
        else:
            value = draw(st.sampled_from(domain))
        records.append(Record(rid, _qi(draw, schema), value))
    star = draw(st.booleans())
    return schema, sigs, prefill, records, prev_of, star


def _buckets(sigs, prefill, schema):
    """Fresh phase-1 buckets with the drawn pre-fill; a pre-fill record
    takes an entry its value fits, the value picked from the bucket."""
    buckets = phase1_create_buckets(sigs)
    for n, (b, pick, qi) in enumerate(prefill):
        bucket = buckets[b]
        i = pick % len(bucket.entries)
        values = sorted(bucket.signature.entries[i])
        add(bucket, Record(f"p{n}", qi, values[pick % len(values)]), i, schema)
    return buckets


def state_of(prev_of, star):
    """A publisher state holding the given previous publications, with
    empty memos."""
    return EngineState(2, "m_distinct_star" if star else "m_distinct",
                       prev=dict(prev_of))


def _phase2_outcome(assign, case):
    schema, sigs, prefill, records, prev_of, star = case
    buckets = _buckets(sigs, prefill, schema)
    try:
        pool = assign(records, state_of(prev_of, star), buckets, schema)
    except ValidationError as exc:
        return str(exc)
    return pool, [[[r.id for r in e] for e in b.entries] for b in buckets]


@settings(max_examples=500, deadline=None)
@given(phase2_cases())
def test_phase2_matches_reference(case):
    assert (_phase2_outcome(phase2_assign, case)
            == _phase2_outcome(reference_phase2_assign, case))


@settings(max_examples=200, deadline=None)
@given(phase2_cases())
def test_assignment_score_matches_reference(case):
    """Phase 2's integer epsilon, extent products and score pair give the
    reference's `Fraction` score, on pre-filled and empty buckets alike."""
    schema, sigs, prefill, records, _, _ = case
    extent = _Extents(schema.qi)
    for bucket in _buckets(sigs, prefill, schema):
        for rec in records:
            before = bucket.extent_product
            after = bucket.extent_product_with(_point(schema.qi, rec), extent)
            for i, cus in enumerate(bucket.signature.entries):
                if rec.sensitive not in cus:
                    continue
                eps = _epsilon(bucket, i, rec.sensitive)
                assert (AssignmentScore(eps, F(after, before),
                                        F(*_score(eps, before, after)))
                        == reference_assignment_score(rec, bucket, i, schema))


def test_ties_keep_the_first_bucket_and_the_first_smallest_entry():
    """Two identical buckets score the same for r: the first wins.  Inside
    it, three entries give r the top score: of the two with fewest
    records, the first wins."""
    schema = TableSchema((AGE,), "s", ("a", "b"))

    def build():
        buckets = [Bucket(USS([{"a", "b"}] * 4), "signature")
                   for _ in range(2)]
        for bucket in buckets:
            for rid, entry in (("p0", 0), ("p1", 3), ("p2", 3)):
                add(bucket, Record(rid, (20,), "a"), entry, schema)
        return buckets

    rec = Record("r", (20,), "b")
    for assign in (phase2_assign, reference_phase2_assign):
        buckets = build()
        assert assign([rec], EngineState(2), buckets, schema) == []
        assert [[len(e) for e in b.entries] for b in buckets] == [
            [1, 1, 0, 2], [1, 0, 0, 2]]


def test_scan_stops_at_a_point_outside_the_span_under_its_node(
        monkeypatch):
    """Regions d and e span d..e, which generalizes to south (d, e, f).  A
    record at f lies outside that span but leaves the node, and so the
    extent product, as it is: with epsilon +1 it scores 1 in the first
    bucket, and phase 2 scores no later option.  The second bucket is
    the same and would only tie."""
    schema = TableSchema((TREE,), "s", ("a", "b"))

    def build():
        buckets = [Bucket(USS([{"a", "b"}] * 2), "signature")
                   for _ in range(2)]
        for bucket in buckets:
            add(bucket, Record("p0", ("d",), "a"), 0, schema)
            add(bucket, Record("p1", ("e",), "b"), 0, schema)
        return buckets

    rec = Record("r", ("f",), "a")
    scored = []
    extent_product_with = Bucket.extent_product_with

    def counting(bucket, point, extent):
        scored.append(bucket)
        return extent_product_with(bucket, point, extent)

    monkeypatch.setattr(Bucket, "extent_product_with", counting)
    outcomes = []
    for assign in (phase2_assign, reference_phase2_assign):
        buckets = build()
        assert buckets[0].extent_product == 3
        assert assign([rec], EngineState(2), buckets, schema) == []
        outcomes.append([[[r.id for r in e] for e in b.entries]
                         for b in buckets])
        if assign is phase2_assign:
            assert scored == [buckets[0]]
    assert outcomes[0] == outcomes[1] == [[["p0", "p1"], ["r"]],
                                          [["p0", "p1"], []]]


@st.composite
def block_models(draw):
    """Equivalence classes: the CUS sets star mode can keep disjoint."""
    n = draw(st.integers(2, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    classes = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, []).append(f"s{i}")
    return UpdateModel.from_classes(list(classes.values()))


@st.composite
def partition_cases(draw):
    model = draw(st.one_of(closed_models(), block_models()))
    domain = list(model.sensitive_domain)
    schema = draw(schemas(domain))
    n = draw(st.integers(0, 40))
    ids = draw(st.permutations(range(n)))
    records = [Record(f"r{ids[k]:02d}", _qi(draw, schema),
                      draw(st.sampled_from(domain))) for k in range(n)]
    return (schema, model, records, draw(st.integers(2, 4)),
            draw(st.booleans()), draw(st.integers(0, 2 ** 16)))


def _partition_outcome(partition, case):
    schema, model, records, m, star, seed = case
    rng = random.Random(seed)
    try:
        result = partition(records, m, schema, model, rng, star=star)
    except InfeasibilityError as exc:
        result = str(exc)
    return result, rng.getstate()


BLOCKS = UpdateModel.from_classes([["s0", "s1"], ["s2", "s3"], ["s4"],
                                   ["s5"]])
AGE_REGION = TableSchema((AGE, TREE), "s", tuple(BLOCKS.sensitive_domain))
# m=3 and n=10: the cuts come after 3 and 6 records, leaving side B 7 or
# 4, and B's 1 record after a cut at 9 would fail its frequency bound
THREE_OF_TEN = [Record(f"r{k:02d}", (20 + k // 2, "abcdefg"[k % 7]),
                       f"s{k % 5}") for k in range(10)]
# star mode: colors are the CUS {s0, s1}, {s2, s3}, {s4} and {s5}
STAR_POOL = [Record(f"r{k:02d}", (20 + k % 5, "gfedcba"[k % 7]), f"s{k % 6}")
             for k in range(8)]
# along the age order the region span grows d, b..d, b..f, a..f, a..g:
# both of its ends widen as side A grows
BOTH_ENDS = [Record(f"r{k}", (min(20 + k, 24), leaf), f"s{k}")
             for k, leaf in enumerate("dbfagc")]
# the best cut is on the region, and its side A holds the youngest and the
# oldest record, so side B's span pointers on the age order move in from
# both ends
REGION_CUT = [Record(f"r{k}", qi, value) for k, (qi, value) in enumerate(
    [((20, "a"), "s0"), ((24, "b"), "s1"), ((21, "e"), "s0"),
     ((22, "f"), "s1")])]


@settings(max_examples=500, deadline=None)
@given(partition_cases())
@example((AGE_REGION, BLOCKS, THREE_OF_TEN, 3, False, 0))
@example((AGE_REGION, BLOCKS, STAR_POOL, 2, True, 0))
@example((AGE_REGION, BLOCKS, BOTH_ENDS, 2, False, 0))
@example((AGE_REGION, BLOCKS, REGION_CUT, 2, False, 0))
def test_static_partition_matches_reference(case):
    assert (_partition_outcome(static_partition, case)
            == _partition_outcome(reference_static_partition, case))


def test_star_deal_pads_a_group_before_checking_the_next():
    """A root pool that is not m-eligible is dealt into {b, c} and {d, c}.
    The first group passes the star check and is padded, which draws from
    the generator; the second fails it, since cus(d) holds c.  Both forms
    raise there, with the generator in the same, advanced state."""
    cus = {"a": {"a"}, "b": {"b"}, "c": {"c"}, "d": {"c", "d"}}
    model = UpdateModel.uniform(cus, sorted(cus))
    schema = TableSchema((AGE,), "s", tuple(sorted(cus)))
    records = [Record(f"r{i}", (20 + i,), v) for i, v in enumerate("bccd")]
    case = (schema, model, records, 3, True, 0)
    outcome = _partition_outcome(static_partition, case)
    assert outcome == _partition_outcome(reference_static_partition, case)
    assert outcome[0].startswith("static partition cannot keep group CUS")
    assert outcome[1] != random.Random(0).getstate()


# ---------------------------------------------------------------------------
# phase 1 and implies against the plain pair loop and matching


def reference_phase1_create_buckets(prev_signatures):
    """Phase 1 with `intersect` tried on every pair of distinct signatures."""
    queue = list(dict.fromkeys(prev_signatures))
    seen = set(queue)
    extra = []
    for i in range(len(queue)):
        for j in range(i + 1, len(queue)):
            both = intersect(queue[i], queue[j])
            if both is not None and both not in seen:
                seen.add(both)
                extra.append(both)
    return ([Bucket(sig, "signature") for sig in queue]
            + [Bucket(sig, "intersection") for sig in extra])


def reference_implies(a, b):
    """A bijection into superset entries, by matching alone."""
    if len(a) != len(b):
        return False
    adj = [[j for j, ae in enumerate(a.entries) if be <= ae]
           for be in b.entries]
    return has_matching(adj, len(a))


@st.composite
def signature_cases(draw):
    """Signatures of 2-7 groups: under a non-block model, of k distinct
    values each, so that signatures often intersect; under either kind of
    model, of 1-4 values each, so that sizes differ.  Per group also the
    signature of the values it may move to next, which the group's own
    signature implies."""
    if draw(st.booleans()):
        model = draw(closed_models())
        domain = list(model.sensitive_domain)
        k = draw(st.integers(1, min(3, len(domain))))
        groups = draw(st.lists(st.lists(st.sampled_from(domain), min_size=k,
                                        max_size=k, unique=True),
                               min_size=2, max_size=7, unique_by=frozenset))
    else:
        model = draw(st.one_of(closed_models(), block_models()))
        domain = list(model.sensitive_domain)
        groups = draw(st.lists(st.lists(st.sampled_from(domain), min_size=1,
                                        max_size=4), min_size=2, max_size=7))
    moved = [[draw(st.sampled_from(sorted(model.cus_of(v)))) for v in g]
             for g in groups]
    return ([uss_of(g, model) for g in groups],
            [uss_of(g, model) for g in moved])


def _buckets_with_origins(buckets):
    return [(b.signature.key, b.origin) for b in buckets]


@settings(max_examples=500, deadline=None)
@given(signature_cases())
def test_phase1_matches_the_unfiltered_pair_loop(case):
    sigs, moved = case
    assert (_buckets_with_origins(phase1_create_buckets(sigs + moved))
            == _buckets_with_origins(
                reference_phase1_create_buckets(sigs + moved)))


def test_phase1_filter_keeps_intersections():
    # overlapping, non-nested CUS sets: the pair passes the filter
    model = UpdateModel.uniform({"a": {"a", "x"}, "b": {"b", "x"},
                                 "x": {"x"}})
    sigs = [uss_of(["a", "x"], model), uss_of(["b", "x"], model)]
    buckets = phase1_create_buckets(sigs)
    assert _buckets_with_origins(buckets) == _buckets_with_origins(
        reference_phase1_create_buckets(sigs))
    assert [b.origin for b in buckets] == ["signature", "signature",
                                           "intersection"]


@settings(max_examples=300, deadline=None)
@given(signature_cases())
def test_implies_matches_the_plain_matching(case):
    sigs, moved = case
    for a in sigs + moved:
        for b in sigs + moved:
            assert implies(a, b) == reference_implies(a, b)
    for a, b in zip(sigs, moved):
        assert implies(a, b)


def test_side_numerator_matches_reference():
    """Side numerators over the parent's extent product are the
    reference's `Fraction` split score."""
    schema = TableSchema((AGE, TREE), "s", ("a",))
    parent = [5, 6]
    denom = prod(parent)
    cof = [denom // e for e in parent]
    for a, b in [((2, [(0, 1), (0, 2)]), (3, [(2, 4), (3, 5)])),
                 ((1, [(4, 4), (5, 5)]), (4, [(0, 3), (0, 4)]))]:
        num = sum(n * side_numerator(
            [span_extent(attr, lo, hi)
             for attr, (lo, hi) in zip(schema.qi, spans)], cof)
            for n, spans in (a, b))
        assert F(num, denom) == reference_split_score(schema, parent, a, b)


# ---------------------------------------------------------------------------
# every call of small synthetic runs


def test_workload_calls_match_reference(monkeypatch):
    """Every phase-2 and static-partition call of small m=2, 4 and 6
    m-Distinct runs and an m=2 m-invariance run (four QI attributes, three
    of them hierarchies) gives what the reference gives."""
    phase2_seen = []
    verdicts_seen = []
    partition_seen = []
    real_phase2, real_partition = phase2_assign, static_partition

    def checked_phase2(records, state, buckets, schema):
        assert all(b.size == 0 for b in buckets)
        ref = [Bucket(b.signature, b.origin) for b in buckets]
        expected = reference_phase2_assign(records, state, ref, schema)
        # the engine runs on the publisher's own state, memo and all
        got = real_phase2(records, state, buckets, schema)
        assert got == expected
        assert ([b.entries for b in buckets] == [b.entries for b in ref])
        phase2_seen.append(len(records) - len(got))
        verdicts_seen.append(dict(state.verdicts))
        return got

    def checked_partition(records, m, schema, model, rng, star=False):
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        expected = reference_static_partition(records, m, schema, model,
                                              ref_rng, star)
        got = real_partition(records, m, schema, model, rng, star)
        assert got == expected
        assert rng.getstate() == ref_rng.getstate()
        partition_seen.append(len(got))
        return got

    monkeypatch.setattr(engine, "phase2_assign", checked_phase2)
    monkeypatch.setattr(engine, "static_partition", checked_partition)
    monkeypatch.setattr(baselines, "static_partition", checked_partition)
    for publisher, m in (("m_distinct", 2), ("m_distinct", 4),
                         ("m_distinct", 6), ("m_invariance", 2)):
        run_experiment(ExperimentConfig(
            publisher=publisher, m=m, n_records=120, n_releases=3,
            inserts=20, deletes=10, internal_updates=30, n_queries=1,
            thetas=(0.5,), seed=5))
    assert len(phase2_seen) == 9 and sum(phase2_seen) > 100
    # each m-Distinct run's state carries its verdicts from release to release
    for first, second, third in (verdicts_seen[i:i + 3] for i in (0, 3, 6)):
        assert not first and second
        assert second.items() <= third.items()
    assert len(partition_seen) == 12 and sum(partition_seen) > 50
