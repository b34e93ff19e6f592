from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdistinct.errors import ValidationError
from mdistinct.updates import (USS, UpdateModel, implies, intersect,
                               is_legal_update_instance, pairwise_disjoint,
                               uss_of, validate_update_model)

from conftest import covers


class TestUpdateModel:
    def test_uniform_shares(self, worked_model):
        assert worked_model.prob("Dyspepsia", "Gastritis") == Fraction(1, 2)
        assert worked_model.prob("LungCancer", "LungCancer") == 1
        assert worked_model.prob("Dyspepsia", "Pneumonia") == 0

    def test_uniform_refuses_an_empty_cus(self):
        with pytest.raises(ValidationError, match=r"cus\('b'\) is empty"):
            UpdateModel.uniform({"a": ["a", "b"], "b": []})

    def test_from_classes(self, class_model):
        assert class_model.cus_of("Flu") == {"Flu", "Pneumonia", "LungCancer"}
        assert class_model.prob("Flu", "Pneumonia") == Fraction(1, 3)

    def test_unknown_value(self, worked_model):
        with pytest.raises(ValidationError):
            worked_model.cus_of("Migraine")

    def test_valid_models_report_nothing(self, worked_model, class_model):
        assert validate_update_model(worked_model) == []
        assert validate_update_model(class_model) == []

    def test_closure_violation_detected(self):
        # b reachable from a, but b can escape to c which a cannot reach
        model = UpdateModel(
            ("a", "b", "c"),
            {"a": {"a": Fraction(1, 2), "b": Fraction(1, 2)},
             "b": {"b": Fraction(1, 2), "c": Fraction(1, 2)},
             "c": {"c": Fraction(1)}})
        problems = validate_update_model(model)
        assert any("closure" in p for p in problems)

    def test_probability_sum_checked(self):
        model = UpdateModel(("a", "b"),
                            {"a": {"a": Fraction(1, 2), "b": Fraction(1, 3)},
                             "b": {"b": Fraction(1)}})
        assert any("sums to" in p for p in validate_update_model(model))

    def test_zero_probability_on_cus_member(self):
        model = UpdateModel(("a", "b"),
                            {"a": {"a": Fraction(1), "b": Fraction(0)},
                             "b": {"b": Fraction(1)}})
        assert any("strictly positive" in p
                   for p in validate_update_model(model))

    def test_every_violation_is_reported_in_order(self):
        model = UpdateModel(("a", "b", "c", "d"),
                            {"a": {"a": Fraction(1, 2), "b": Fraction(1, 3),
                                   "z": Fraction(0)},
                             "b": {"b": Fraction(1, 2), "c": Fraction(1, 2)},
                             "c": {}})
        assert validate_update_model(model) == [
            "no cus defined for 'd'",
            "cus('a') leaves the domain: ['z']",
            "p_trans('a', 'z') not strictly positive",
            "p_trans('a', .) sums to 5/6, not 1",
            "closure violated at ('a', 'b'): cus('b') has ['c'] "
            "outside cus('a')",
            "cus('c') is empty"]

    def test_views_are_read_off_the_table(self, worked_model):
        assert worked_model.cus == {a: frozenset(row) for a, row
                                    in worked_model.successors.items()}
        assert worked_model.cus_key("Dyspepsia") == tuple(
            sorted(worked_model.cus_of("Dyspepsia")))
        assert worked_model.cus_key("Dyspepsia") is \
            worked_model.cus_key("Dyspepsia")
        with pytest.raises(ValidationError, match="outside the sensitive"):
            worked_model.cus_key("Migraine")


class TestUss:
    def test_canonical_order_insensitive(self):
        a = USS([{"x", "y"}, {"z"}])
        b = USS([{"z"}, {"y", "x"}])
        assert a == b
        assert hash(a) == hash(b)
        assert len(a) == 2

    def test_covers(self):
        sig = USS([{"x", "y"}, {"z"}])
        assert covers(sig, "z") and not covers(sig, "w")

    def test_uss_of_worked_group(self, worked_model):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        assert sig == USS([{"Dyspepsia", "Gastritis"},
                           {"Pneumonia", "LungCancer"}])


class TestLegalInstance:
    def test_worked_positive(self, worked_model):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        assert is_legal_update_instance(["Gastritis", "LungCancer"], sig)

    def test_size_mismatch(self):
        assert not is_legal_update_instance(["x"], USS([{"x"}, {"y"}]))

    def test_stray_value(self):
        assert not is_legal_update_instance(["x", "w"], USS([{"x"}, {"y"}]))

    def test_starved_entry(self):
        # both values sit in the first entry; the second entry gets nothing
        sig = USS([{"x", "y"}, {"z"}])
        assert not is_legal_update_instance(["x", "y"], sig)


def reference_is_legal_update_instance(values, uss):
    """The loop form the set-algebra test replaced: size match, then no
    value outside every entry, then no entry missed by every value."""
    if len(values) != len(uss):
        return False
    vals = list(values)
    for v in vals:
        if not any(v in e for e in uss.entries):
            return False
    for e in uss.entries:
        if not any(v in e for v in vals):
            return False
    return True


@st.composite
def legality_cases(draw):
    """A signature over a-e and a value list, "f" and "g" lying in no
    entry.  The list is any list of a-g up to 5 long, or one value drawn
    from each entry, shuffled, and then maybe changed: one value replaced
    by another of the list (a duplicate, which often starves an entry) or
    by any of a-g, or one value added."""
    uss = USS(draw(st.lists(st.sets(st.sampled_from("abcde"), min_size=1),
                            min_size=1, max_size=4)))
    change = draw(st.sampled_from(["any", "none", "duplicate", "replace",
                                   "add"]))
    if change == "any":
        return uss, draw(st.lists(st.sampled_from("abcdefg"), max_size=5))
    values = draw(st.permutations(
        [draw(st.sampled_from(sorted(e))) for e in uss.entries]))
    at = draw(st.integers(0, len(values) - 1))
    if change == "duplicate":
        values[at] = draw(st.sampled_from(values))
    elif change == "replace":
        values[at] = draw(st.sampled_from("abcdefg"))
    elif change == "add":
        values.append(draw(st.sampled_from("abcdefg")))
    return uss, values


@settings(max_examples=500, deadline=None)
@given(legality_cases())
def test_legality_matches_the_loop_form(case):
    """Values with duplicates, values outside every entry and lists longer
    or shorter than the signature get the loop form's verdict."""
    uss, values = case
    assert (is_legal_update_instance(values, uss)
            == reference_is_legal_update_instance(values, uss))


class TestImplies:
    def test_reflexive(self, worked_model):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        assert implies(sig, sig)

    def test_subset_entries(self):
        big = USS([{"a", "b"}, {"c", "d"}])
        small = USS([{"a"}, {"c", "d"}])
        assert implies(big, small)
        assert not implies(small, big)

    def test_needs_bijection_not_just_inclusion(self):
        # both entries of b fit only the first entry of a
        a = USS([{"a", "b"}, {"c"}])
        b = USS([{"a"}, {"b"}])
        assert not implies(a, b)

    def test_size_mismatch(self):
        assert not implies(USS([{"a"}]), USS([{"a"}, {"a", "b"}]))


def overlap_score(a: USS, b: USS, result: USS) -> Fraction:
    """A pairing's score sum |X∩Y| / sum |X∪Y| read off its intersection
    signature: I / (S - I), with I the total overlap and S = sum |X| +
    sum |Y|."""
    inter = sum(map(len, result.entries))
    total = sum(map(len, a.entries)) + sum(map(len, b.entries))
    return Fraction(inter, total - inter)


def reference_intersect(a: USS, b: USS):
    """The exhaustive search `intersect` once ran up to 8 entries: every
    bijection of nonempty intersections scored as a `Fraction`, the first
    found kept on ties.  (pairing, result, score), or None."""
    if len(a) != len(b):
        return None
    n = len(a)
    adj = [[j for j, be in enumerate(b.entries) if ae & be]
           for ae in a.entries]
    best = None
    taken = [False] * n
    pairing = []

    def score():
        inter = union = 0
        for i, j in enumerate(pairing):
            x, y = a.entries[i], b.entries[j]
            inter += len(x & y)
            union += len(x | y)
        return Fraction(inter, union)

    def dfs(i):
        nonlocal best
        if i == n:
            s = score()
            if best is None or s > best[0]:
                best = (s, tuple(pairing))
            return
        for j in adj[i]:
            if not taken[j]:
                taken[j] = True
                pairing.append(j)
                dfs(i + 1)
                pairing.pop()
                taken[j] = False

    dfs(0)
    if best is None:
        return None
    s, chosen = best
    return (chosen,
            USS(a.entries[i] & b.entries[j] for i, j in enumerate(chosen)),
            s)


def first_pairing_with_most_overlap(a: USS, b: USS):
    """By a dynamic program over the set of b's entries taken: the most
    total overlap a bijection of nonempty intersections reaches, and the
    lexicographically first bijection that reaches it.  None if there is
    no such bijection."""
    n = len(a)
    meet = [[len(x & y) for y in b.entries] for x in a.entries]
    full = (1 << n) - 1
    best = {full: 0}             # taken columns -> most overlap of the rest
    for mask in range(full - 1, -1, -1):
        i = bin(mask).count("1")
        options = [meet[i][j] + best[mask | 1 << j] for j in range(n)
                   if not mask >> j & 1 and meet[i][j]
                   and best[mask | 1 << j] is not None]
        best[mask] = max(options, default=None)
    if best[0] is None:
        return None
    pairing, mask = [], 0
    for i in range(n):
        j = next(j for j in range(n)
                 if not mask >> j & 1 and meet[i][j]
                 and best[mask | 1 << j] is not None
                 and meet[i][j] + best[mask | 1 << j] == best[mask])
        pairing.append(j)
        mask |= 1 << j
    return best[0], pairing


class TestIntersect:
    def test_self_intersection_is_identity(self, worked_model):
        sig = uss_of(["Dyspepsia", "Pneumonia"], worked_model)
        result = intersect(sig, sig)
        assert result == sig
        assert overlap_score(sig, sig, result) == 1

    def test_partial_overlap(self):
        a = USS([{"a", "b"}, {"c", "d"}])
        b = USS([{"b", "c"}, {"d", "e"}])
        result = intersect(a, b)
        assert result == USS([{"b"}, {"d"}])
        assert overlap_score(a, b, result) == Fraction(2, 6)

    def test_no_plan_when_an_entry_cannot_pair(self):
        assert intersect(USS([{"a"}, {"b"}]), USS([{"a"}, {"c"}])) is None

    def test_absorbed_intersection(self):
        # one operand already refines the other; the intersection is the
        # finer signature itself
        coarse = USS([{"Dyspepsia", "Gastritis"},
                      {"Flu", "Pneumonia", "LungCancer"}])
        fine = USS([{"Dyspepsia", "Gastritis"}, {"Flu", "Pneumonia"}])
        assert intersect(coarse, fine) == fine

    def test_maximizes_total_overlap(self):
        # pairing by first-fit would score lower than the crossed pairing
        a = USS([{"a", "b", "c"}, {"c", "d"}])
        b = USS([{"c"}, {"a", "b", "c"}])
        result = intersect(a, b)
        best = max(
            Fraction(len(a.entries[0] & b.entries[0])
                     + len(a.entries[1] & b.entries[1]),
                     len(a.entries[0] | b.entries[0])
                     + len(a.entries[1] | b.entries[1])),
            Fraction(len(a.entries[0] & b.entries[1])
                     + len(a.entries[1] & b.entries[0]),
                     len(a.entries[0] | b.entries[1])
                     + len(a.entries[1] | b.entries[0])))
        assert overlap_score(a, b, result) == best


def test_cus_disjointness(worked_model):
    def disjoint(values):
        return pairwise_disjoint(worked_model.cus_of(v) for v in values)

    assert disjoint(["Dyspepsia", "Glaucoma"])
    # Flu and Pneumonia share their whole CUS
    assert not disjoint(["Flu", "Pneumonia"])
    # LungCancer's CUS nests inside Pneumonia's; the third set is the one
    # that meets the first
    assert not disjoint(["Pneumonia", "Glaucoma", "LungCancer"])
    assert disjoint(["Cataract"]) and disjoint([])


# ---------------------------------------------------------------------------
# property tests


@st.composite
def class_models(draw):
    n = draw(st.integers(2, 10))
    values = [f"v{i}" for i in range(n)]
    # random partition into classes
    k = draw(st.integers(1, n))
    assignment = [draw(st.integers(0, k - 1)) for _ in values]
    classes: dict[int, list[str]] = {}
    for v, c in zip(values, assignment):
        classes.setdefault(c, []).append(v)
    return UpdateModel.from_classes(list(classes.values()))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_implies_licenses_every_draw(data):
    """When a implies b, any one-value-per-entry pick from b is a legal
    update instance of a."""
    model = data.draw(class_models())
    dom = model.sensitive_domain
    size = data.draw(st.integers(1, min(4, len(dom))))
    va = data.draw(st.lists(st.sampled_from(dom), min_size=size,
                            max_size=size))
    vb = data.draw(st.lists(st.sampled_from(dom), min_size=size,
                            max_size=size))
    a, b = uss_of(va, model), uss_of(vb, model)
    if not implies(a, b):
        return
    picks = [data.draw(st.sampled_from(sorted(entry))) for entry in b.entries]
    assert is_legal_update_instance(picks, a)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_intersection_result_is_coimplied(data):
    """Both operands imply the intersection signature, its entries are
    nonempty, and it is the exhaustive search's."""
    model = data.draw(class_models())
    dom = model.sensitive_domain
    size = data.draw(st.integers(1, min(4, len(dom))))
    va = data.draw(st.lists(st.sampled_from(dom), min_size=size,
                            max_size=size))
    vb = data.draw(st.lists(st.sampled_from(dom), min_size=size,
                            max_size=size))
    a, b = uss_of(va, model), uss_of(vb, model)
    result = intersect(a, b)
    reference = reference_intersect(a, b)
    assert (result is None) == (reference is None)
    if result is None:
        return
    assert result == reference[1]
    assert implies(a, result)
    assert implies(b, result)
    assert len(result) == size and all(result.entries)
    assert 0 < overlap_score(a, b, result) <= 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closure_makes_legality_hereditary(data):
    """Closure means a legal instance's own signature is implied by the
    original: republishing the drawn values is again explainable."""
    model = data.draw(class_models())
    dom = model.sensitive_domain
    size = data.draw(st.integers(1, min(4, len(dom))))
    values = data.draw(st.lists(st.sampled_from(dom), min_size=size,
                                max_size=size))
    sig = uss_of(values, model)
    nxt = [data.draw(st.sampled_from(sorted(model.cus_of(v))))
           for v in values]
    assert is_legal_update_instance(nxt, sig)
    assert implies(sig, uss_of(nxt, model))


def matchable_pairs(sizes):
    """Two signatures of the given sizes over a 12-value domain with a
    perfect matching of nonempty intersections: b's entry for a's i-th
    entry, at a drawn position, holds one of its values plus random
    others."""
    @st.composite
    def pairs(draw):
        n = draw(sizes)
        domain = [f"v{i:02d}" for i in range(12)]
        subsets = st.sets(st.sampled_from(domain), min_size=1, max_size=4)
        a = [draw(subsets) for _ in range(n)]
        order = draw(st.permutations(range(n)))
        b = [set() for _ in range(n)]
        for i, j in enumerate(order):
            b[j] = {draw(st.sampled_from(sorted(a[i])))} | draw(
                st.sets(st.sampled_from(domain), max_size=3))
        return USS(a), USS(b)
    return pairs()


@settings(max_examples=200, deadline=None)
@given(matchable_pairs(st.integers(1, 8)))
def test_matches_the_exhaustive_search(pair):
    """Up to 8 entries `intersect` gives the exhaustive search's pairing
    signature, whose score is I / (S - I)."""
    a, b = pair
    pairing, result, score = reference_intersect(a, b)
    assert sorted(pairing) == list(range(len(b)))
    assert intersect(a, b) == result
    assert overlap_score(a, b, result) == score


@settings(max_examples=150, deadline=None)
@given(matchable_pairs(st.integers(9, 11)))
def test_large_pairing_is_the_first_with_most_overlap(pair):
    """At 9-11 entries, beyond the exhaustive search, the result is the
    signature of a bijection of nonempty intersections with the most
    overlap: the lexicographically first such bijection."""
    a, b = pair
    most, pairing = first_pairing_with_most_overlap(a, b)
    assert sorted(pairing) == list(range(len(b)))
    meets = [a.entries[i] & b.entries[j] for i, j in enumerate(pairing)]
    assert all(meets)
    assert sum(map(len, meets)) == most
    assert intersect(a, b) == USS(meets)
