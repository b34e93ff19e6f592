"""`verify_m_distinct` against the per-member form it replaced.

`reference_verify` is the verifier as it was before legality was decided
once per group for each distinct previous signature: it tests every
returning member with the loop form of `is_legal_update_instance` and folds
each release with the unmemoized `reference_apply`.  Publisher-made
histories, and the same histories mutated the ways a corrupted or forged
history can differ, must give the same ok flag and the same violation
lines in the same order, with and without star mode.
"""

import functools

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdistinct.engine import EngineState, verify_m_distinct
from mdistinct.evaluation import ExperimentConfig, run_experiment
from mdistinct.fileio import synthetic_schema
from mdistinct.model import Member, PublishedRelease, QIGroup
from mdistinct.updates import pairwise_disjoint

from test_history_read import reference_apply
from test_updates import reference_is_legal_update_instance


def reference_verify(releases, model, m, star=False):
    violations = []
    state = EngineState(m)
    for rel in sorted(releases, key=lambda r: r.release_index):
        i = rel.release_index
        placed = set()
        for group in rel.groups:
            where = f"release {i} group {group.gid}"
            values = group.values
            if len(group.members) < m:
                violations.append(f"{where}: fewer than {m} members")
            if len(set(values)) != len(values):
                violations.append(f"{where}: duplicate sensitive values")
            first_timer = any(not mm.counterfeit and mm.rid not in state.prev
                              for mm in group.members)
            if star and first_timer and not pairwise_disjoint(
                    model.cus_of(v) for v in values):
                violations.append(f"{where}: first-release CUS not pairwise "
                                  f"disjoint")
            for member in group.members:
                if member.counterfeit:
                    continue
                if member.rid in placed:
                    violations.append(f"release {i}: id {member.rid!r} "
                                      f"appears in two groups")
                    continue
                placed.add(member.rid)
                prev = state.prev.get(member.rid)
                if prev is None:
                    continue
                if prev.release_index < i - 1:
                    violations.append(
                        f"{where}: {member.rid!r} last appeared in release "
                        f"{prev.release_index}; a record may not skip a "
                        f"release")
                if not reference_is_legal_update_instance(values,
                                                          prev.signature):
                    violations.append(
                        f"{where}: candidate set not a legal update instance "
                        f"of {member.rid!r}'s previous signature")
        reference_apply(state, rel, model)
    return (not violations, violations)


# name -> (publisher, m, records, releases, inserts, deletes, internal
# updates); the m-invariance history is the sim_minv benchmark's at seed 7
HISTORIES = {
    "m_distinct_2": ("m_distinct", 2, 120, 4, 30, 12, 30),
    "m_distinct_4": ("m_distinct", 4, 120, 4, 30, 12, 30),
    "m_distinct_star_2": ("m_distinct_star", 2, 120, 4, 30, 12, 30),
    "m_invariance_2": ("m_invariance", 2, 400, 8, 100, 40, 100),
}


@functools.lru_cache(maxsize=None)
def history(name):
    publisher, m, n, releases, inserts, deletes, internal = HISTORIES[name]
    config = ExperimentConfig(publisher=publisher, m=m, n_records=n,
                              n_releases=releases, inserts=inserts,
                              deletes=deletes, internal_updates=internal,
                              n_queries=0, seed=7)
    model = synthetic_schema(config.d, config.sensitive_size)[1]
    return tuple(run_experiment(config).published), model, m


def assert_same_verdicts(releases, model, m):
    for star in (False, True):
        assert (verify_m_distinct(releases, model, m, star)
                == reference_verify(releases, model, m, star))


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_published_histories_match_reference(name):
    releases, model, m = history(name)
    assert_same_verdicts(releases, model, m)
    ok, violations = verify_m_distinct(releases, model, m)
    # m-invariance makes no m-Distinct promise, and shows it
    assert ok == name.startswith("m_distinct")
    assert ok or len(violations) > 300


def _real_positions(groups):
    return [(g, k) for g, members in enumerate(groups)
            for k, mm in enumerate(members) if not mm.counterfeit]


@st.composite
def mutated_histories(draw):
    """A publisher-made history with one release changed in one way:
    a real member moved to another group, a counterfeit relabelled as a
    real record (one of the previous release's, or a new id), a returning
    record dropped from a middle release, a real member listed in a
    second group as well, two real members of different groups swapping
    their values, or the release's groups in another order."""
    name = draw(st.sampled_from(sorted(HISTORIES)))
    releases, model, m = history(name)
    kind = draw(st.sampled_from(["move", "relabel", "drop", "twice", "swap",
                                 "reorder"]))
    low = 1 if kind == "drop" else 0
    high = len(releases) - (2 if kind == "drop" else 1)
    at = draw(st.integers(low, high))
    rel = releases[at]
    groups = [list(g.members) for g in rel.groups]
    before = ({mm.rid for g in releases[at - 1].groups for mm in g.members
               if not mm.counterfeit} if at else set())
    if kind == "move":
        g, k = draw(st.sampled_from(_real_positions(groups)))
        member = groups[g].pop(k)
        to = draw(st.integers(0, len(groups) - 1))
        groups[to].insert(draw(st.integers(0, len(groups[to]))), member)
    elif kind == "relabel":
        fakes = [(g, k) for g, members in enumerate(groups)
                 for k, mm in enumerate(members) if mm.counterfeit]
        assume(fakes)
        g, k = draw(st.sampled_from(fakes))
        rid = draw(st.sampled_from(sorted(before) + ["new"]))
        groups[g][k] = Member(rid, groups[g][k].sensitive)
    elif kind == "drop":
        returning = [(g, k) for g, k in _real_positions(groups)
                     if groups[g][k].rid in before]
        assume(returning)
        g, k = draw(st.sampled_from(returning))
        del groups[g][k]
    elif kind == "twice":
        g, k = draw(st.sampled_from(_real_positions(groups)))
        to = draw(st.integers(0, len(groups) - 1))
        groups[to].insert(draw(st.integers(0, len(groups[to]))), groups[g][k])
    elif kind == "swap":
        positions = _real_positions(groups)
        pairs = [(a, b) for a in positions for b in positions if a[0] < b[0]]
        assume(pairs)
        (g, k), (h, j) = draw(st.sampled_from(pairs))
        one, other = groups[g][k], groups[h][j]
        groups[g][k] = one._replace(sensitive=other.sensitive)
        groups[h][j] = other._replace(sensitive=one.sensitive)
    olds = list(rel.groups)
    if kind == "reorder":
        assume(len(groups) > 1)
        order = draw(st.permutations(range(len(groups))))
        assume(order != sorted(order))
        olds = [olds[g] for g in order]
        groups = [groups[g] for g in order]
    changed = PublishedRelease(rel.release_index, tuple(
        QIGroup(old.gid, old.region, tuple(members),
                tuple(mm.sensitive for mm in members))
        for old, members in zip(olds, groups) if members))
    return releases[:at] + (changed,) + releases[at + 1:], model, m


@settings(max_examples=90, deadline=None)
@given(mutated_histories())
def test_mutated_histories_match_reference(case):
    assert_same_verdicts(*case)
