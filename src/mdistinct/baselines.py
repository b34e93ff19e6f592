"""Comparison publishers: per-release l-diversity and m-invariance.

Both ignore the update model when forming groups, which is exactly what the
disclosure-risk attack exploits.  The m-invariance publisher also reports
"invalidated" records: returning records whose new sensitive value escapes
the value set of their previous group, which m-invariance cannot re-publish
consistently.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .engine import static_partition
from .errors import InfeasibilityError
from .model import (CounterfeitMember, PublishedRelease, Record, TableSchema,
                    generalize)
from .sug import RiskReport
from .updates import UpdateModel

__all__ = [
    "publish_l_diversity",
    "MInvarianceState",
    "publish_m_invariance",
    "count_vulnerable",
    "max_risk",
]


def publish_l_diversity(records: Sequence[Record], m: int,
                        schema: TableSchema, model: UpdateModel,
                        seed: int, release_index: int = 1,
                        ) -> PublishedRelease:
    """Partition one snapshot into groups of >= m distinct sensitive values,
    with no memory of earlier releases and no counterfeits.  Raises
    InfeasibilityError when the value frequencies make that impossible."""
    pool = sorted(records, key=lambda r: r.id)
    if not pool:
        raise InfeasibilityError("nothing to publish")
    freq = Counter(rec.sensitive for rec in pool)
    if len(pool) < m or max(freq.values()) > len(pool) // m:
        raise InfeasibilityError(
            f"snapshot is not m-eligible for m={m}: most frequent value "
            f"appears {max(freq.values())} times in {len(pool)} records")
    rng = random.Random(seed)
    groups = static_partition(pool, m, schema, model, rng, star=False)
    assert not any(isinstance(x, CounterfeitMember)
                   for g in groups for x in g)
    return generalize(schema, release_index, groups)


@dataclass
class MInvarianceState:
    m: int
    release_count: int = 0
    signatures: dict[str, frozenset[str]] = field(default_factory=dict)
    invalidated_total: int = 0

    def apply(self, release: PublishedRelease, model: UpdateModel) -> None:
        """Fold a release in: each real member's signature becomes its
        group's value set.  A returning member published with a value
        outside its previous signature is one `publish_m_invariance`
        invalidated, so replaying a history rebuilds the running count.
        Like the publisher, this ignores the model."""
        for group in release.groups:
            valueset = frozenset(group.values)
            for member in group.members:
                if not member.counterfeit:
                    prev = self.signatures.get(member.rid)
                    if prev is not None and member.sensitive not in prev:
                        self.invalidated_total += 1
                    self.signatures[member.rid] = valueset
        self.release_count = release.release_index


def publish_m_invariance(records: Sequence[Record], state: MInvarianceState,
                         schema: TableSchema, model: UpdateModel, seed: int,
                         ) -> tuple[PublishedRelease, MInvarianceState, list[str]]:
    """m-invariance re-publication.

    Returning records whose value still lies in their previous group's value
    set are bucketed by that set, and each bucket is flattened into groups
    replicating the set exactly (counterfeits pad missing values).  Records
    whose value escaped the set are invalidated - m-invariance has no legal
    group for them - so they re-enter as first-timers via the static
    partitioner, and folding the release into the state counts them.
    """
    rng = random.Random(seed)
    ordered = sorted(records, key=lambda r: r.id)
    buckets: dict[frozenset[str], list[Record]] = {}
    pool: list[Record] = []
    invalidated: list[str] = []
    for rec in ordered:
        sig = state.signatures.get(rec.id)
        if sig is None:
            pool.append(rec)
        elif rec.sensitive in sig:
            buckets.setdefault(sig, []).append(rec)
        else:
            invalidated.append(rec.id)
            pool.append(rec)

    groups: list[list[Record | CounterfeitMember]] = []
    for sig, members in buckets.items():
        values = sorted(sig)
        by_value: dict[str, list[Record]] = {v: [] for v in values}
        for rec in members:
            by_value[rec.sensitive].append(rec)
        depth = max(len(v) for v in by_value.values())
        for g in range(depth):
            group: list[Record | CounterfeitMember] = []
            for v in values:
                lst = by_value[v]
                group.append(lst[g] if g < len(lst) else CounterfeitMember(v))
            groups.append(group)
    groups.extend(static_partition(pool, state.m, schema, model, rng))
    if not groups:
        raise InfeasibilityError("nothing to publish")
    release = generalize(schema, state.release_count + 1, groups)
    state.apply(release, model)
    return release, state, invalidated


def count_vulnerable(reports: Iterable[RiskReport]) -> int:
    """Number of (record, release) exposures whose sensitive value is fully
    disclosed, i.e. whose disclosure risk is exactly 1: the sum of the
    counts each report took when it was made, so no risk is read."""
    return sum(report.vulnerable for report in reports)


def max_risk(reports: Iterable[RiskReport]) -> Fraction:
    """The largest disclosure risk over all reports, 0 when there are none:
    one `Fraction` per distinct (largest numerator, total) pair."""
    pairs = {(max(r.numerators), r.total) for r in reports}
    return max((Fraction(*pair) for pair in pairs), default=Fraction(0))
