"""Output-correctness checks shared by the workloads.

Three kinds of check, all made outside the timed region:

* byte identity: sha256 of every output file, compared with the digests in
  `digests.json` for the default seed and with the run's first pass for
  every other pass (traced passes included);
* invariants that hold for any seed (m-Distinct verifies, no version has
  risk 1, every CLI command exits 0);
* the attack against `risks_by_joint_oracle`, the exhaustive joint
  enumeration, on a fixed sample of records small enough to enumerate.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from mdistinct.model import PublishedRelease
from mdistinct.sug import JOINT_ORACLE_CAP, risks_by_joint_oracle
from mdistinct.updates import UpdateModel

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

# The oracle enumerates every joint assignment in Fraction, so the sample
# keeps to records far below JOINT_ORACLE_CAP: a dozen of them cost well
# under a second.
ORACLE_SAMPLE = 12
ORACLE_MAX_JOINT = min(1024, JOINT_ORACLE_CAP)


def file_digests(directory: Path, names: Sequence[str] | None = None,
                 ) -> dict[str, str]:
    """sha256 of each named file, or of every file in `directory`."""
    if names is None:
        names = sorted(p.name for p in directory.iterdir() if p.is_file())
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def recorded_digests(workload: str) -> dict[str, str] | None:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh).get(workload)


def compare_digests(label: str, got: Mapping[str, str],
                    want: Mapping[str, str]) -> list[str]:
    problems = []
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            problems.append(f"{label}: {name} differs "
                            f"({got.get(name)} != {want.get(name)})")
    return problems


def oracle_sample(releases: Sequence[PublishedRelease],
                  histories: Mapping[str, Mapping[int, str]],
                  model: UpdateModel,
                  risks: Mapping[str, tuple[tuple[int, ...],
                                            tuple[Fraction, ...]]],
                  ) -> tuple[int, list[str]]:
    """Check the attack's risks against the joint oracle on a fixed sample.

    `risks` maps record id to (versions, risks) as the attack reported
    them.  The sample is every k-th record, in id order, among those that
    appear in at least two releases and whose joint size is at most
    ORACLE_MAX_JOINT.  Returns (records checked, problems).
    """
    group_of = {rel.release_index: rel.group_of() for rel in releases}
    eligible = []
    for rid in sorted(risks):
        versions, _ = risks[rid]
        if len(versions) < 2:
            continue
        candidates = [group_of[v][rid].values for v in versions]
        joint = 1
        for cand in candidates:
            joint *= len(set(cand))
        if joint <= ORACLE_MAX_JOINT:
            eligible.append((rid, versions, candidates))
    step = max(1, len(eligible) // ORACLE_SAMPLE)
    sample = eligible[::step][:ORACLE_SAMPLE]
    problems = []
    for rid, versions, candidates in sample:
        actual = [histories[rid][v] for v in versions]
        want = risks_by_joint_oracle(candidates, model, actual,
                                     record_id=rid, versions=versions).risks
        if tuple(risks[rid][1]) != want:
            problems.append(f"record {rid}: attack risks {risks[rid][1]} "
                            f"differ from the joint oracle {want}")
    if not sample:
        problems.append("no record small enough for the joint oracle")
    return len(sample), problems
