"""The benchmark's workloads: inputs from a seed, one timed pass, its checks.

Each workload is one object with four steps, called by `run.py`:

    prepare(seed, size, work_dir) -> inputs     (set-up, untimed by run_s)
    warmup(inputs) -> inputs                    (a small pass for set-up)
    run(inputs, out_dir, clock) -> Pass         (the timed, traceable pass)
    finish(inputs, pass, out_dir, clock)        (audit, outputs, checks)
    oracle(inputs, pass, out_dir) -> (checked, problems)

Why each workload exists (see README.md for the measured profile):

* sim_m6 - the m-Distinct simulation at m=6 has the largest candidate sets
  and re-attacks every release prefix, so work in the `sug` layer and in
  publisher phase 2 shows here.  It does no file I/O.
* sim_minv - the same simulation with the m-invariance publisher at m=2.
  Engine phases 1-3 never run, so it is the "no change" control for
  publisher-phase work; it stresses query estimation and the static
  partitioner (reached through `baselines`) hardest.
* cli_m2 - the data custodian's loop through the command line: publish
  every snapshot into a fresh history, then attack and verify it.  It
  shows `fileio` writes next to re-reads, attacks the history once instead
  of every prefix, and never estimates queries, so it is the "no change"
  control for `evaluation` work.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from mdistinct import cli, evaluation
from mdistinct.engine import verify_m_distinct
from mdistinct.evaluation import ExperimentConfig, RunReport
from mdistinct.fileio import (HistoryStore, apply_external_updates,
                              initial_population, synthesize_internal_updates,
                              synthetic_schema, write_microdata,
                              write_report_files, write_update_model)
from mdistinct.model import Record
from mdistinct.sug import attack_release_sequence
from mdistinct.updates import UpdateModel

from gate import file_digests, oracle_sample
from refclock import RefClock


@dataclass(frozen=True)
class Size:
    n_records: int
    n_releases: int
    inserts: int
    deletes: int
    internal_updates: int
    n_queries: int = 0


# A fifth of the desk-scale population of 2000 records with 500/200/500
# churn, over 8 releases (sims) and 12 (CLI): one pass takes 3-9 s on a
# 2-core host, so a run holds a few.  A seed changes the inputs and so the
# cost; at 250 records that cost varied 6% (sim_m6) and 8% (cli_m2)
# IQR/median across seeds, at 400 records 4.5% (sim_m6).
SIM_SIZE = Size(400, 8, 100, 40, 100, 200)
CLI_SIZE = Size(400, 12, 100, 40, 100)
# The warm-up pass that ends every set-up costs little but reaches every
# code path of the full pass.  The CLI warm-up publishes the first snapshots
# of the real inputs: the history schema is inferred from the first
# snapshot, so a smaller population could miss a category seen later.
WARMUP_SIZE = Size(40, 3, 10, 4, 10, 20)
WARMUP_RELEASES = 3

CLI_M = 2
CLI_PUBLISH_SEED = 3


@dataclass
class Pass:
    """One pass.  Times are (wall seconds, reference units) pairs read from
    a RefClock; `run` fills the timings, `finish` the rest."""
    run: tuple[float, float]
    publish: list[tuple[float, float]]
    attempted: int
    failed: int = 0
    audit: tuple[float, float] | None = None
    report: RunReport | None = None
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


class SimWorkload:
    """`run_experiment` end to end; the audit is timed after the pass."""

    def __init__(self, publisher: str, m: int):
        self.publisher = publisher
        self.m = m
        self.m_distinct = publisher == "m_distinct"

    def prepare(self, seed: int, size: Size, work_dir: Path,
                ) -> ExperimentConfig:
        return ExperimentConfig(
            publisher=self.publisher, m=self.m, d=10,
            n_records=size.n_records, n_releases=size.n_releases,
            inserts=size.inserts, deletes=size.deletes,
            internal_updates=size.internal_updates,
            n_queries=size.n_queries, seed=seed)

    def warmup(self, config: ExperimentConfig) -> ExperimentConfig:
        return replace(config, **{k: getattr(WARMUP_SIZE, k)
                                  for k in vars(WARMUP_SIZE)})

    def run(self, config: ExperimentConfig, out_dir: Path,
            clock: RefClock) -> Pass:
        # The publisher call is timed where run_experiment looks it up; a
        # traced pass has already wrapped that name and gets it back after.
        name = "publish" if self.m_distinct else "publish_m_invariance"
        original = getattr(evaluation, name)
        publish = []

        def timed_publish(*args, **kwargs):
            mark = clock.read()
            try:
                return original(*args, **kwargs)
            finally:
                publish.append(clock.since(mark))

        setattr(evaluation, name, timed_publish)
        try:
            mark = clock.read()
            # looked up on the module so that a traced pass sees its wrapper
            report = evaluation.run_experiment(config)
            run = clock.since(mark)
        finally:
            setattr(evaluation, name, original)
        return Pass(run, publish, attempted=1, report=report)

    def _model(self, config: ExperimentConfig) -> UpdateModel:
        return synthetic_schema(config.d, config.sensitive_size)[1]

    @staticmethod
    def _histories(report: RunReport) -> dict[str, dict[int, str]]:
        out: dict[str, dict[int, str]] = {}
        for release, snapshot in zip(report.published, report.snapshots):
            for rec in snapshot:
                out.setdefault(rec.id, {})[release.release_index] = \
                    rec.sensitive
        return out

    def finish(self, config: ExperimentConfig, done: Pass, out_dir: Path,
               clock: RefClock) -> None:
        report = done.report
        model = self._model(config)
        histories = self._histories(report)
        mark = clock.read()
        reports = attack_release_sequence(report.published, None, model,
                                          histories)
        verify_ok, _ = verify_m_distinct(report.published, model, config.m)
        done.audit = clock.since(mark)
        done.attempted += 1

        problems = done.problems
        if reports != report.final_reports:
            problems.append("the audit's risks differ from the last attack "
                            "inside run_experiment")
        if verify_ok != report.verify_ok:
            problems.append("the audit's verify differs from run_experiment's")
        if self.m_distinct and not report.verify_ok:
            problems.append(f"verify failed: {report.violations[:3]}")
        if self.m_distinct and report.vulnerable:
            problems.append(f"{report.vulnerable} versions have risk 1")
        write_report_files(out_dir, report)
        done.digests = file_digests(out_dir, ["report.csv", "summary.csv"])

    def oracle(self, config: ExperimentConfig, done: Pass,
               out_dir: Path) -> tuple[int, list[str]]:
        report = done.report
        risks = {r.record_id: (r.versions, r.risks)
                 for r in report.final_reports}
        return oracle_sample(report.published, self._histories(report),
                             self._model(config), risks)


@dataclass
class CliInputs:
    snapshots: list[Path]
    model: Path


class CliWorkload:
    """In-process `mdistinct` commands: publish each snapshot into a fresh
    history, then attack, then verify; stdout goes to a buffer."""

    def prepare(self, seed: int, size: Size, work_dir: Path) -> CliInputs:
        work_dir.mkdir(parents=True, exist_ok=True)
        schema, model = synthetic_schema()
        master = random.Random(seed)
        records: list[Record]
        records, next_id = initial_population(
            size.n_records, schema, model,
            random.Random(master.randrange(2 ** 32)))
        snapshots = []
        for step in range(size.n_releases):
            rng = random.Random(master.randrange(2 ** 32))
            if step:
                records, next_id = apply_external_updates(
                    records, schema, rng, size.inserts, size.deletes,
                    next_id)
                records = synthesize_internal_updates(
                    records, schema, model, size.internal_updates, rng)
            path = work_dir / f"snapshot_{step + 1}.csv"
            write_microdata(path, schema, records)
            snapshots.append(path)
        model_path = work_dir / "model.csv"
        write_update_model(model_path, model)
        return CliInputs(snapshots, model_path)

    def warmup(self, inputs: CliInputs) -> CliInputs:
        return replace(inputs, snapshots=inputs.snapshots[:WARMUP_RELEASES])

    def run(self, inputs: CliInputs, out_dir: Path, clock: RefClock) -> Pass:
        history = str(out_dir / "history")
        model = str(inputs.model)
        commands = [["publish", "--microdata", str(snap), "--model", model,
                     "--history", history, "--m", str(CLI_M),
                     "--seed", str(CLI_PUBLISH_SEED)]
                    for snap in inputs.snapshots]
        commands.append(["attack", "--history", history, "--model", model])
        commands.append(["verify", "--history", history, "--model", model,
                         "--m", str(CLI_M)])
        times = []
        failed = 0
        start = clock.read()
        for argv in commands:
            mark = clock.read()
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            times.append(clock.since(mark))
            failed += code != 0
        run = clock.since(start)
        (attack_s, attack_ref), (verify_s, verify_ref) = times[-2:]
        return Pass(run, times[:-2], attempted=len(commands), failed=failed,
                    audit=(attack_s + verify_s, attack_ref + verify_ref))

    def finish(self, inputs: CliInputs, done: Pass, out_dir: Path,
               clock: RefClock) -> None:
        history = out_dir / "history"
        problems = done.problems
        if done.failed:
            problems.append(f"{done.failed} commands exited non-zero")
        full = sum(1 for versions, risks in _read_risks(history).values()
                   for risk in risks if risk == 1)
        if full:
            problems.append(f"{full} versions have risk 1")
        done.digests = file_digests(history)
        done.counts["fileio.history_bytes"] = sum(
            p.stat().st_size for p in history.iterdir() if p.is_file())

    def oracle(self, inputs: CliInputs, done: Pass,
               out_dir: Path) -> tuple[int, list[str]]:
        store = HistoryStore(out_dir / "history")
        schema = store.read_schema()
        model = synthetic_schema()[1]
        return oracle_sample(store.read_releases(schema),
                             store.histories(schema), model,
                             _read_risks(store.path))


def _read_risks(history: Path,
                ) -> dict[str, tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """risks.csv as record id -> (versions, risks)."""
    rows: dict[str, list[tuple[int, Fraction]]] = {}
    lines = (history / "risks.csv").read_text().splitlines()
    for line in lines[1:]:
        rid, version, num, den, _ = line.split(",")
        rows.setdefault(rid, []).append((int(version),
                                         Fraction(int(num), int(den))))
    return {rid: (tuple(v for v, _ in vals), tuple(r for _, r in vals))
            for rid, vals in rows.items()}


def expected_read_release_calls(size: Size) -> int:
    """Each publish replays every earlier release; attack and verify then
    read the whole history once each: 90 calls for 12 releases."""
    n = size.n_releases
    return n * (n - 1) // 2 + 2 * n


WORKLOADS = {
    "sim_m6": SimWorkload("m_distinct", 6),
    "sim_minv": SimWorkload("m_invariance", 2),
    "cli_m2": CliWorkload(),
}
SIZES = {"sim_m6": SIM_SIZE, "sim_minv": SIM_SIZE, "cli_m2": CLI_SIZE}
