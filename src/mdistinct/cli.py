"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 infeasible
(including inconsistent histories).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import (MInvarianceState, count_vulnerable, max_risk,
                        publish_l_diversity, publish_m_invariance)
from .engine import EngineState, publish, verify_m_distinct
from .errors import InfeasibilityError, MDistinctError, ValidationError
from .evaluation import load_experiment_config, run_experiment
from .fileio import (HistoryStore, ReadFile, load_external_tables,
                     load_microdata, load_update_model, snapshot_schema,
                     write_report_files, write_risks)
from .sug import attack_release_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; we reserve 2 for validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdistinct",
                     description="m-Distinct republication of dynamic "
                                 "microdata with sensitive-value updates")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("publish", help="publish the next release of a history")
    p.add_argument("--microdata", required=True, type=Path)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--history", required=True, type=Path)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--star", action="store_true",
                   help="require disjoint CUS in first-appearance groups")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("attack", help="compute disclosure risks for a history")
    p.add_argument("--history", required=True, type=Path)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--et", type=Path, default=None,
                   help="directory of et_<i>.csv external-knowledge tables "
                        "(default: the stored microdata snapshots)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="check a history satisfies m-Distinct")
    p.add_argument("--history", required=True, type=Path)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--star", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run an end-to-end experiment")
    p.add_argument("--config", required=True, type=Path)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="publish with a comparison scheme")
    p.add_argument("--kind", required=True, choices=["ldiv", "minv"])
    p.add_argument("--microdata", required=True, type=Path)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--history", required=True, type=Path)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_baseline)
    return parser


def _check_m(m: int) -> None:
    if m < 2:
        raise ValidationError(f"--m must be at least 2, got {m}")


def _publish_locked(args, mode: str, step) -> tuple:
    """The body `publish` and `baseline` share: under the history lock,
    `step(store, records, schema, model)` makes the release and the tail of
    the summary line, and the release is appended.  Returns all three."""
    _check_m(args.m)
    model = load_update_model(args.model)
    store = HistoryStore(args.history)
    with store.lock():
        stored = store.stored_schema(args.m, mode)
        microdata = ReadFile(args.microdata)  # one read for both readers
        schema = snapshot_schema(microdata, model, stored)
        records = load_microdata(microdata, schema)
        release, tail = step(store, records, schema, model)
        store.append(release, records, schema, stored,
                     {"seed": str(args.seed), "m": str(args.m), "mode": mode})
    return release, records, tail


def cmd_publish(args) -> int:
    mode = "m_distinct_star" if args.star else "m_distinct"

    def step(store, records, schema, model):
        state = store.replay_state(EngineState(args.m, mode), model)
        release, _ = publish(records, state, model, schema, seed=args.seed)
        return release, ""

    release, records, _ = _publish_locked(args, mode, step)
    counterfeits = sum(release.counterfeit_stats.values())
    print(f"release {release.release_index}: {len(release.groups)} groups, "
          f"{len(records)} records, {counterfeits} counterfeits")
    return EXIT_OK


def _read_history(args) -> tuple:
    """The model, store, schema and releases an audit command reads."""
    model = load_update_model(args.model)
    store = HistoryStore(args.history)
    schema = store.read_schema()
    releases = store.read_releases(schema)
    if not releases:
        raise ValidationError(f"history {store.path} has no releases")
    return model, store, schema, releases


def cmd_attack(args) -> int:
    model, store, schema, releases = _read_history(args)
    if args.et is None:
        histories, et = store.actuals(schema)
    else:
        histories = store.histories(schema)
        et = load_external_tables(args.et, schema)
    reports = attack_release_sequence(releases, et, model, histories, schema)
    write_risks(store.path / "risks.csv", reports)
    vulnerable = count_vulnerable(reports)
    worst = max_risk(reports)
    print(f"{len(reports)} records attacked; max risk "
          f"{worst.numerator}/{worst.denominator}; {vulnerable} fully "
          f"disclosed record versions")
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_m(args.m)
    model, _, _, releases = _read_history(args)
    ok, violations = verify_m_distinct(releases, model, args.m,
                                       star=args.star)
    if ok:
        print(f"OK: {len(releases)} releases satisfy "
              f"{args.m}-distinct{'*' if args.star else ''}")
        return EXIT_OK
    for line in violations:
        print(line, file=sys.stderr)
    return EXIT_VALIDATION


def cmd_simulate(args) -> int:
    config, out_dir = load_experiment_config(args.config)
    report = run_experiment(config)
    write_report_files(out_dir, report)
    for theta in config.thetas:
        med = report.pooled_medians.get(theta)
        if med is None:
            print(f"theta={theta}: no queries evaluated")
        else:
            print(f"theta={theta}: median relative error {float(med):.4f}")
    if not report.published:
        print(f"nothing published (n_releases is 0); report in {out_dir}")
        return EXIT_OK
    print(f"verify {'passed' if report.verify_ok else 'FAILED'}; "
          f"{report.vulnerable} fully disclosed record versions; "
          f"report in {out_dir}")
    if config.publisher not in ("m_distinct", "m_distinct_star"):
        return EXIT_OK
    return EXIT_OK if report.verify_ok else EXIT_VALIDATION


def cmd_baseline(args) -> int:
    def step(store, records, schema, model):
        if args.kind == "ldiv":
            index = len(store.release_indices()) + 1
            return publish_l_diversity(records, args.m, schema, model,
                                       args.seed, release_index=index), ""
        # replay counts the invalidations of every stored release
        state = store.replay_state(MInvarianceState(args.m), model)
        release, state, invalidated = publish_m_invariance(
            records, state, schema, model, args.seed)
        return release, (f", {len(invalidated)} invalidated this release "
                         f"({state.invalidated_total} cumulative)")

    release, _, tail = _publish_locked(args, f"baseline_{args.kind}", step)
    counterfeits = sum(release.counterfeit_stats.values())
    print(f"release {release.release_index} ({args.kind}): "
          f"{len(release.groups)} groups, {counterfeits} counterfeits{tail}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MDistinctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibilityError):
            return EXIT_INFEASIBLE
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
