#!/usr/bin/env python3
"""Sweep the standard experiment grid and collect per-run reports.

Runs every publisher at each requested group size over the same synthetic
evolving population, then prints a one-line summary per run.  Full CSV
reports land in <out>/<publisher>_m<m>/ (report.csv, summary.csv,
timings.csv).

The strict publisher needs as many pairwise-disjoint update scopes as the
group size; with the default 50-value domain in blocks of 10 that caps m at
5, so the m=6 strict run narrows the blocks to 5 values automatically.

Examples:
    python3 scripts/run_experiments.py --out results
    python3 scripts/run_experiments.py --out smoke --quick -m 2
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mdistinct.evaluation import PUBLISHERS, ExperimentConfig, run_experiment
from mdistinct.fileio import write_report_files

QUICK = dict(n_records=200, n_releases=4, inserts=50, deletes=20,
             internal_updates=50, n_queries=200)


def build_config(publisher: str, m: int, seed: int, quick: bool,
                 ) -> ExperimentConfig:
    overrides = dict(QUICK) if quick else {}
    d = 10
    if publisher == "m_distinct_star" and 50 // d < m:
        d = 50 // m  # shrink update scopes until m of them fit disjointly
    return ExperimentConfig(publisher=publisher, m=m, d=d, seed=seed,
                            **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("-m", "--group-sizes", type=int, nargs="+",
                        default=[2, 4, 6])
    parser.add_argument("--publishers", nargs="+", default=list(PUBLISHERS),
                        choices=list(PUBLISHERS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="small population for a fast smoke run")
    args = parser.parse_args(argv)

    failures = 0
    for publisher in args.publishers:
        for m in args.group_sizes:
            label = f"{publisher}_m{m}"
            t0 = time.perf_counter()
            try:
                config = build_config(publisher, m, args.seed, args.quick)
                report = run_experiment(config)
                elapsed = time.perf_counter() - t0
                write_report_files(args.out / label, report)
            except Exception as exc:
                print(f"{label:24s} FAILED: {exc}")
                failures += 1
                continue
            pooled = [report.pooled_medians.get(t) for t in config.thetas]
            medians = " ".join("-" if med is None else f"{float(med):.3f}"
                               for med in pooled)
            print(f"{label:24s} {elapsed:6.1f}s  groups/release "
                  f"{report.releases[-1].n_groups:4d}  vulnerable "
                  f"{report.vulnerable:4d}  max risk "
                  f"{report.max_risk.numerator}/{report.max_risk.denominator}"
                  f"  median err by theta: {medians}")
    print(f"reports written under {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
