#!/usr/bin/env python3
"""Capture every split-sweep call of one benchmark pass, then replay them.

    python3 scripts/sweep_replay.py capture --workload cli_m2 --seed 7 \\
        --out sweep_calls.pickle
    python3 scripts/sweep_replay.py replay sweep_calls.pickle \\
        --base ../parent --rounds 9

`capture` runs one pass of a workload of
`perfbench/` (set-up included, nothing timed) with `engine._Sweep.best`
wrapped, and pickles every call: the sweep it was made on (the schema's
QI attributes, the cells' points and value ids), its orders, its count of
real cells, its sequences, its unit and what it returned.

`replay` calls `_Sweep.best` of this checkout on the captured nodes, and,
with `--base`, that of another checkout's `src/`, loaded alongside under
another package name.  The two sides alternate over `--rounds` rounds (the
base first in odd rounds), each round timing every call of one side after
a `gc.collect()`.  Every return value must equal the captured one; a
mismatch is reported and the exit code is 1.  The last line of stdout is
one JSON object with each side's seconds per round and, with a base, the
median over rounds of the change / base ratio and the number of rounds in
which the change was faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import pickle
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from mdistinct import engine  # noqa: E402


def capture(workload: str, seed: int, out: Path) -> int:
    """Run one pass of `workload` and pickle its `best` calls to `out`."""
    from workloads import SIZES, WORKLOADS
    from refclock import RefClock

    sweeps: list[tuple] = []           # (qi, point, value_of) per sweep
    number: dict[int, int] = {}        # id(sweep) -> its place in sweeps
    calls: list[tuple] = []
    init, best = engine._Sweep.__init__, engine._Sweep.best

    def recording_init(self, qi, point, value_of):
        init(self, qi, point, value_of)
        # a later sweep may take the id of a dead one: it takes its number
        # too, after the dead one's calls were recorded
        number[id(self)] = len(sweeps)
        sweeps.append((tuple(qi), [tuple(p) for p in point],
                       list(value_of)))

    def recording_best(self, orders, n_real, sequences, unit):
        result = best(self, orders, n_real, sequences, unit)
        calls.append((number[id(self)], [list(o) for o in orders], n_real,
                      [list(s) for s in sequences], unit, result))
        return result

    chosen = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = chosen.prepare(seed, SIZES[workload], Path(tmp) / "inputs")
        engine._Sweep.__init__ = recording_init
        engine._Sweep.best = recording_best
        try:
            with RefClock() as clock:
                chosen.run(inputs, Path(tmp) / "out", clock)
        finally:
            engine._Sweep.__init__, engine._Sweep.best = init, best
    used = sorted({call[0] for call in calls})
    kept = {k: n for n, k in enumerate(used)}
    with open(out, "wb") as fh:
        pickle.dump({"workload": workload, "seed": seed,
                     "sweeps": [sweeps[k] for k in used],
                     "calls": [(kept[k], *rest) for k, *rest in calls]},
                    fh, protocol=pickle.HIGHEST_PROTOCOL)
    print(f"{len(calls)} calls on {len(used)} sweeps to {out}")
    return 0


def load_engine(src: Path, alias: str):
    """The engine module of the package under `src`, imported as `alias`."""
    package = src / "mdistinct"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{alias}.engine"]


def replay_once(sweep_class, sweeps, calls) -> tuple[float, int]:
    """Seconds spent in every captured call, and how many returned other
    than the capture."""
    made = [sweep_class(*sweep) for sweep in sweeps]
    gc.collect()
    start = time.perf_counter()
    got = [made[k].best(orders, n_real, sequences, unit)
           for k, orders, n_real, sequences, unit, _ in calls]
    spent = time.perf_counter() - start
    return spent, sum(g != call[-1] for g, call in zip(got, calls))


def replay(path: Path, base: Path | None, rounds: int) -> int:
    with open(path, "rb") as fh:
        data = pickle.load(fh)
    sides = {"change": engine._Sweep}
    if base is not None:
        sides = {"base": load_engine(base / "src", "base_mdistinct")._Sweep,
                 **sides}
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    wrong = dict.fromkeys(sides, 0)
    for r in range(rounds):
        names = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in names:
            spent, bad = replay_once(sides[name], data["sweeps"],
                                     data["calls"])
            seconds[name].append(spent)
            wrong[name] += bad
    result = {"workload": data["workload"], "seed": data["seed"],
              "calls": len(data["calls"]), "rounds": rounds,
              "seconds": seconds, "mismatches": wrong}
    if base is not None:
        result["median_ratio"] = statistics.median(
            c / b for c, b in zip(seconds["change"], seconds["base"]))
        result["change_faster_rounds"] = sum(
            c < b for c, b in zip(seconds["change"], seconds["base"]))
    print(json.dumps(result))
    return 1 if any(wrong.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    cap = commands.add_parser("capture")
    cap.add_argument("--workload", choices=("sim_m6", "sim_minv", "cli_m2"),
                     required=True)
    cap.add_argument("--seed", type=int, default=7)
    cap.add_argument("--out", type=Path, required=True)
    rep = commands.add_parser("replay")
    rep.add_argument("calls", type=Path)
    rep.add_argument("--base", type=Path, default=None,
                     help="another checkout whose _Sweep.best to compare")
    rep.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    if args.command == "capture":
        return capture(args.workload, args.seed, args.out)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return replay(args.calls, args.base, args.rounds)


if __name__ == "__main__":
    sys.exit(main())
