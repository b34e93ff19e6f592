"""`scripts/sweep_replay.py` replays captured split-sweep calls, against
this checkout's sweep and a base checkout's, and fails on a wrong result."""

import importlib.util
import json
import pickle
import random
from pathlib import Path

import pytest

from mdistinct import engine
from mdistinct.fileio import synthetic_schema

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "sweep_replay.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("sweep_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calls(path: Path, tamper: bool) -> None:
    """One sweep over 24 random cells, three of each of 8 values, and its
    calls at units 1, 2 and 3, as `capture` pickles them; `tamper` makes
    the last call's recorded cut wrong."""
    schema, _ = synthetic_schema()
    qi = schema.qi
    rng = random.Random(5)
    point = [tuple(rng.randrange(a.size) for a in qi) for _ in range(24)]
    value_of = [c % 8 for c in range(len(point))]
    orders = [sorted(range(len(point)), key=lambda c: (point[c][j], c))
              for j in range(len(qi))]
    sweep = engine._Sweep(qi, point, value_of)
    calls = []
    for unit in (1, 2, 3):
        result = sweep.best(orders, len(point), orders, unit)
        assert result is not None
        if tamper and unit == 3:
            result = (result[0], result[1] + unit)
        calls.append((0, orders, len(point), orders, unit, result))
    with open(path, "wb") as fh:
        pickle.dump({"workload": "sim_m6", "seed": 7,
                     "sweeps": [(qi, point, value_of)], "calls": calls}, fh)


def test_replay_times_both_sides_and_checks_each_result(script, tmp_path,
                                                        capsys):
    path = tmp_path / "calls.pickle"
    _calls(path, tamper=False)
    assert script.main(["replay", str(path), "--base", str(ROOT),
                        "--rounds", "3"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["calls"] == 3
    assert result["mismatches"] == {"base": 0, "change": 0}
    assert [len(result["seconds"][side]) for side in ("base", "change")] \
        == [3, 3]
    assert 0 <= result["change_faster_rounds"] <= 3


def test_replay_fails_on_a_result_other_than_the_capture(script, tmp_path,
                                                         capsys):
    path = tmp_path / "calls.pickle"
    _calls(path, tamper=True)
    assert script.main(["replay", str(path), "--rounds", "2"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["mismatches"] == {"change": 2}
