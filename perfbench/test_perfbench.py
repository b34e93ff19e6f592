"""The benchmark's own test: counters repeat, identities hold, tracing does
not change outputs.  Runs every workload at a small size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from refclock import RefClock  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import (WORKLOADS, Size,  # noqa: E402
                       expected_read_release_calls)

SIM_SMALL = Size(60, 3, 15, 6, 15, 30)
# The CLI infers the history schema from the first snapshot, so it must
# hold every category value later snapshots use.
CLI_SMALL = Size(120, 12, 30, 12, 30)
SMALL = {"sim_m6": SIM_SMALL, "sim_minv": SIM_SMALL, "cli_m2": CLI_SMALL}
SEED = 7


def one_pass(name, inputs, out_dir: Path, traced: bool):
    workload = WORKLOADS[name]
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    with RefClock() as clock:
        tracer = install(Tracer(0)) if traced else None
        try:
            done = workload.run(inputs, out_dir, clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.finish(inputs, done, out_dir, clock)
    return done, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_passes_repeat_and_hold_identities(name, tmp_path):
    workload, size = WORKLOADS[name], SMALL[name]
    inputs = workload.prepare(SEED, size, tmp_path / "inputs")
    plain, _ = one_pass(name, inputs, tmp_path / "plain", traced=False)
    assert plain.problems == []
    assert plain.run[0] > 0 and plain.run[1] > 0

    counts = []
    for k in range(2):
        out_dir = tmp_path / f"traced{k}"
        done, tracer = one_pass(name, inputs, out_dir, traced=True)
        # the traced pass passes the same output gate as the untraced one
        assert done.problems == []
        assert done.digests == plain.digests
        checked, problems = workload.oracle(inputs, done, out_dir)
        assert checked > 0 and problems == []
        pass_counts = {**tracer.counts, **done.counts}
        read_calls = expected_read_release_calls(size) \
            if name == "cli_m2" else None
        assert tracer.identity_problems(pass_counts, read_calls) == []
        counts.append(pass_counts)
    assert counts[0] == counts[1]
    assert counts[0]["sug.attack.calls"] == (1 if name == "cli_m2"
                                             else size.n_releases)
    if name == "cli_m2":
        assert counts[0]["fileio.read_release.calls"] == 90


def test_wrappers_are_removed():
    from mdistinct import cli, engine, evaluation, sug
    before = (evaluation.publish, engine.phase2_assign, sug.build_sug,
              cli.load_microdata)
    install(Tracer(0)).uninstall()
    assert (evaluation.publish, engine.phase2_assign, sug.build_sug,
            cli.load_microdata) == before


def test_per_layer_names_match_benchmark_json():
    import run
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = run.layer_metrics([{"run_ref": 1.0}],
                                [{"run_ref": 1.0, "span_s": {}}], {})
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in bench["per_layer"]}
