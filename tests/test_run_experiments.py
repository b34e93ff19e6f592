import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, message", [
    (["--publishers", "m_distinct", "-m", "1"], "m must be at least 2"),
    # d = 50 // 60 = 0 for the strict publisher
    (["--publishers", "m_distinct_star", "-m", "60"],
     "need 1 <= d <= sensitive domain size"),
])
def test_bad_group_size_fails_the_run(script, tmp_path, capsys, argv,
                                      message):
    assert script.main(["--out", str(tmp_path / "out"), "--quick",
                        *argv]) == 1
    out = capsys.readouterr().out
    assert f"FAILED: {message}" in out
    assert not (tmp_path / "out").exists()


def test_unwritable_report_fails_the_run_and_the_sweep_goes_on(
        script, tmp_path, capsys):
    """--out names a file, so no report directory can be made under it:
    each run is counted FAILED and the sweep reaches the next one."""
    out = tmp_path / "notadir"
    out.write_text("")
    assert script.main(["--out", str(out), "--quick", "--publishers",
                        "m_invariance", "-m", "2", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for label in ("m_invariance_m2", "m_invariance_m3"):
        assert any(line.startswith(label) and "FAILED: cannot write" in line
                   for line in lines)
