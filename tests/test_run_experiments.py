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
