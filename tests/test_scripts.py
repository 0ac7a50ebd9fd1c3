import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_demo_examples_runs_and_every_witness_is_valid(capsys):
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "demo_examples.py"), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    verdicts = [line.rsplit("valid=", 1)[1] for line in out.splitlines() if "valid=" in line]
    assert verdicts == ["True"] * 3
