import re
import runpy
from pathlib import Path

import pytest

from lcsk import exact
from lcsk.bench import generate_pair

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_demo_examples_runs_and_every_witness_is_valid(capsys):
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "demo_examples.py"), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    verdicts = [line.rsplit("valid=", 1)[1] for line in out.splitlines() if "valid=" in line]
    assert verdicts == ["True"] * 3


def test_run_scaling_prints_one_block_per_k(capsys):
    main = runpy.run_path(str(SCRIPTS / "run_scaling.py"))["main"]
    assert main(["--mode", "op", "--n", "40,80", "--k", "2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[::3]] == [["mode=op", "k=2"], ["mode=op", "k=3"]]
    for first, second in zip(lines[1::3], lines[2::3]):
        assert first.split()[0] == "n=" and "  x" not in first
        assert second.split()[0] == "n=" and second.split()[-1].startswith("x")


def test_run_scaling_exact_takes_both_routes(capsys):
    # sigma = 4: one window pair in 16 matches at k = 2 (the row loop), about
    # one in 65536 at k = 8 (the point DP); the script's pairs are seed 0's
    routes = {(n, k): exact.MODE.plan(*generate_pair("exact", n, 4, 0), k).route
              for n in (200, 400) for k in (2, 8)}
    assert routes == {(200, 2): "rows", (400, 2): "rows", (200, 8): "points", (400, 8): "points"}
    main = runpy.run_path(str(SCRIPTS / "run_scaling.py"))["main"]
    assert main(["--mode", "exact", "--n", "200,400", "--k", "2,8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[::3]] == [["mode=exact", "k=2"], ["mode=exact", "k=8"]]
    lengths = [int(line.split("length=")[1].split()[0]) for line in lines if "length=" in line]
    assert lengths[0] >= lengths[2] and lengths[1] >= lengths[3]


def test_run_scaling_witness_prints_time_and_peak(capsys):
    # sigma = 4: the row loop and a table of 2 bits per cell at k = 2, the
    # point route at k = 8; the totals are the length path's
    main = runpy.run_path(str(SCRIPTS / "run_scaling.py"))["main"]
    assert main(["--mode", "exact", "--n", "300,600", "--k", "2,8", "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[::3]] == [["mode=exact", "k=2", "sigma=4", "witness"],
                                                     ["mode=exact", "k=8", "sigma=4", "witness"]]
    cells = [dict(re.findall(r"(\w+)=\s*(\S+)", line)) for line in lines if "peak=" in line]
    assert [(int(c["n"]), int(c["length"])) for c in cells] == [
        (n, exact.lcs_kplus_length(*generate_pair("exact", n, 4, 0), k)) for k in (2, 8) for n in (300, 600)]
    peaks = [float(c["peak"].removesuffix("B/cell")) for c in cells]
    assert all(0 < peak < 1 for peak in peaks)  # a byte per cell alone would reach 1
