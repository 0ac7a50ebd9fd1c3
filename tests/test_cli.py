import json
import random

import pytest

from lcsk.bench import generate_pair, run_cells
from lcsk.cli import main
from lcsk.core import ChunkAlignment, Params, validate_alignment

EX_X = "acdbacbc"
EX_Y = "aacdabca"
EX_DUMP_K2 = """\
5
C:
    -  a  a  c  d  a  b  c  a
 -  0  0  0  0  0  0  0  0  0
 a  0  0  0  0  0  0  0  0  0
 c  0  0  0  2  2  2  2  2  2
 d  0  0  0  2  3  3  3  3  3
 b  0  0  0  2  3  3  3  3  3
 a  0  0  0  2  3  3  3  3  3
 c  0  0  0  2  3  3  3  3  3
 b  0  0  0  2  3  3  3  3  3
 c  0  0  0  2  3  3  3  5  5
L:
    -  a  a  c  d  a  b  c  a
 -  0  0  0  0  0  0  0  0  0
 a  0  1  1  0  0  1  0  0  1
 c  0  0  0  2  0  0  0  1  0
 d  0  0  0  0  3  0  0  0  0
 b  0  0  0  0  0  0  1  0  0
 a  0  1  1  0  0  1  0  0  1
 c  0  0  0  2  0  0  0  1  0
 b  0  0  0  0  0  0  1  0  0
 c  0  0  0  1  0  0  0  2  0
M:
    -  a  a  c  d  a  b  c  a
 - -1 -1 -1 -1 -1 -1 -1 -1 -1
 a -1 -1 -1 -1 -1 -1 -1 -1 -1
 c -1 -1 -1  2 -1 -1 -1 -1 -1
 d -1 -1 -1 -1  3 -1 -1 -1 -1
 b -1 -1 -1 -1 -1 -1 -1 -1 -1
 a -1 -1 -1 -1 -1 -1 -1 -1 -1
 c -1 -1 -1  2 -1 -1 -1 -1 -1
 b -1 -1 -1 -1 -1 -1 -1 -1 -1
 c -1 -1 -1 -1 -1 -1 -1  5 -1
"""
OP_X = "14, 84, 82, 31, 74, 68, 87, 11, 20, 32"
OP_Y = "21 64 2 83 73 51 5 29 7 71"


@pytest.fixture()
def files(tmp_path):
    def write(name, text, binary=False):
        p = tmp_path / name
        if binary:
            p.write_bytes(text)
        else:
            p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_golden(self, files, capsys):
        x, y = files("x", EX_X), files("y", EX_Y + "\n")  # newline is stripped
        code, out, _ = run(capsys, ["exact", x, y, "--k", "2"])
        assert code == 0 and out == "5\n"

    def test_identical_files_k1(self, files, capsys):
        x = files("x", "abcabc")
        code, out, _ = run(capsys, ["exact", x, x, "--k", "1"])
        assert code == 0 and out == "6\n"

    def test_low_mem_matches_default(self, files, capsys):
        rng = random.Random(1)
        s1 = "".join(rng.choice("ab") for _ in range(120))
        s2 = "".join(rng.choice("ab") for _ in range(90))
        x, y = files("x", s1), files("y", s2)
        c1, out1, _ = run(capsys, ["exact", x, y, "--k", "3"])
        c2, out2, _ = run(capsys, ["exact", x, y, "--k", "3", "--low-mem"])
        assert c1 == c2 == 0 and out1 == out2

    def test_chunks_json_is_valid(self, files, capsys):
        x, y = files("x", EX_X), files("y", EX_Y)
        code, out, _ = run(capsys, ["exact", x, y, "--k", "2", "--chunks"])
        assert code == 0
        length_line, json_line = out.splitlines()
        payload = json.loads(json_line)
        assert payload["total"] == int(length_line) == 5
        chunks = tuple((c["x"], c["y"], c["len"]) for c in payload["chunks"])
        a = ChunkAlignment(total=payload["total"], chunks=chunks)
        assert validate_alignment(EX_X, EX_Y, Params(k=2), a)

    def test_dump_tables_prints_grids(self, files, capsys):
        x, y = files("x", "aab"), files("y", "ab")
        code, out, _ = run(capsys, ["exact", x, y, "--k", "2", "--dump-tables"])
        assert code == 0
        assert "C:" in out and "L:" in out and "M:" in out

    def test_dump_tables_golden(self, files, capsys):
        # the L grid is built outside DpTables; pin all three grids
        x, y = files("x", EX_X), files("y", EX_Y)
        code, out, _ = run(capsys, ["exact", x, y, "--k", "2", "--dump-tables"])
        assert code == 0
        assert out == EX_DUMP_K2

    def test_dump_tables_size_limit(self, files, capsys):
        x, y = files("x", "a" * 65), files("y", "a")
        code, _, err = run(capsys, ["exact", x, y, "--k", "2", "--dump-tables"])
        assert code == 2 and "64" in err

    def test_quiet_conflicts(self, files, capsys):
        x, y = files("x", "ab"), files("y", "ab")
        code, _, _ = run(capsys, ["exact", x, y, "--k", "1", "--quiet", "--chunks"])
        assert code == 2

    def test_low_mem_rejects_chunks(self, files, capsys):
        x, y = files("x", "ab"), files("y", "ab")
        for flag in ("--chunks", "--dump-tables"):
            code, out, _ = run(capsys, ["exact", x, y, "--k", "1", "--low-mem", flag])
            assert code == 2 and out == ""

    def test_invalid_k(self, files, capsys):
        x, y = files("x", "ab"), files("y", "ab")
        code, _, err = run(capsys, ["exact", x, y, "--k", "0"])
        assert code == 2 and "k" in err

    def test_missing_file(self, files, capsys):
        y = files("y", "ab")
        code, _, err = run(capsys, ["exact", "/nonexistent/path", y, "--k", "1"])
        assert code == 1 and err

    def test_out_writes_file(self, files, capsys, tmp_path):
        x, y = files("x", EX_X), files("y", EX_Y)
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, ["exact", x, y, "--k", "2", "--out", str(target)])
        assert code == 0 and out == "" and target.read_text() == "5\n"

    def test_byte_identical_across_runs(self, files, capsys):
        x, y = files("x", EX_X), files("y", EX_Y)
        argv = ["exact", x, y, "--k", "2", "--chunks", "--dump-tables"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestOp:
    def test_golden(self, files, capsys):
        x, y = files("x", OP_X), files("y", OP_Y)
        code, out, _ = run(capsys, ["op", x, y, "--k", "3"])
        assert code == 0 and out == "7\n"

    def test_chunks_json(self, files, capsys):
        x, y = files("x", OP_X), files("y", OP_Y)
        code, out, _ = run(capsys, ["op", x, y, "--k", "3", "--chunks"])
        assert code == 0
        payload = json.loads(out.splitlines()[1])
        xs = tuple(int(t) for t in OP_X.replace(",", " ").split())
        ys = tuple(int(t) for t in OP_Y.split())
        chunks = tuple((c["x"], c["y"], c["len"]) for c in payload["chunks"])
        a = ChunkAlignment(total=payload["total"], chunks=chunks)
        assert validate_alignment(xs, ys, Params(k=3, mode="op"), a)

    def test_k1_rejected(self, files, capsys):
        x, y = files("x", OP_X), files("y", OP_Y)
        code, _, err = run(capsys, ["op", x, y, "--k", "1"])
        assert code == 2 and "k >= 2" in err

    def test_parse_error_reports_position(self, files, capsys):
        x = files("x", "1 2\n3, oops, 5\n")
        y = files("y", OP_Y)
        code, _, err = run(capsys, ["op", x, y, "--k", "2"])
        assert code == 1
        assert ":2:4:" in err and "oops" in err

    def test_empty_file(self, files, capsys):
        x, y = files("x", ""), files("y", OP_Y)
        code, out, _ = run(capsys, ["op", x, y, "--k", "2"])
        assert code == 0 and out == "0\n"

    def test_negative_values_parse(self, files, capsys):
        x = files("x", "-5, -1, -3, -2")  # same shape as 10 40 20 30
        y = files("y", "10 40 20 30")
        code, out, _ = run(capsys, ["op", x, y, "--k", "2"])
        assert code == 0 and out == "4\n"

    def test_dump_tables(self, files, capsys):
        x, y = files("x", "1 2 3"), files("y", "4 5 6")
        code, out, _ = run(capsys, ["op", x, y, "--k", "2", "--dump-tables"])
        assert code == 0 and "C:" in out


class TestBench:
    def test_row_count_contract(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["bench", "--mode", "exact", "--n", "32,64,96", "--k", "2,3", "--sigma", "4", "--seed", "1"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mode,n,k,sigma,seconds"
        assert len(lines) == 1 + 3 * 2
        assert all(line.startswith("exact,") for line in lines[1:])

    def test_same_seed_same_inputs_and_lengths(self):
        a = generate_pair("op", 40, 100, 7)
        b = generate_pair("op", 40, 100, 7)
        assert a == b
        r1 = run_cells("exact", [48], [2], 4, 11)
        r2 = run_cells("exact", [48], [2], 4, 11)
        assert [c.length for c in r1] == [c.length for c in r2]

    def test_bad_parameters(self, capsys):
        code, _, _ = run(capsys, ["bench", "--mode", "op", "--n", "16", "--k", "1", "--sigma", "4"])
        assert code == 2
        code, _, _ = run(capsys, ["bench", "--mode", "exact", "--n", "16", "--k", "2", "--sigma", "0"])
        assert code == 2

    def test_malformed_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--mode", "exact", "--n", "12;34", "--k", "2"])
        assert exc.value.code == 2

    def test_csv_out_file(self, capsys, tmp_path):
        target = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys,
            ["bench", "--mode", "op", "--n", "24", "--k", "2", "--sigma", "50", "--seed", "3", "--out", str(target)],
        )
        assert code == 0 and out == ""
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "mode,n,k,sigma,seconds" and len(lines) == 2
        mode, n, k, sigma, seconds = lines[1].split(",")
        assert (mode, n, k, sigma) == ("op", "24", "2", "50")
        assert float(seconds) >= 0
