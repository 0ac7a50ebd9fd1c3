import contextlib
import io
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcsk.core
import lcsk.exact
from lcsk.bench import generate_pair, run_cells
from lcsk.cli import _read_op_file, main
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

OP_CHUNKS_K3 = """\
7
{"total":7,"chunks":[{"x":1,"y":3,"len":4},{"x":5,"y":8,"len":3}]}
"""
OP_DUMP_K3 = """\
7
C:
    - 21 64  2 83 73 51  5 29  7 71
 -  0  0  0  0  0  0  0  0  0  0  0
14  0  0  0  0  0  0  0  0  0  0  0
84  0  0  0  0  0  0  0  0  0  0  0
82  0  0  0  0  0  3  3  3  3  3  3
31  0  0  0  0  0  3  4  4  4  4  4
74  0  0  0  0  0  3  4  4  4  4  4
68  0  0  0  0  0  3  4  4  4  6  6
87  0  0  0  0  3  3  4  4  4  6  7
11  0  0  0  3  3  3  4  4  4  6  7
20  0  0  0  3  3  3  4  4  6  6  7
32  0  0  0  3  3  3  4  4  6  6  7
"""

# separators of op files: commas and any Unicode whitespace, line breaks included
SEPARATORS = [",", " ", "\t", "\n", "\r\n", "\r", ", ", "\x0b", "\x0c", "\x1c", "\x85",
              "\u00a0", "\u2003", "\u2028", "\u3000"]
int_tokens = st.integers(-10**20, 10**20).flatmap(lambda v: st.sampled_from(
    [str(v), f"{v:_d}", f"+{v}" if v >= 0 else str(v), f"0{v}" if v > 0 else str(v)]))


def token_loop(text: str, path: str):
    """Reference reader: the values of every token, or the first bad token's error."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in re.finditer(r"[^\s,]+", line):
            try:
                values.append(int(match.group()))
            except ValueError:
                return f"{path}:{lineno}:{match.start() + 1}: not an integer: {match.group()!r}"
    return tuple(values)


@st.composite
def op_texts(draw, bad_tokens=None):
    """Tokens joined by runs of separators, one of them drawn from bad_tokens if given."""
    tokens = draw(st.lists(int_tokens, max_size=12))
    if bad_tokens is not None:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(bad_tokens))
    seps = st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=3).map("".join)
    parts = [draw(st.sampled_from(["", *SEPARATORS]))]
    for tok in tokens:
        parts += [tok, draw(seps)]
    return "".join(parts)


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


class BothModes:
    """CLI behaviour that is the same in both modes; TestExact and TestOp
    set MODE, the golden pair X, Y at K with its LENGTH, and LONG, a file
    text of 65 symbols."""

    def test_dump_tables_size_limit(self, files, capsys):
        x, y = files("x", self.LONG), files("y", self.Y)
        code, out, err = run(capsys, [self.MODE, x, y, "--k", "2", "--dump-tables"])
        assert (code, out, err) == (2, "", "--dump-tables needs inputs of length <= 64\n")

    def test_quiet_conflicts(self, files, capsys):
        x, y = files("x", self.X), files("y", self.Y)
        for flag in ("--chunks", "--dump-tables"):
            code, out, err = run(capsys, [self.MODE, x, y, "--k", str(self.K), "--quiet", flag])
            assert (code, out, err) == (2, "", "--quiet conflicts with --chunks/--dump-tables\n")

    def test_out_writes_file(self, files, capsys, tmp_path):
        x, y = files("x", self.X), files("y", self.Y)
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, [self.MODE, x, y, "--k", str(self.K), "--out", str(target)])
        assert code == 0 and out == "" and target.read_text() == f"{self.LENGTH}\n"

    def test_byte_identical_across_runs(self, files, capsys):
        x, y = files("x", self.X), files("y", self.Y)
        argv = [self.MODE, x, y, "--k", str(self.K), "--chunks", "--dump-tables"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestExact(BothModes):
    MODE, X, Y, K, LENGTH, LONG = "exact", EX_X, EX_Y, 2, 5, "a" * 65

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

    def test_bytes_take_the_int_path(self, files, capsys, monkeypatch):
        # file bytes arrive as a tuple of ints, which core.codes ranks with
        # np.unique; only its general path checks for NaN
        monkeypatch.setattr(lcsk.core, "has_nan", lambda *a: pytest.fail("general path"))
        x, y = files("x", EX_X), files("y", EX_Y)
        for flags in ([], ["--low-mem"], ["--chunks", "--dump-tables"]):
            code, out, _ = run(capsys, ["exact", x, y, "--k", "2", *flags])
            assert code == 0 and out.startswith("5\n")

    @pytest.mark.parametrize("share", [0, float("inf")])
    def test_output_is_the_same_on_either_route(self, files, capsys, monkeypatch, share):
        # exit code, stdout and stderr with every flag set, with the route
        # the chunk-end count picks and with the row loop or the point route
        # forced (r < 0 * cells never holds, r < inf * cells always does)
        rng = random.Random(12)
        texts = [(EX_X, EX_Y), ("", "ab"), ("ab", "abab"), ("ab" * 20, "ba" * 25)]
        for _ in range(6):
            x = "".join(rng.choice("acgt") for _ in range(rng.randint(0, 60)))
            y = x[rng.randint(0, 20):] + "".join(rng.choice("acgt") for _ in range(rng.randint(0, 30)))
            texts.append((x, y))
        flag_sets = ([], ["--chunks"], ["--dump-tables"], ["--chunks", "--dump-tables"], ["--low-mem"],
                     ["--quiet"], ["--chunks", "--quiet"], ["--low-mem", "--chunks"])
        for i, (text_x, text_y) in enumerate(texts):
            x, y = files(f"x{i}", text_x), files(f"y{i}", text_y)
            for k in (1, 2, 3, 5):
                for flags in flag_sets:
                    argv = ["exact", x, y, "--k", str(k), *flags]
                    natural = run(capsys, argv)
                    with monkeypatch.context() as mp:
                        mp.setattr(lcsk.exact, "_SPARSE_SHARE", share)
                        assert run(capsys, argv) == natural

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


class TestOp(BothModes):
    MODE, X, Y, K, LENGTH, LONG = "op", OP_X, OP_Y, 3, 7, " ".join(["1"] * 65)

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

    @given(op_texts())
    @settings(max_examples=200)
    def test_reader_equals_token_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("op") / "x"
        path.write_bytes(text.encode("utf-8"))
        # the file is read in text mode, which turns \r\n and \r into \n
        assert _read_op_file(str(path)) == token_loop(text, str(path))

    @given(op_texts(st.sampled_from(["1.5", "x7", "1__0", "--3", "0x10", "nan", "5-", "+"])))
    @settings(max_examples=100)
    def test_bad_token_message_and_exit_code(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("op") / "x"
        path.write_bytes(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["op", str(path), str(path), "--k", "2", "--quiet"])
        assert code == 1 and err.getvalue() == token_loop(text, str(path)) + "\n"

    def test_bad_token_position_with_crlf_and_tabs(self, files, capsys):
        x = files("x", b"1 2\r\n3,\t+4 x7\r\n", binary=True)
        code, _, err = run(capsys, ["op", x, x, "--k", "2"])
        assert code == 1 and err == f"{x}:2:7: not an integer: 'x7'\n"

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

    def test_k_beyond_both_lengths(self, files, capsys):
        # no chunk fits: no window ids, an empty witness and a zero grid
        x, y = files("x", "3 1 2"), files("y", "1 2")
        code, out, _ = run(capsys, ["op", x, y, "--k", str(10**6), "--chunks", "--dump-tables"])
        assert code == 0 and out == """\
0
{"total":0,"chunks":[]}
C:
    -  1  2
 -  0  0  0
 3  0  0  0
 1  0  0  0
 2  0  0  0
"""

    def test_chunks_golden(self, files, capsys):
        x, y = files("x", OP_X), files("y", OP_Y)
        code, out, _ = run(capsys, ["op", x, y, "--k", "3", "--chunks"])
        assert code == 0 and out == OP_CHUNKS_K3

    def test_dump_tables_golden(self, files, capsys):
        x, y = files("x", OP_X), files("y", OP_Y)
        code, out, _ = run(capsys, ["op", x, y, "--k", "3", "--dump-tables"])
        assert code == 0 and out == OP_DUMP_K3


@pytest.mark.parametrize("mode, text_x, text_y, table, length", [
    ("exact", "31415", "2714181", "16 bytes at 2 bits per cell", "3"),
    ("op", "3 1 4 1 5", "2 7 1 4 1 8 1", "16 bytes at 2 bits per cell", "5"),
])
def test_table_too_big_exits_2(mode, text_x, text_y, table, length, files, capsys, monkeypatch):
    # an allocator that refuses the 6 x 8 score table, which k = 2 packs
    # four rows to a byte into 2 x 8 bytes, and nothing else
    real = np.zeros

    def zeros(shape, dtype=float, *args, **kwargs):
        if shape == (2, 8) and np.dtype(dtype) == np.uint8:
            raise MemoryError
        return real(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    x, y = files("x", text_x), files("y", text_y)
    code, out, err = run(capsys, [mode, x, y, "--k", "2", "--chunks"])
    assert (code, out) == (2, "")
    assert err == f"cannot allocate the 6 x 8 score table: {table}\n"
    code, out, _ = run(capsys, [mode, x, y, "--k", "2"])  # the length path keeps no table
    assert (code, out) == (0, length + "\n")


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

    def test_iterator_arguments_give_every_row(self):
        got = run_cells("exact", iter([50, 60]), (k for k in (2, 3)), 4, 0)
        want = run_cells("exact", [50, 60], [2, 3], 4, 0)
        assert [(c.n, c.k, c.length) for c in got] == [(c.n, c.k, c.length) for c in want]
        assert len(got) == 4

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
