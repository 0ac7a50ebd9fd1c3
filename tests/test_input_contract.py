"""Input contract of both modes: undefined inputs are refused at the entry
points with a clear error, and the CLI maps what can reach it to exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lcsk.cli import main
from lcsk.exact import chunk_max_table, compute_tables, lcs_kplus_length, traceback
from lcsk.op_lcs import op_lcs_kplus_length, op_lcs_kplus_state, op_traceback
from lcsk.oracles import naive_lcs_kplus

EXACT = (lcs_kplus_length, compute_tables, chunk_max_table)
OP = (op_lcs_kplus_length, op_lcs_kplus_state)

ints = st.lists(st.integers(-5, 5), max_size=10)
nans = st.sampled_from([math.nan, float("nan"), np.nan, np.float64("nan"), np.float32("nan")])
unhashables = st.sampled_from([[1], {}, {1}, bytearray(b"a")])
# containers that compare their items by identity first
CONTAINERS = {
    None: lambda v: v,
    "tuple": lambda v: (0, v),
    "frozenset": lambda v: frozenset({0, v}),
    "tuple in frozenset": lambda v: frozenset({(0, v)}),
}


def insert(seq: list, pos: int, value) -> list:
    pos %= len(seq) + 1
    return seq[:pos] + [value] + seq[pos:]


@pytest.mark.parametrize("solve", EXACT + OP)
class TestLibraryRejections:
    @given(x=ints, y=ints, pos=st.integers(0, 10), nan=nans, container=st.sampled_from(list(CONTAINERS)),
           swap=st.booleans())
    @settings(max_examples=25)
    def test_nan(self, solve, x, y, pos, nan, container, swap):
        wrap = CONTAINERS[container]
        x, y = [wrap(v) for v in x], [wrap(v) for v in y]
        x = insert(x, pos, wrap(nan))
        if swap:
            x, y = y, x
        with pytest.raises(ValueError, match="got NaN"):
            solve(x, y, 2)

    @given(x=ints, y=ints, pos=st.integers(0, 10), bad=unhashables)
    @settings(max_examples=25)
    def test_unhashable_symbols(self, solve, x, y, pos, bad):
        message = "op mode needs hashable values: " if solve in OP else "exact mode needs hashable symbols: "
        with pytest.raises(TypeError, match="^" + message):
            solve(insert(x, pos, bad), y, 2)

    @given(a=arrays(np.int64, array_shapes(min_dims=0, max_dims=3).filter(lambda s: len(s) != 1)),
           y=ints)
    @settings(max_examples=25)
    def test_ndim_not_one(self, solve, a, y):
        with pytest.raises(ValueError, match="one-dimensional"):
            solve(a, y, 2)
        with pytest.raises(ValueError, match="one-dimensional"):
            solve(y, a, 2)

    @given(x=ints, y=ints, k_bad=st.one_of(st.booleans(), st.floats(allow_nan=True)))
    @settings(max_examples=25)
    def test_bool_or_float_k(self, solve, x, y, k_bad):
        with pytest.raises(TypeError, match="k must be an integer"):
            solve(x, y, k_bad)


class TestMixedTypes:
    @given(x=ints.filter(bool), y=ints, pos=st.integers(0, 10),
           bad=st.sampled_from(["a", None, b"b", 1j, (1,)]), swap=st.booleans())
    @settings(max_examples=40)
    def test_op_rejects_incomparable_mix(self, x, y, pos, bad, swap):
        x = insert(x, pos, bad)
        if swap:
            x, y = y, x
        for solve in OP:
            with pytest.raises(TypeError, match="op mode needs mutually comparable values"):
                solve(x, y, 2)

    @given(x=ints, y=ints, pos=st.integers(0, 10),
           bad=st.sampled_from(["a", None, b"b", 1j, frozenset({1})]), k=st.integers(1, 3))
    @settings(max_examples=40)
    def test_exact_needs_no_order(self, x, y, pos, bad, k):
        # exact mode only compares symbols for equality
        x, y = insert(x, pos, bad), insert(y, pos, bad)
        assert lcs_kplus_length(x, y, k) == naive_lcs_kplus(tuple(x), tuple(y), k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_op_rejects_values_that_are_not_totally_ordered(self, k):
        # subset order sorts these values, but {1} and {2} are incomparable
        x = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
        y = [frozenset({2}), frozenset({1}), frozenset({1, 2})]
        for solve in OP:
            with pytest.raises(TypeError, match="^op mode needs totally ordered values: "):
                solve(x, y, k)

    def test_a_chain_is_totally_ordered(self):
        chain = [frozenset(range(v)) for v in (3, 1, 2, 4, 0)]
        ranks = [3, 1, 2, 4, 0]
        assert op_lcs_kplus_length(chain, chain[1:], 2) == op_lcs_kplus_length(ranks, ranks[1:], 2) == 4


class TestKAboveBothLengths:
    @given(x=ints, y=ints, extra=st.integers(1, 5))
    @settings(max_examples=40)
    def test_answer_zero_and_empty_walk(self, x, y, extra):
        k = max(len(x), len(y), 1) + extra
        assert lcs_kplus_length(x, y, k) == op_lcs_kplus_length(x, y, k) == 0
        a = traceback(compute_tables(x, y, k), x, y, k)
        assert a.total == 0 and a.chunks == ()
        assert (chunk_max_table(x, y, k) == -1).all()
        state = op_lcs_kplus_state(x, y, k)
        assert state.length == 0 and (state.lengths == 0).all()
        a = op_traceback(state)
        assert a.total == 0 and a.chunks == ()


@pytest.fixture()
def pair(tmp_path):
    fx, fy = tmp_path / "x", tmp_path / "y"
    fx.write_text("1 2 3")
    fy.write_text("3, 2, 1")
    return str(fx), str(fy)


class TestCliExitCodes:
    @pytest.mark.parametrize("mode", ["exact", "op"])
    @pytest.mark.parametrize("k", ["2.5", "3.0", "True", "nan", "1e3", ""])
    def test_non_integer_k_is_usage_error(self, mode, k, pair, capsys):
        with pytest.raises(SystemExit) as exc:
            main([mode, *pair, "--k", k])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "1.5", "1e3", "None", "0x10"])
    def test_op_value_that_is_no_integer(self, token, pair, capsys):
        fx, fy = pair
        with open(fx, "w") as fh:
            fh.write(f"1 2\n3 {token} 4\n")
        assert main(["op", fx, fy, "--k", "2"]) == 1
        assert capsys.readouterr().err == f"{fx}:2:3: not an integer: {token!r}\n"

    @pytest.mark.parametrize("mode", ["exact", "op"])
    def test_k_above_both_lengths(self, mode, pair, capsys):
        # the exact files are the 5 and 7 bytes of the text
        assert main([mode, *pair, "--k", "8", "--chunks"]) == 0
        length, witness = capsys.readouterr().out.splitlines()
        assert length == "0" and json.loads(witness) == {"total": 0, "chunks": []}
