import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsk.core import Params, validate_alignment
from lcsk.op_lcs import op_lcs_kplus_length, op_lcs_kplus_state, op_traceback
from lcsk.oracles import naive_op_lcs_kplus

EX_X = (14, 84, 82, 31, 74, 68, 87, 11, 20, 32)
EX_Y = (21, 64, 2, 83, 73, 51, 5, 29, 7, 71)

dup_seqs = st.lists(st.integers(1, 4), max_size=16).map(tuple)
wide_seqs = st.lists(st.integers(1, 10**6), max_size=16).map(tuple)


class TestGoldens:
    def test_example_length(self):
        assert op_lcs_kplus_length(EX_X, EX_Y, 3) == 7

    def test_rejects_k_below_2(self):
        for k in (1, 0, -2):
            with pytest.raises(ValueError):
                op_lcs_kplus_length(EX_X, EX_Y, k)
            with pytest.raises(ValueError):
                op_lcs_kplus_state(EX_X, EX_Y, k)
        for k in (True, 2.5, "3"):
            with pytest.raises(TypeError):
                op_lcs_kplus_length(EX_X, EX_Y, k)
            with pytest.raises(TypeError):
                op_lcs_kplus_state(EX_X, EX_Y, k)
        assert op_lcs_kplus_length(EX_X, EX_Y, np.int64(3)) == 7

    def test_rejects_nan(self):
        # NaN compares false both ways, so no window containing it has an order
        xs = (1.0, 2.0, math.nan, 3.0, 4.0)
        for solve in (op_lcs_kplus_length, op_lcs_kplus_state):
            with pytest.raises(ValueError, match="NaN"):
                solve(xs, xs, 2)
            with pytest.raises(ValueError, match="NaN"):
                solve((1, 2, 3), np.array([1.0, math.nan]), 2)

    def test_rejects_incomparable_symbols(self):
        for solve in (op_lcs_kplus_length, op_lcs_kplus_state):
            with pytest.raises(TypeError, match="op mode.*'str' and 'int'"):
                solve([1, "a", 2], [1, 2, 3], 2)
        assert op_lcs_kplus_length([1, 2.5, 3], (1, 2, 3), 2) == 3  # int/float mix

    def test_rejects_multidimensional_arrays(self):
        # rows of a 2-D array would be compared as lists
        x = np.array([[1, 2], [3, 4], [5, 6]])
        y = np.array([[2, 3], [4, 5], [6, 7]])
        for solve in (op_lcs_kplus_length, op_lcs_kplus_state):
            with pytest.raises(ValueError, match="one-dimensional"):
                solve(x, y, 2)

    def test_degenerate_sizes(self):
        assert op_lcs_kplus_length((1, 2), (3, 4, 5), 3) == 0
        assert op_lcs_kplus_length((), (), 2) == 0


class TestAgainstOracle:
    @given(dup_seqs, dup_seqs, st.integers(2, 5))
    @settings(max_examples=120)
    def test_duplicate_heavy(self, xs, ys, k):
        assert op_lcs_kplus_length(xs, ys, k) == naive_op_lcs_kplus(xs, ys, k)

    @given(wide_seqs, wide_seqs, st.integers(2, 5))
    @settings(max_examples=120)
    def test_distinct_values(self, xs, ys, k):
        assert op_lcs_kplus_length(xs, ys, k) == naive_op_lcs_kplus(xs, ys, k)

    def test_extreme_diagonal_shapes(self):
        # shapes whose corner diagonals carry fewer than k interior cells;
        # these crash or mis-answer if any diagonal is seeded short
        rng = random.Random(77)
        shapes = [(5, 5, 3), (10, 3, 2), (3, 10, 2), (4, 4, 4), (12, 2, 2), (2, 12, 2), (7, 4, 3)]
        for m, n, k in shapes:
            for _ in range(30):
                xs = tuple(rng.randint(1, 5) for _ in range(m))
                ys = tuple(rng.randint(1, 5) for _ in range(n))
                assert op_lcs_kplus_length(xs, ys, k) == naive_op_lcs_kplus(xs, ys, k)


class TestState:
    @given(dup_seqs, dup_seqs, st.integers(2, 4))
    @settings(max_examples=60)
    def test_state_agrees_with_length_only(self, xs, ys, k):
        st_ = op_lcs_kplus_state(xs, ys, k)
        assert st_.length == op_lcs_kplus_length(xs, ys, k)

    def test_score_table_shape(self):
        xs, ys, k = EX_X, EX_Y[:7], 3
        state = op_lcs_kplus_state(xs, ys, k)
        assert state.lengths.shape == (len(xs) + 1, len(ys) + 1)
        # rows and columns below k hold no chunk, so they stay zero
        assert not state.lengths[:k].any() and not state.lengths[:, :k].any()
        assert state.length == int(state.lengths[-1, -1]) == op_lcs_kplus_length(xs, ys, k)

    def test_degenerate_state(self):
        for xs, ys in (((1,), (2, 3)), ((1, 2, 3), (2,)), ((), ())):
            state = op_lcs_kplus_state(xs, ys, 2)
            assert state.lengths.shape == (len(xs) + 1, len(ys) + 1)
            assert state.length == 0
            a = op_traceback(state)
            assert a.total == 0 and a.chunks == ()


class TestTraceback:
    def test_example_alignment(self):
        state = op_lcs_kplus_state(EX_X, EX_Y, 3)
        a = op_traceback(state)
        assert a.total == 7
        assert a.chunks == ((1, 3, 4), (5, 8, 3))  # README golden: pins the tie policy
        assert validate_alignment(EX_X, EX_Y, Params(k=3, mode="op"), a)

    def test_deterministic(self):
        a1 = op_traceback(op_lcs_kplus_state(EX_X, EX_Y, 3))
        a2 = op_traceback(op_lcs_kplus_state(EX_X, EX_Y, 3))
        assert a1 == a2

    @given(dup_seqs, dup_seqs, st.integers(2, 4))
    @settings(max_examples=100)
    def test_valid_and_total_matches(self, xs, ys, k):
        state = op_lcs_kplus_state(xs, ys, k)
        a = op_traceback(state)
        assert a.total == state.length
        assert validate_alignment(xs, ys, Params(k=k, mode="op"), a)

    def test_traceback_twice_from_same_state(self):
        state = op_lcs_kplus_state(EX_X, EX_Y, 3)
        assert op_traceback(state) == op_traceback(state)  # traceback does not mutate
