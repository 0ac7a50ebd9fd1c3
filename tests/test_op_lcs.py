import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcsk.op_lcs
from lcsk.core import Params, validate_alignment
from lcsk.op_lcs import op_lcs_kplus_length, op_lcs_kplus_state, op_traceback
from lcsk.oracles import naive_op_lcs_kplus
from lcsk.order_iso import build_oplce_table

EX_X = (14, 84, 82, 31, 74, 68, 87, 11, 20, 32)
EX_Y = (21, 64, 2, 83, 73, 51, 5, 29, 7, 71)

dup_seqs = st.lists(st.integers(1, 4), max_size=16).map(tuple)
wide_seqs = st.lists(st.integers(1, 10**6), max_size=16).map(tuple)


def uncapped_scores(xs, ys, k):
    """Per-cell reference table: every chunk length l in [k, ell(i, j)], no 2k-1 cap.

    ell(i, j) comes from the op-LCE table of the reversed inputs.
    """
    m, n = len(xs), len(ys)
    lce = build_oplce_table(xs[::-1], ys[::-1]).values  # lce[m-i+1, n-j+1] = ell(i, j)
    c = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            best = max(c[i - 1][j], c[i][j - 1])
            for ln in range(k, int(lce[m - i + 1, n - j + 1]) + 1):
                best = max(best, c[i - ln][j - ln] + ln)
            c[i][j] = best
    return np.array(c, dtype=np.int32)


def run_heavy(rng, n):
    """Rising, falling and flat runs of 1-8 steps."""
    out, v = [], rng.randint(1, 5)
    while len(out) < n:
        step = rng.choice((1, -1, 0))
        for _ in range(rng.randint(1, 8)):
            v += step * rng.randint(1, 3)
            out.append(v)
    return tuple(out[:n])


def planted_pair(rng, xs, n, k):
    """A y of shifted and scaled copies of windows of k..2k+2 values of xs."""
    m, ys = len(xs), []
    while len(ys) < n:
        ln = rng.randint(k, 2 * k + 2)
        start = rng.randint(0, max(0, m - ln))
        a, b = rng.choice((1, 2, 3)), rng.randint(-5, 5)
        ys.extend(a * v + b for v in xs[start : start + ln])
        ys.extend(rng.randint(1, 50) for _ in range(rng.randint(0, 3)))
    return tuple(ys[:n])


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
            with pytest.raises(ValueError, match="NaN"):
                solve([(1, math.nan), (2, 0)], [(1, math.nan), (2, 0)], 2)

    def test_rejects_incomparable_symbols(self):
        for solve in (op_lcs_kplus_length, op_lcs_kplus_state):
            with pytest.raises(TypeError, match="op mode.*'str' and 'int'"):
                solve([1, "a", 2], [1, 2, 3], 2)
            with pytest.raises(TypeError, match="op mode needs hashable values"):
                solve([[1], [2], [3]], [[1], [2], [3]], 2)
        assert op_lcs_kplus_length([1, 2.5, 3], (1, 2, 3), 2) == 3  # int/float mix

    def test_rejects_multidimensional_arrays(self):
        # rows of a 2-D array would be compared as lists
        x = np.array([[1, 2], [3, 4], [5, 6]])
        y = np.array([[2, 3], [4, 5], [6, 7]])
        for solve in (op_lcs_kplus_length, op_lcs_kplus_state):
            with pytest.raises(ValueError, match="one-dimensional"):
                solve(x, y, 2)

    def test_values_of_any_comparable_type(self):
        # ints beyond int64, floats and strings are ranked by their Python order
        rng = random.Random(64)
        for _ in range(30):
            base = [rng.randint(-3, 3) for _ in range(rng.randint(0, 12))]
            other = [rng.randint(-3, 3) for _ in range(rng.randint(0, 12))]
            k = rng.randint(2, 4)
            want = naive_op_lcs_kplus(tuple(base), tuple(other), k)
            for f in (lambda v: v * 2**70, lambda v: v / 4, lambda v: chr(ord("m") + v)):
                assert op_lcs_kplus_length([f(v) for v in base], [f(v) for v in other], k) == want

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


class TestAdversarial:
    KS = (2, 3, 5, 10, 20)

    @staticmethod
    def solve_and_check(xs, ys, k):
        state = op_lcs_kplus_state(xs, ys, k)
        a = op_traceback(state)
        assert a.total == state.length == op_lcs_kplus_length(xs, ys, k)
        assert validate_alignment(xs, ys, Params(k=k, mode="op"), a)
        return state.length

    @pytest.mark.parametrize("k", KS)
    def test_constant_against_constant(self, k):
        # every pair of equal-length windows matches, so the whole shorter side is one chunk
        for m, n in ((k - 1, 3 * k), (k, k), (3 * k, 2 * k + 1), (4 * k + 3, 5 * k)):
            want = min(m, n) if min(m, n) >= k else 0
            assert self.solve_and_check((7,) * m, (-2,) * n, k) == want

    @pytest.mark.parametrize("k", KS)
    def test_increasing_against_decreasing(self, k):
        for m, n in ((k, k), (3 * k, 2 * k + 1), (5 * k, 4 * k)):
            assert self.solve_and_check(tuple(range(m)), tuple(range(n, 0, -1)), k) == 0

    def test_large_k_against_reference(self):
        # about 3k values per side, at k = 20 window ids run up to length 39
        rng = random.Random(2020)
        k = 20
        for idx in range(12):
            m, n = rng.randint(2 * k, 4 * k), rng.randint(2 * k, 4 * k)
            if idx % 3 == 0:
                xs = run_heavy(rng, m)
            else:
                xs = tuple(rng.randint(1, 50) for _ in range(m))
            ys = planted_pair(rng, xs, n, k)
            state = op_lcs_kplus_state(xs, ys, k)
            assert np.array_equal(state.lengths, uncapped_scores(xs, ys, k))
            self.solve_and_check(xs, ys, k)


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

    def test_every_cell_against_uncapped_recurrence(self):
        # the sweep tries chunk lengths up to 2k-1 only; the reference tries all
        rng = random.Random(4242)
        for idx in range(160):
            k = rng.randint(2, 6)
            m, n = rng.randint(0, 26), rng.randint(0, 26)
            if idx % 5 == 4:
                xs, ys = run_heavy(rng, m), run_heavy(rng, n)
            else:
                hi = (2, 3, 4, 10**6)[idx % 4]
                xs = tuple(rng.randint(1, hi) for _ in range(m))
                ys = tuple(rng.randint(1, hi) for _ in range(n))
            state = op_lcs_kplus_state(xs, ys, k)
            assert state.lengths.dtype == np.int32
            assert np.array_equal(state.lengths, uncapped_scores(xs, ys, k)), (xs, ys, k)

    @pytest.mark.parametrize("budget", [1, 60, 300])
    def test_any_block_height_and_group_size(self, monkeypatch, budget):
        # the mask budget sets the rows per block (1..k) and the blocks per
        # buffer slide: budget 1 gives one row per block and one block per
        # group, 60 blocks of fewer than k rows, 300 full blocks in groups
        monkeypatch.setattr(lcsk.op_lcs, "_MASK_ELEMENTS", budget)
        rng = random.Random(budget)
        for _ in range(40):
            k = rng.randint(2, 5)
            m, n = rng.randint(k, 40), rng.randint(k, 12)
            xs = tuple(rng.randint(1, 4) for _ in range(m))
            ys = tuple(rng.randint(1, 4) for _ in range(n))
            state = op_lcs_kplus_state(xs, ys, k)
            assert np.array_equal(state.lengths, uncapped_scores(xs, ys, k)), (xs, ys, k)
            assert op_lcs_kplus_length(xs, ys, k) == state.length

    def test_memory_stays_linear_in_k(self):
        # k*k masks per k-row block would take about 45 MB here
        rng = np.random.default_rng(5)
        xs, ys = rng.integers(0, 1000, 600), rng.integers(0, 1000, 600)
        tracemalloc.start()
        try:
            assert op_lcs_kplus_length(xs, ys, 100) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

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
