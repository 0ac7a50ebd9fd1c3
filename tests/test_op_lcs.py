import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcsk.core
import lcsk.op_lcs
from lcsk.core import Params, codes, table_dtype, validate_alignment, walk_chunks
from lcsk.exact import lcs_kplus_length
from lcsk.op_lcs import OpDpState, op_lcs_kplus_length, op_lcs_kplus_state, op_traceback
from lcsk.oracles import naive_lcs_kplus, naive_op_lcs_kplus
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


def int32_scores(xs, ys, k):
    """The score table from the sweep, stored in int32 with no modulus."""
    x_ids, y_ids = lcsk.op_lcs._window_ids(tuple(xs), tuple(ys), k)
    table = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int32)
    if min(len(xs), len(ys)) >= k:
        lcsk.op_lcs._sweep(x_ids, y_ids, k, table)
    return table


def rowwise_scores(xs, ys, k):
    """The score table row by row from the window ids, with one numpy step
    per row and chunk length: none of the sweep's blocks, groups or views."""
    x_ids, y_ids = lcsk.op_lcs._window_ids(tuple(xs), tuple(ys), k)
    m, n = len(xs), len(ys)
    c = np.zeros((m + 1, n + 1), dtype=np.int64)
    for i in range(k, m + 1 if min(m, n) >= k else 0):
        row = c[i - 1].copy()
        for w in range(k, min(i, n, 2 * k - 1) + 1):
            match = x_ids[w - k, i] == y_ids[w - k, w:]
            np.maximum(row[w:], np.where(match, c[i - w, : n + 1 - w] + w, 0), out=row[w:])
        c[i] = np.maximum.accumulate(row)
    return c


def int32_walk(state, table):
    """Reference walk over an int32 table: shortest chunk first, among the
    lengths k..2k-1 whose window ids match at (i, j)."""
    k, x_ids, y_ids = state.k, state.x_ids, state.y_ids

    def chunk_lengths(i, j, score):
        return [w for w in range(k, 2 * k) if x_ids[w - k, i] == y_ids[w - k, j]]

    return walk_chunks(table, int(table[-1, -1]), k, chunk_lengths)


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

    def test_length_peak_per_cell(self):
        # the benchmark's 150 x 150 memory pair: with min(m, n) <= 255 the
        # sweep's rows, masks and candidates are uint8 (int32: 4.02 B/cell)
        rng = np.random.default_rng(150)
        x, y = rng.integers(1, 1001, 150).tolist(), rng.integers(1, 1001, 150).tolist()
        tracemalloc.start()
        try:
            op_lcs_kplus_length(x, y, 3)
            peak = tracemalloc.get_traced_memory()[1] / (150 * 150)
        finally:
            tracemalloc.stop()
        assert peak < 3

    @pytest.mark.parametrize("xs, ys, k", [
        ((1, 2, 3), (1, 2, 3), 10**6),
        ((5, 1), (2, 7, 1, 8), 10**6),
        ((), (4,), 10**6),
        ((1, 2, 3), tuple(range(20)), 5),
    ])
    def test_k_beyond_an_input(self, xs, ys, k):
        # no chunk fits, so the ids have no rows, whatever k
        tracemalloc.start()
        try:
            length = op_lcs_kplus_length(xs, ys, k)
            state = op_lcs_kplus_state(xs, ys, k)
            a = op_traceback(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length == state.length == a.total == 0 and a.chunks == ()
        assert state.x_ids.shape == (0, len(xs) + 1) and state.y_ids.shape == (0, len(ys) + 1)
        assert not state.lengths.any()
        assert peak < 2**16

    def test_k_beyond_an_input_still_checks_values(self):
        with pytest.raises(TypeError, match="mutually comparable"):
            op_lcs_kplus_length((1, "a"), (2,), 10**6)
        with pytest.raises(ValueError, match="NaN"):
            op_lcs_kplus_state((1.0,), (float("nan"),), 10**6)

    def test_degenerate_state(self):
        for xs, ys in (((1,), (2, 3)), ((1, 2, 3), (2,)), ((), ())):
            state = op_lcs_kplus_state(xs, ys, 2)
            assert state.lengths.shape == (len(xs) + 1, len(ys) + 1)
            assert state.length == 0
            a = op_traceback(state)
            assert a.total == 0 and a.chunks == ()


class TestDiagonalView:
    """The sweep's diagonal view at the edges of its buffer: the fewest rows
    and columns, a single chunk column, the flipped sweep, and blocks of
    fewer than k rows.  numpy refuses a view that overruns its buffer, and
    a view that stays inside but reads the wrong cells gives wrong scores."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_shortest_inputs(self, k):
        # min(m, n) in {k, k+1} against a longer side, in both orders (m > n
        # flips the sweep); m == n == k leaves one chunk column
        rng = random.Random(k)
        for short in (k, k + 1):
            for long_ in (short, k + 1, 3 * k, 20):
                for _ in range(15):
                    xs = tuple(rng.randint(1, 4) for _ in range(short))
                    ys = tuple(rng.randint(1, 4) for _ in range(long_))
                    want = naive_op_lcs_kplus(xs, ys, k)
                    for a, b in ((xs, ys), (ys, xs)):
                        assert op_lcs_kplus_length(a, b, k) == want
                        state = op_lcs_kplus_state(a, b, k)
                        assert np.array_equal(state.lengths, uncapped_scores(a, b, k))
                        alignment = op_traceback(state)
                        assert alignment.total == want
                        assert validate_alignment(a, b, Params(k=k, mode="op"), alignment)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_one_chunk_column(self, k):
        # the sweep run directly over the longer input: n + 1 - k = 1 column
        rng = random.Random(10 + k)
        for m in (k, k + 1, 2 * k, 25):
            for _ in range(10):
                xs = tuple(rng.randint(1, 3) for _ in range(m))
                ys = tuple(rng.randint(1, 3) for _ in range(k))
                assert np.array_equal(int32_scores(xs, ys, k), uncapped_scores(xs, ys, k))

    def test_blocks_below_k_rows(self, monkeypatch):
        # at k = 12 on 2000 columns the mask budget cuts blocks to 10 rows
        # in groups of one; a budget of 1 cuts them to one row, and a large
        # one gives full blocks in groups of 8: the row-by-row table each time
        k, rng = 12, random.Random(12)
        xs = run_heavy(rng, 2000)
        ys = planted_pair(rng, xs, 300, k)
        want = rowwise_scores(xs, ys, k)
        assert want[-1, -1] >= 10 * k
        for budget in (1, lcsk.op_lcs._MASK_ELEMENTS, 1 << 30):
            monkeypatch.setattr(lcsk.op_lcs, "_MASK_ELEMENTS", budget)
            state = op_lcs_kplus_state(xs, ys, k)
            assert op_lcs_kplus_length(xs, ys, k) == op_lcs_kplus_length(ys, xs, k) == state.length
            alignment = op_traceback(state)
            assert alignment.total == state.length >= k
            assert validate_alignment(xs, ys, Params(k=k, mode="op"), alignment)
            assert np.array_equal(state.lengths, want)


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

    def test_state_of_the_other_mode_rejected(self):
        # exact's window ids are 1-D; walking them here raised TypeError
        with pytest.raises(ValueError, match="computed in the other mode"):
            op_traceback(lcsk.exact.compute_tables(EX_X, EX_Y, 3))

    @pytest.mark.parametrize("k, bound", [(3, 1.5), (10, 1.6), (20, 2.1)])
    def test_witness_peak_per_cell(self, k, bound):
        # scores modulo 2^8; beside them the sweep keeps O(k * n) mask and
        # row buffers, about 0.14/0.44/0.86 B/cell at k=3/10/20 here
        rng = np.random.default_rng(k)
        x = rng.integers(1, 1001, 2000).tolist()
        y = x[:600] + rng.integers(1, 1001, 1400).tolist()
        tracemalloc.start()
        try:
            a = op_traceback(op_lcs_kplus_state(x, y, k))
            peak = tracemalloc.get_traced_memory()[1] / (2001 * 2001)
        finally:
            tracemalloc.stop()
        assert a.total >= 600
        assert peak < bound

    def test_witness_peak_on_the_memory_pair(self):
        # the benchmark's 150 x 150 memory pair: the table takes 2-bit
        # residues, 0.25 B/cell, where one byte per cell peaked at 3.4
        rng = np.random.default_rng(150)
        x, y = rng.integers(1, 1001, 150).tolist(), rng.integers(1, 1001, 150).tolist()
        tracemalloc.start()
        try:
            a = op_traceback(op_lcs_kplus_state(x, y, 3))
            peak = tracemalloc.get_traced_memory()[1] / (150 * 150)
        finally:
            tracemalloc.stop()
        assert a.total == op_lcs_kplus_length(x, y, 3) > 0
        assert peak < 3.0

    def test_walk_never_decodes_the_table(self, monkeypatch):
        xs, ys = EX_X + EX_X, EX_Y + EX_X
        state = op_lcs_kplus_state(xs, ys, 3)
        want = int32_walk(state, state.lengths)
        monkeypatch.setattr(OpDpState, "lengths", property(lambda s: pytest.fail("decoded")))
        assert op_traceback(state) == want

    @given(st.one_of(st.tuples(dup_seqs, dup_seqs), st.tuples(wide_seqs, wide_seqs)), st.integers(2, 5))
    @settings(max_examples=200)
    def test_same_walk_as_int32_grid(self, pair, k):
        xs, ys = pair
        state = op_lcs_kplus_state(xs, ys, k)
        assert np.array_equal(state.lengths, int32_scores(xs, ys, k))
        assert op_traceback(state) == int32_walk(state, state.lengths)

    @pytest.mark.parametrize("k, dtype", [(8, np.uint8)])
    def test_dtype_switch_points(self, k, dtype):
        # the table holds scores modulo 2^bits with 2^bits > k, two 4-bit
        # residues to each uint8 byte at k=8; the total here is above 255, so
        # the residues wrap many times
        rng = random.Random(k)
        xs = run_heavy(rng, 400)
        ys = tuple(2 * v - 3 for v in xs[:200]) + planted_pair(rng, xs, 200, k)
        state = op_lcs_kplus_state(xs, ys, k)
        assert state.scores.data.dtype == dtype and state.scores.bits == 4
        want = uncapped_scores(xs, ys, k)
        assert np.array_equal(state.lengths, want)
        assert state.length == int(want[-1, -1]) > 255
        a = op_traceback(state)
        assert a == int32_walk(state, want)
        assert validate_alignment(xs, ys, Params(k=k, mode="op"), a)

    @pytest.mark.parametrize("size, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_sweep_dtype_switch_points(self, monkeypatch, size, dtype):
        # the sweep keeps scores in table_dtype(min(m, n)); against the 3v+7
        # image of its first min(m, n) values the total is min(m, n) itself
        seen = []

        def spy(bound):
            seen.append(table_dtype(bound))
            return seen[-1]

        monkeypatch.setattr(lcsk.op_lcs, "table_dtype", spy)
        xs = run_heavy(random.Random(size), size + 40)
        ys = tuple(3 * v + 7 for v in xs[:size])
        assert op_lcs_kplus_length(xs, ys, 3) == size
        assert op_lcs_kplus_length(ys, xs, 3) == size
        state = op_lcs_kplus_state(xs, ys, 3)
        assert state.length == size and seen == [dtype] * 3
        want = int32_scores(xs, ys, 3)
        assert np.array_equal(state.lengths, want)
        a = op_traceback(state)
        assert a == int32_walk(state, want) and a.total == size
        assert validate_alignment(xs, ys, Params(k=3, mode="op"), a)

    @pytest.mark.parametrize("k, size, table", [(3, 256, np.uint8)])
    def test_sweep_and_table_dtypes_differ(self, k, size, table):
        # min(m, n)=256: the sweep runs in uint16, and its rows are stored
        # modulo 2^2, four to each byte of the uint8 table of k=3
        rng = random.Random(k * size)
        xs = run_heavy(rng, 300)
        ys = tuple(2 * v - 3 for v in xs[: size // 2]) + planted_pair(rng, xs, size - size // 2, k)
        state = op_lcs_kplus_state(xs, ys, k)
        assert state.scores.data.dtype == table and state.scores.bits == 2
        want = int32_scores(xs, ys, k)
        assert np.array_equal(state.lengths, want)
        assert state.length == int(want[-1, -1]) == op_lcs_kplus_length(xs, ys, k)
        a = op_traceback(state)
        assert a == int32_walk(state, want)
        assert validate_alignment(xs, ys, Params(k=k, mode="op"), a)

    def test_scores_wrap_around(self):
        # a 700-value run series against 3v+7 of itself: the total is 700,
        # so 2-bit residues wrap 175 times along the diagonal
        xs = run_heavy(random.Random(700), 700)
        ys = tuple(3 * v + 7 for v in xs)
        state = op_lcs_kplus_state(xs, ys, 3)
        assert state.scores.bits == 2 and state.length == 700
        want = int32_scores(xs, ys, 3)
        assert np.array_equal(state.lengths, want)
        assert op_traceback(state) == int32_walk(state, want)


class TestOrientation:
    @pytest.mark.parametrize("short", [255, 256])
    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_skewed_pairs_in_both_orders(self, short, k):
        # min(m, n) sets the sweep's dtype: uint8 at 255, uint16 at 256
        rng = random.Random(short * k)
        for idx in range(3):
            if idx == 0:  # run-heavy against a planted copy
                xs = run_heavy(rng, 3000)
                ys = planted_pair(rng, xs, short, k)
            elif idx == 1:  # the 3v+7 image of a run series: total = short
                xs = run_heavy(rng, 2500)
                ys = tuple(3 * v + 7 for v in xs[:short])
            else:
                xs = tuple(rng.randint(1, 1000) for _ in range(4000))
                ys = tuple(rng.randint(1, 1000) for _ in range(short))
            state = op_lcs_kplus_state(xs, ys, k)
            assert op_lcs_kplus_length(xs, ys, k) == op_lcs_kplus_length(ys, xs, k) == state.length
            if idx == 1:
                assert state.length == short
            if idx == 0 and k == 3:
                want = int32_scores(xs, ys, k)
                assert np.array_equal(state.lengths, want)
                assert op_traceback(state) == int32_walk(state, want)

    @pytest.mark.parametrize("short", [255, 256])
    def test_k_above_the_shorter_input(self, short):
        xs = run_heavy(random.Random(short), 1500)
        ys = tuple(2 * v for v in xs[:short])
        for k in (short, short + 1):
            want = short if k == short else 0
            assert op_lcs_kplus_length(xs, ys, k) == op_lcs_kplus_length(ys, xs, k) == want


class _Int(int):
    """An int subclass: ordered as int, but ranked on the general path."""


class TestRanksAndIds:
    ints = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]),
        st.integers(-2**63, 2**63 - 1),
    )

    @given(st.lists(ints, min_size=1, max_size=40))
    def test_int_path_gives_the_general_ranks(self, values):
        # op codes are the int64 values themselves, whose ranks are the
        # general path's; exact codes split the values into the same
        # classes as the first-seen codes of the general path
        ranks = [sorted(set(values)).index(v) for v in values]
        first_seen = [list(dict.fromkeys(values)).index(v) for v in values]
        for mode, want in (("op", ranks), ("exact", first_seen)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lcsk.core, "has_nan", lambda *a: pytest.fail("general path"))
                fast = codes(tuple(values), mode)
            general = codes(tuple(map(_Int, values)), mode)
            assert fast.dtype == general.dtype == np.int64
            assert np.array_equal(general, want)
            if mode == "op":
                assert fast.tolist() == values
                assert np.array_equal(np.unique(fast, return_inverse=True)[1], general)
            else:  # the same classes: the codes correspond one to one
                assert len(set(zip(fast.tolist(), want))) == len(set(want)) == len(set(fast.tolist()))

    @given(st.lists(ints, max_size=30), st.lists(ints, max_size=30), st.sampled_from([2, 3, 4, 6, 12]))
    @settings(max_examples=150)
    def test_window_ids_from_values_and_ranks_agree(self, xs, ys, k):
        # the ids only compare codes, so plain ints and the general path's
        # dense ranks of the same values give the same ids, in both orders
        for a, b in ((xs, ys), (ys, xs)):
            fast = lcsk.op_lcs._window_ids(tuple(a), tuple(b), k)
            general = lcsk.op_lcs._window_ids(tuple(map(_Int, a)), tuple(map(_Int, b)), k)
            for got, want in zip(fast, general):
                assert got.dtype == want.dtype == np.int32
                assert np.array_equal(got, want)

    def test_op_ints_skip_the_sort(self, monkeypatch):
        # at k <= 5 an op solve on plain ints sorts nothing, on either path;
        # an exact solve still ranks its values with one np.unique first
        calls = []
        unique = np.unique

        def spy(values, *args, **kwargs):
            calls.append(len(values))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        rng = random.Random(5)
        for k in (2, 3, 4, 5):
            xs = tuple(rng.randint(-10**12, 10**12) for _ in range(40))
            ys = tuple(rng.choice(xs) for _ in range(30))
            length = op_lcs_kplus_length(xs, ys, k)
            state = op_lcs_kplus_state(ys, xs, k)
            assert op_traceback(state).total == state.length == length
            assert calls == []
            assert lcs_kplus_length(xs, ys, k) == naive_lcs_kplus(xs, ys, k)
            assert calls[0] == len(xs) + len(ys)
            calls.clear()

    @pytest.mark.parametrize("f", [
        lambda v: v + 2**63,  # beyond int64
        lambda v: -v - 2**63 - 1,
        lambda v: v % 2 == 1,  # bools
        lambda v: v if v > 1 else v == 1,  # ints and bools
    ], ids=["above-int64", "below-int64", "bool", "int-bool-mix"])
    def test_other_values_take_the_general_path(self, monkeypatch, f):
        # both modes, each solve checks its values once on the general path
        calls = []
        has_nan = lcsk.core.has_nan

        def spy(values):
            calls.append(len(values))
            return has_nan(values)

        monkeypatch.setattr(lcsk.core, "has_nan", spy)
        solvers = ((op_lcs_kplus_length, naive_op_lcs_kplus), (lcs_kplus_length, naive_lcs_kplus))
        rng = random.Random(63)
        for _ in range(30):
            xs = [rng.randint(0, 3) for _ in range(rng.randint(0, 12))] + [rng.randint(0, 1)]
            ys = [rng.randint(0, 3) for _ in range(rng.randint(0, 12))]
            k = rng.randint(2, 4)
            fx, fy = [f(v) for v in xs], [f(v) for v in ys]
            for solve, oracle in solvers:
                calls.clear()
                got = solve(fx, fy, k)
                assert len(calls) == 1
                assert got == oracle(tuple(fx), tuple(fy), k)

    def test_id_store_refuses_ids_beyond_int32(self, monkeypatch):
        # an increasing run of 12 at k=6: the length-11 ids pass 2^31 unless
        # re-ranked, and a slice store into int32 would wrap them
        xs = tuple(range(12))
        assert op_lcs_kplus_length(xs, xs, 6) == 12
        monkeypatch.setattr(lcsk.op_lcs, "_RERANK_AT", 1 << 62)
        with pytest.raises(OverflowError, match="length 11 do not fit in int32"):
            op_lcs_kplus_length(xs, xs, 6)
