import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcsk.core import Params, validate_alignment
from lcsk.exact import (
    DpTables,
    _length_cells,
    _length_rows,
    _encode,
    compute_tables,
    lcs_kplus_length,
    match_run_table,
    traceback,
)
from lcsk.oracles import naive_lcs_kplus, textbook_lcs

symbols = st.integers(0, 3)
seqs = st.lists(symbols, max_size=24).map(tuple)


class TestGoldens:
    def test_example_pair_k2(self):
        assert lcs_kplus_length("acdbacbc", "aacdabca", 2) == 5

    def test_example_pair_k1_is_plain_lcs(self):
        assert lcs_kplus_length("acdbacbc", "aacdabca", 1) == 6

    def test_dna_pairs(self):
        assert lcs_kplus_length("ATTCGTATCG", "ATTGCTATGC", 2) == 6
        assert lcs_kplus_length("ATTCGTATCG", "AATCCCTCAA", 2) == 4

    def test_k_larger_than_inputs(self):
        assert lcs_kplus_length("ab", "ab", 3) == 0

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            lcs_kplus_length("a", "a", 0)
        with pytest.raises(ValueError):
            compute_tables("a", "a", 0)
        for k in (True, 2.5, "2"):
            with pytest.raises(TypeError):
                lcs_kplus_length("abc", "abc", k)
            with pytest.raises(TypeError):
                compute_tables("abc", "abc", k)
        assert lcs_kplus_length("abc", "abc", np.int32(2)) == 3

    def test_rejects_multidimensional_arrays(self):
        x = np.array([[1, 2], [3, 4], [5, 6]])
        for solve in (lcs_kplus_length, compute_tables):
            with pytest.raises(ValueError, match="one-dimensional"):
                solve(x, x, 2)
            with pytest.raises(ValueError, match="one-dimensional"):
                solve(np.array(7), "abc", 1)

    def test_rejects_unhashable_symbols(self):
        # also when the inputs are shorter than k, where no table is filled
        for solve in (lcs_kplus_length, compute_tables):
            for x, y, k in (([[1], [2]], [[1], [2]], 1), ([[1], [2]], [[1]], 2)):
                with pytest.raises(TypeError, match="exact mode needs hashable symbols"):
                    solve(x, y, k)


    def test_rejects_nan(self):
        # one shared nan object used to match itself, two distinct ones did not
        nan = float("nan")
        cases = (
            ([nan, 1.0], [nan, 1.0], 1),  # one shared object
            ([float("nan"), 1.0], [float("nan"), 1.0], 1),  # distinct objects
            (np.array([1.0, np.nan, 2.0]), np.array([1.0, np.nan, 2.0]), 1),
            (np.array([np.nan]), "ab", 2),  # shorter than k: no table is filled
            ([(nan,), 1], [(nan,), 1], 1),  # tuples compare items by identity too
            ([(1, (float("nan"),))], [(1, (float("nan"),))], 1),
        )
        for solve in (lcs_kplus_length, compute_tables):
            for x, y, k in cases:
                with pytest.raises(ValueError, match="NaN"):
                    solve(x, y, k)
        assert lcs_kplus_length(np.array([1.0, 2.0]), [1.0, 2.0], 2) == 2


class TestMatchRunTable:
    def test_definitional_on_randoms(self):
        rng = random.Random(0)
        for _ in range(40):
            xs = [rng.randrange(3) for _ in range(rng.randint(0, 12))]
            ys = [rng.randrange(3) for _ in range(rng.randint(0, 12))]
            run = match_run_table(xs, ys)
            for i in range(len(xs) + 1):
                for j in range(len(ys) + 1):
                    r = 0
                    while r < i and r < j and xs[i - 1 - r] == ys[j - 1 - r]:
                        r += 1
                    assert run[i, j] == r


class TestAgainstOracle:
    @given(seqs, seqs, st.integers(1, 6))
    @settings(max_examples=150)
    def test_length_matches_naive(self, xs, ys, k):
        assert lcs_kplus_length(xs, ys, k) == naive_lcs_kplus(xs, ys, k)

    @given(seqs, seqs)
    def test_k1_is_textbook_lcs(self, xs, ys):
        assert lcs_kplus_length(xs, ys, 1) == textbook_lcs(xs, ys)

    @given(seqs, seqs, st.integers(1, 6))
    def test_symmetry(self, xs, ys, k):
        assert lcs_kplus_length(xs, ys, k) == lcs_kplus_length(ys, xs, k)

    @given(seqs, seqs, st.integers(1, 5))
    def test_monotone_in_k(self, xs, ys, k):
        assert lcs_kplus_length(xs, ys, k) >= lcs_kplus_length(xs, ys, k + 1)

    @given(seqs, seqs, st.integers(1, 6))
    def test_window_equals_full_table(self, xs, ys, k):
        full = int(compute_tables(xs, ys, k).lengths[-1, -1])
        assert lcs_kplus_length(xs, ys, k) == full

    @given(seqs, seqs, st.integers(1, 6))
    def test_vector_and_cell_routes_agree(self, xs, ys, k):
        # _length_cells is the per-cell reference for the numpy row kernel
        assume(min(len(xs), len(ys)) >= k)
        xa, ya = _encode(tuple(xs), tuple(ys))
        assert _length_cells(xa, ya, k) == _length_rows(xa, ya, k)

    def test_routes_agree_when_window_ids_are_reranked(self):
        # 64 symbols and k >= 11 push the window ids past int64, so the row
        # route re-ranks them; shared segments keep the answer non-trivial
        rng = random.Random(11)
        for k in (11, 12, 14):
            for _ in range(20):
                x = [rng.randrange(64) for _ in range(rng.randint(k, 60))]
                y = [rng.randrange(64) for _ in range(rng.randint(k, 60))]
                start = rng.randrange(len(x))
                seg = x[start : start + rng.randint(k, 2 * k)]
                y[: len(seg)] = seg
                xa, ya = _encode(tuple(x), tuple(y))
                expected = _length_cells(xa, ya, k)
                assert _length_rows(xa, ya, k) == expected
                assert compute_tables(x, y, k).lengths[-1, -1] == expected


class TestTableInvariants:
    @given(seqs, seqs, st.integers(1, 6))
    def test_scores_monotone_and_chunk_sentinel(self, xs, ys, k):
        t = compute_tables(xs, ys, k)
        c = t.lengths
        assert (np.diff(c, axis=0) >= 0).all()
        assert (np.diff(c, axis=1) >= 0).all()
        # chunk_max is -1 exactly where no chunk of length >= k can end
        assert ((t.chunk_max == -1) == (match_run_table(xs, ys) < k)).all()
        # boundary: scores are zero whenever min(i, j) < k
        bound = min(k, c.shape[0], c.shape[1])
        assert (c[:bound, :] == 0).all() and (c[:, :bound] == 0).all()


class TestTablesAgainstDefinition:
    def test_every_cell_on_randoms(self):
        # independent of the row kernel: scores from the cubic oracle on
        # every prefix pair, chunk maxima from the scores and match runs
        rng = random.Random(4)
        for _ in range(60):
            k = rng.randint(1, 4)
            sigma = rng.choice([1, 2, 3])
            xs = [rng.randrange(sigma) for _ in range(rng.randint(0, 9))]
            ys = [rng.randrange(sigma) for _ in range(rng.randint(0, 9))]
            t = compute_tables(xs, ys, k)
            runs = match_run_table(xs, ys)
            assert t.lengths.dtype == runs.dtype == t.chunk_max.dtype == np.int32
            for i in range(len(xs) + 1):
                for j in range(len(ys) + 1):
                    assert t.lengths[i, j] == naive_lcs_kplus(xs[:i], ys[:j], k)
                    run = int(runs[i, j])
                    best = max(
                        (int(t.lengths[i - ln, j - ln]) + ln for ln in range(k, run + 1)),
                        default=-1,
                    )
                    assert t.chunk_max[i, j] == best


class TestTraceback:
    def test_golden_decomposition(self):
        tables = compute_tables("acdbacbc", "aacdabca", 2)
        a = traceback(tables, "acdbacbc", "aacdabca", 2)
        assert a.total == 5
        assert a.chunks == ((1, 2, 3), (7, 6, 2))

    def test_identical_inputs_single_chunk(self):
        s = "banana"
        tables = compute_tables(s, s, 1)
        a = traceback(tables, s, s, 1)
        assert a.chunks == ((1, 1, len(s)),)

    def test_empty_when_no_match(self):
        tables = compute_tables("aaa", "bbb", 2)
        a = traceback(tables, "aaa", "bbb", 2)
        assert a.total == 0 and a.chunks == ()

    @given(seqs, seqs, st.integers(1, 5))
    @settings(max_examples=120)
    def test_valid_and_totals_match(self, xs, ys, k):
        tables = compute_tables(xs, ys, k)
        a = traceback(tables, xs, ys, k)
        assert a.total == naive_lcs_kplus(xs, ys, k)
        assert validate_alignment(xs, ys, Params(k=k), a)

    def test_dead_end_raises(self):
        # a score that neither a chunk, the left cell nor the upper cell explains
        t = compute_tables("abc", "xyz", 1)
        lengths = t.lengths.copy()
        lengths[3, 3] = 2
        with pytest.raises(RuntimeError, match=r"inconsistent DP table at \(3, 3\)"):
            traceback(DpTables(lengths=lengths, chunk_max=t.chunk_max), "abc", "xyz", 1)

    @given(seqs, seqs, st.integers(1, 5))
    def test_deterministic(self, xs, ys, k):
        t1 = traceback(compute_tables(xs, ys, k), xs, ys, k)
        t2 = traceback(compute_tables(xs, ys, k), xs, ys, k)
        assert t1 == t2
