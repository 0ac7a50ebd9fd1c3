import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsk.core import Params, validate_alignment, walk_chunks
from lcsk.exact import (
    DpTables,
    _sweep,
    _window_ids,
    chunk_max_table,
    compute_tables,
    lcs_kplus_length,
    match_run_table,
    traceback,
)
from lcsk.op_lcs import op_lcs_kplus_state
from lcsk.oracles import naive_lcs_kplus, textbook_lcs

symbols = st.integers(0, 3)
seqs = st.lists(symbols, max_size=24).map(tuple)


@st.composite
def planted_pairs(draw):
    """Two random sequences that share a segment at random positions."""
    x = draw(st.lists(symbols, max_size=20))
    y = draw(st.lists(symbols, max_size=20))
    seg = draw(st.lists(symbols, min_size=1, max_size=12))
    i = draw(st.integers(0, len(x)))
    j = draw(st.integers(0, len(y)))
    return tuple(x[:i] + seg + x[i:]), tuple(y[:j] + seg + y[j:])


def _run_walk(xs, ys, k):
    """Candidate lengths of the reference walk: the common-suffix run down to k."""
    runs = match_run_table(xs, ys)
    return lambda i, j, score: range(int(runs[i, j]), k - 1, -1)


def _int32_grid(xs, ys, k):
    """The score grid from _sweep, stored in int32 with no modulus."""
    grid = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int32)
    _sweep(*_window_ids(tuple(xs), tuple(ys), k), k, grid)
    return grid


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

    @given(st.integers(1, 6), st.data())
    def test_vector_and_cell_routes_agree(self, k, data):
        # the cubic oracle is the per-cell reference for the numpy row loop,
        # which runs only when both inputs hold at least k symbols
        xs, ys = (data.draw(st.lists(symbols, min_size=k, max_size=24).map(tuple)) for _ in "xy")
        assert _sweep(*_window_ids(tuple(xs), tuple(ys), k), k) == naive_lcs_kplus(xs, ys, k)

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
                expected = naive_lcs_kplus(x, y, k)
                assert _sweep(*_window_ids(tuple(x), tuple(y), k), k) == expected
                assert compute_tables(x, y, k).lengths[-1, -1] == expected


class TestTableInvariants:
    @given(seqs, seqs, st.integers(1, 6))
    def test_scores_monotone_and_chunk_sentinel(self, xs, ys, k):
        c = compute_tables(xs, ys, k).lengths
        assert (np.diff(c, axis=0) >= 0).all()
        assert (np.diff(c, axis=1) >= 0).all()
        # chunk_max is -1 exactly where no chunk of length >= k can end
        assert ((chunk_max_table(xs, ys, k) == -1) == (match_run_table(xs, ys) < k)).all()
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
            chunk_max = chunk_max_table(xs, ys, k)
            runs = match_run_table(xs, ys)
            assert t.lengths.dtype == runs.dtype == chunk_max.dtype == np.int32
            for i in range(len(xs) + 1):
                for j in range(len(ys) + 1):
                    assert t.lengths[i, j] == naive_lcs_kplus(xs[:i], ys[:j], k)
                    run = int(runs[i, j])
                    best = max(
                        (int(t.lengths[i - ln, j - ln]) + ln for ln in range(k, run + 1)),
                        default=-1,
                    )
                    assert chunk_max[i, j] == best


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
        scores = t.scores.copy()
        scores[3, 3] = 2  # C[3, 3] = 2 with C[3, 2] = C[2, 3] = 0
        with pytest.raises(RuntimeError, match=r"inconsistent DP table at \(3, 3\)"):
            traceback(dataclasses.replace(t, scores=scores, length=2), "abc", "xyz", 1)

    def test_tables_of_other_inputs_rejected(self):
        t = compute_tables("abcab", "abcb", 2)
        for x, y, k in (("abcab", "abc", 2), ("abca", "abcb", 2), ("abcab", "abcb", 3)):
            with pytest.raises(ValueError, match="other inputs or another k"):
                traceback(t, x, y, k)

    @given(seqs, seqs, st.integers(1, 5))
    def test_deterministic(self, xs, ys, k):
        t1 = traceback(compute_tables(xs, ys, k), xs, ys, k)
        t2 = traceback(compute_tables(xs, ys, k), xs, ys, k)
        assert t1 == t2

    @given(st.one_of(st.tuples(seqs, seqs), planted_pairs()), st.integers(1, 6))
    @settings(max_examples=200)
    def test_same_walk_as_chunk_max_gate(self, pair, k):
        # reference: the walk that takes a chunk only where chunk_max attains
        # the score, with the run read from match_run_table
        xs, ys = pair
        tables = compute_tables(xs, ys, k)
        chunk_max, runs = chunk_max_table(xs, ys, k), match_run_table(xs, ys)

        def gated(i, j, score):
            if chunk_max[i, j] != score:
                return ()
            return range(int(runs[i, j]), k - 1, -1)

        assert traceback(tables, xs, ys, k) == walk_chunks(tables.lengths, tables.length, k, gated)

    def test_witness_peak_is_one_byte_per_cell(self):
        # uint8 scores modulo 2^8; the walk decodes no row
        rng = random.Random(6)
        x = "".join(rng.choice("ACGT") for _ in range(600))
        y = x[:200] + "".join(rng.choice("ACGT") for _ in range(400))
        tracemalloc.start()
        try:
            a = traceback(compute_tables(x, y, 3), x, y, 3)
            peak = tracemalloc.get_traced_memory()[1] / (601 * 601)
        finally:
            tracemalloc.stop()
        assert a.total >= 200
        assert peak < 1.5

    def test_walk_never_decodes_the_table(self, monkeypatch):
        xs, ys = "acdbacbcacdb", "aacdabcaacd"
        tables = compute_tables(xs, ys, 2)
        want = walk_chunks(tables.lengths, tables.length, 2, _run_walk(xs, ys, 2))
        monkeypatch.setattr(DpTables, "lengths", property(lambda t: pytest.fail("decoded")))
        assert traceback(tables, xs, ys, 2) == want

    @given(st.one_of(st.tuples(seqs, seqs), planted_pairs()), st.integers(1, 6))
    @settings(max_examples=300)
    def test_same_walk_as_int32_grid(self, pair, k):
        # reference: the walk over the decoded int32 grid that tries every
        # length from the common-suffix run down to k
        xs, ys = pair
        tables = compute_tables(xs, ys, k)
        assert tables.scores.dtype == np.uint8
        want = walk_chunks(tables.lengths, tables.length, k, _run_walk(xs, ys, k))
        assert traceback(tables, xs, ys, k) == want

    @pytest.mark.parametrize("k, dtype", [(255, np.uint8), (256, np.uint16), (300, np.uint16)])
    def test_difference_dtype_holds_k(self, k, dtype):
        # a planted 600-symbol segment makes row differences reach k itself;
        # the walk's residue tests hold while k < 2^bits of the table
        rng = random.Random(k)
        seg = "".join(rng.choice("ACGT") for _ in range(600))
        x = "".join(rng.choice("ACGT") for _ in range(150)) + seg
        y = seg + "".join(rng.choice("ACGT") for _ in range(90))
        tables = compute_tables(x, y, k)
        assert tables.scores.dtype == dtype
        grid = _int32_grid(x, y, k)
        assert int(np.diff(grid, axis=1).max()) == k
        assert (tables.lengths == grid).all()
        want = walk_chunks(grid, int(grid[-1, -1]), k, _run_walk(x, y, k))
        assert tables.length == want.total >= 600
        assert traceback(tables, x, y, k) == want

    def test_table_too_big_is_named(self, monkeypatch):
        real = np.zeros

        def zeros(shape, *args, **kwargs):
            if shape in ((6, 8), (8, 6)):
                raise MemoryError
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        x, y = (3, 1, 4, 1, 5), (2, 7, 1, 4, 1, 8, 1)
        with pytest.raises(MemoryError, match=r"^cannot allocate the 6 x 8 score table: 48 bytes of uint8$"):
            compute_tables(x, y, 2)
        with pytest.raises(MemoryError, match=r"6 x 8 score table: 48 bytes of uint8"):
            op_lcs_kplus_state(x, y, 2)
        with pytest.raises(MemoryError, match=r"^cannot allocate the 8 x 6 score table"):
            compute_tables(y, x, 2)  # swept as (x, y), into the transpose
        assert lcs_kplus_length(x, y, 2) == 3  # the length path keeps no table
