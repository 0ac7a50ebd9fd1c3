import contextlib
import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsk import core, exact
from lcsk.bench import generate_pair
from lcsk.cli import main
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


@st.composite
def long_planted_pairs(draw, k):
    """Like planted_pairs, with a shared segment of 2k+1..3k+2 symbols, so
    the chunk through it is longer than 2k."""
    x, y = (draw(st.lists(symbols, max_size=16)) for _ in "xy")
    seg = draw(st.lists(symbols, min_size=2 * k + 1, max_size=3 * k + 2))
    i, j = draw(st.integers(0, len(x))), draw(st.integers(0, len(y)))
    return tuple(x[:i] + seg + x[i:]), tuple(y[:j] + seg + y[j:])


ROUTES = ("dense", "sparse")


@contextlib.contextmanager
def forced(route):
    """Make MODE.plan pick one route when some chunk fits: r < 0 * cells
    never holds, and r < inf * cells always does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_SPARSE_SHARE", 0 if route == "dense" else float("inf"))
        yield


def _dna_pair(seed, m, n):
    """Random ACGT strings; y starts with a copy of a third of x."""
    rng = random.Random(seed)
    x = "".join(rng.choice("ACGT") for _ in range(m))
    return x, x[: m // 3] + "".join(rng.choice("ACGT") for _ in range(n - m // 3))


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


class TestRoutes:
    """The length path's two routes: the row loop and the point DP."""

    @pytest.mark.parametrize("route", ROUTES)
    @given(st.data())
    @settings(max_examples=150)
    def test_both_orders_match_naive(self, route, data):
        k = data.draw(st.integers(1, 6))
        xs, ys = data.draw(st.one_of(st.tuples(seqs, seqs), planted_pairs(), long_planted_pairs(k)))
        want = naive_lcs_kplus(xs, ys, k)
        with forced(route):
            assert lcs_kplus_length(xs, ys, k) == lcs_kplus_length(ys, xs, k) == want

    @pytest.mark.parametrize("route", ROUTES)
    @given(seqs, seqs)
    def test_k1_is_textbook_lcs(self, route, xs, ys):
        with forced(route):
            assert lcs_kplus_length(xs, ys, 1) == textbook_lcs(xs, ys)

    @pytest.mark.parametrize("route", ROUTES)
    def test_short_and_empty_inputs(self, route):
        with forced(route):
            for x, y, k in (("", "", 1), ("", "abc", 1), ("abc", "", 2), ("ab", "abab", 3),
                            ("abab", "ab", 5), ("abc", "abc", 3), ("abc", "xabcx", 3)):
                assert lcs_kplus_length(x, y, k) == naive_lcs_kplus(x, y, k)

    @pytest.mark.parametrize("route", ROUTES)
    def test_reranked_window_ids(self, route):
        # the case of test_routes_agree_when_window_ids_are_reranked
        rng = random.Random(11)
        with forced(route):
            for k in (11, 12, 14):
                for _ in range(20):
                    x = [rng.randrange(64) for _ in range(rng.randint(k, 60))]
                    y = [rng.randrange(64) for _ in range(rng.randint(k, 60))]
                    start = rng.randrange(len(x))
                    seg = x[start : start + rng.randint(k, 2 * k)]
                    y[: len(seg)] = seg
                    expected = naive_lcs_kplus(x, y, k)
                    assert lcs_kplus_length(x, y, k) == lcs_kplus_length(y, x, k) == expected

    @pytest.mark.parametrize("k, sparse", [(8, True), (3, False)])
    def test_route_follows_the_chunk_end_count(self, monkeypatch, k, sparse):
        # sigma = 4 leaves one window pair in 4^k a chunk end: k = 8 goes
        # sparse, and criterion 10's pair at k = 3 stays dense
        xs, ys = generate_pair("exact", 2000, 4, 20260825)
        assert exact.MODE.plan(xs, ys, k).route == ("points" if sparse else "rows")
        length = lcs_kplus_length(xs, ys, k)
        monkeypatch.setattr(exact, "_SPARSE_SHARE", float("inf") if not sparse else 0)
        assert exact.MODE.plan(xs, ys, k).route == ("rows" if sparse else "points")
        assert lcs_kplus_length(xs, ys, k) == length

    def test_chunk_end_count(self):
        # the plan's r, in either argument order and on either route
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(1, 4)
            x = tuple(rng.randrange(3) for _ in range(rng.randint(k, 30)))
            y = tuple(rng.randrange(3) for _ in range(rng.randint(k, 30)))
            want = int((match_run_table(x, y) >= k).sum())
            for route in ROUTES:
                with forced(route):
                    assert exact.MODE.plan(x, y, k).r == exact.MODE.plan(y, x, k).r == want

    @staticmethod
    def _pairs(seed, count, shape):
        """count random pairs, each in both argument orders, with a planted
        copy; shape(q) gives the k, alphabet size and longest input of pair q."""
        rng = random.Random(seed)
        for q in range(count):
            k, sigma, size = shape(q)
            x = [rng.randrange(sigma) for _ in range(rng.randint(k, size))]
            y = [rng.randrange(sigma) for _ in range(rng.randint(k, size))]
            start = rng.randrange(len(x))
            seg = x[start : start + rng.randint(k, 2 * k)]
            at = rng.randrange(len(y))
            y[at : at + len(seg)] = seg
            yield k, tuple(x), tuple(y)
            yield k, tuple(y), tuple(x)

    @pytest.mark.parametrize("shape", [lambda q: (11 + q % 4, 64, 60),  # 64^k passes 2^62
                                       lambda q: (8, 4, 60),  # 4^8 > m + n
                                       lambda q: (1 + q % 5, 1, 30)],  # s = 1
                             ids=["mid-loop re-rank", "final re-rank", "all equal"])
    def test_window_ids_are_dense(self, shape):
        # int32 ids below m + n, equal iff the windows are, so that _sparse
        # counts the chunk-end cells with one bincount
        for k, x, y in self._pairs(23, 20, shape):
            xg, yg = _window_ids(x, y, k)
            assert xg.dtype == yg.dtype == np.int32
            ids = np.concatenate((xg, yg))
            assert 0 <= ids.min() and ids.max() < len(x) + len(y)
            windows = [s[t : t + k] for s in (x, y) for t in range(len(s) - k + 1)]
            assert np.array_equal(ids[:, None] == ids, [[u == v for v in windows] for u in windows])

    @pytest.mark.parametrize("route", ROUTES)
    def test_sparse_cells_against_brute_force(self, route):
        # the plan's r and cells are the window pairs with equal ids, row by
        # row with ascending columns, in the (x, y) frame whichever input the
        # rows are swept over; random pairs, and re-ranked ids from q % 4 == 0
        def shape(q):
            return (11 + q % 3, 64, 60) if q % 4 == 0 else (1 + q % 5, (2, 4, 8)[q % 3], 40)

        frames = set()
        with forced(route):
            for k, x, y in self._pairs(29, 60, shape):
                plan = exact.MODE.plan(x, y, k)
                xg, yg = _window_ids(x, y, k)
                want = np.nonzero(xg[:, None] == yg)
                assert plan.r == len(want[0])
                frames.add(plan.flip)
                if route == "dense":
                    assert plan.route == "rows" and plan.cells is None
                    continue
                rows, starts, ends, order = plan.cells
                assert plan.route == "points" and (ends > starts).all()
                assert np.repeat(rows, ends - starts).tolist() == want[0].tolist()
                assert [u for a, b in zip(starts, ends) for u in order[a:b]] == want[1].tolist()
        assert frames == {False, True}

    def test_plan_routes(self):
        # no chunk fits: the empty route, with the symbols still checked
        for x, y, k in (("", "", 1), ("ab", "abab", 3), ("abab", "ab", 3)):
            for route in ROUTES:
                with forced(route):
                    assert exact.MODE.plan(x, y, k).route == "empty"
        with pytest.raises(TypeError, match="hashable"):
            exact.MODE.plan([[1]], [[1], [2]], 2)
        # the rows route sweeps the shorter input first; the points route's
        # cells are in the (x, y) frame
        x, y = "acgtacgtaa", "acg"
        with forced("dense"):
            plan = exact.MODE.plan(x, y, 2)
        assert (plan.route, plan.flip, plan.cells) == ("rows", True, None)
        assert [len(ids) for ids in plan.ids] == [2, 9]
        with forced("sparse"):
            plan = exact.MODE.plan(x, y, 2)
        rows, starts, ends, order = plan.cells
        assert plan.route == "points" and plan.r == 4 == int((ends - starts).sum())
        assert rows.tolist() == [0, 1, 4, 5] and order.tolist() == [0, 1]

    @pytest.mark.parametrize("route", ROUTES)
    def test_witness_table_makes_no_count(self, route):
        # compute_tables sweeps its table on every route, so it never counts
        # the chunk-end cells; align counts them once to pick its route
        calls = []
        mode = exact.MODE._replace(sparse=lambda xg, yg: calls.append(1) or exact._sparse(xg, yg))
        x, y = _dna_pair(2, 60, 45)
        with forced(route):
            for xs, ys, k in ((x, y, 3), (y, x, 3), (x, y, 6)):
                state = mode.solve(xs, ys, k, witness=True)
                assert not calls
                assert np.array_equal(state.lengths, _int32_grid(xs, ys, k))
                assert mode.align(xs, ys, k) == traceback(state, xs, ys, k)
                assert len(calls) == 1
                calls.clear()

    @pytest.mark.parametrize("k, m, bound", [(8, 3000, 0.1), (3, 2000, 0.034)])
    def test_length_peak(self, k, m, bound):
        # the point DP holds O(m + n) ids and the cells of k+1 rows; the row
        # loop's bound is its peak without the count, whose bincount is
        # freed before the rings are allocated
        x, y = _dna_pair(k, m, m)
        assert exact.MODE.plan(x, y, k).route == ("points" if k == 8 else "rows")
        tracemalloc.start()
        try:
            length = lcs_kplus_length(x, y, k)
            peak = tracemalloc.get_traced_memory()[1] / (m * m)
        finally:
            tracemalloc.stop()
        assert length >= m // 3
        assert peak <= bound


def _align(xs, ys, k, route):
    """The witness driver's alignment with its route forced (see forced)."""
    with forced(route):
        return exact.MODE.align(xs, ys, k)


def _table_walk(xs, ys, k):
    return traceback(compute_tables(xs, ys, k), xs, ys, k)


class TestPointWalk:
    """Mode.align's point route gives traceback's chunks, byte for byte."""

    @pytest.mark.parametrize("route", ROUTES)
    @given(st.data())
    @settings(max_examples=300)
    def test_same_chunks_as_traceback(self, route, data):
        k = data.draw(st.integers(1, 8))
        pair = data.draw(st.one_of(st.tuples(seqs, seqs), planted_pairs(), long_planted_pairs(k)))
        for xs, ys in (pair, pair[::-1]):
            got = _align(xs, ys, k, route)
            assert got == _table_walk(xs, ys, k)
            assert validate_alignment(xs, ys, Params(k=k), got)
            assert all(type(v) is int for chunk in got.chunks for v in chunk)  # JSON-ready

    @pytest.mark.parametrize("k", range(1, 9))
    def test_periodic_and_equal_strings(self, k):
        # many cells tie on F, so which of them the walk takes is decided by
        # left before up and the longest chunk alone
        cases = (("a" * 20, "a" * 13), ("ab" * 11, "ab" * 7 + "b"), ("abc" * 8, "bca" * 9),
                 ("aab" * 9, "ab" * 12), ("a" * 9 + "b" + "a" * 9, "a" * 25),
                 ("abab" * 6 + "c" + "abab" * 3, "ab" * 10 + "c" + "ab" * 5))
        for x, y in cases:
            for xs, ys in ((x, y), (y, x)):
                got = _align(xs, ys, k, "sparse")
                assert got == _table_walk(xs, ys, k)
                assert validate_alignment(xs, ys, Params(k=k), got)

    @pytest.mark.parametrize("route", ROUTES)
    def test_short_and_empty_inputs(self, route):
        for x, y, k in (("", "", 1), ("", "abc", 1), ("abc", "", 2), ("ab", "abab", 3), ("abab", "ab", 5),
                        ("abc", "abc", 3), ("abc", "xabcx", 3), ("a", "a", 1), ("ab", "ba", 1)):
            assert _align(x, y, k, route) == _table_walk(x, y, k)

    def test_point_route_keeps_no_table(self, monkeypatch):
        x, y = _dna_pair(1, 300, 200)
        cases = [(xs, ys, k, _table_walk(xs, ys, k)) for xs, ys, k in ((x, y, 4), (y, x, 4), (x, x, 2))]
        monkeypatch.setattr(core, "zeros_table", lambda *a: pytest.fail("table allocated"))
        for xs, ys, k, want in cases:
            assert _align(xs, ys, k, "sparse") == want

    @pytest.mark.parametrize("k, sparse", [(5, True), (3, False)])
    def test_cli_route_follows_the_chunk_end_count(self, monkeypatch, tmp_path, k, sparse):
        # a DNA-like pair: r is about mn/900 at k = 5, and mn/64 at k = 3
        x, y = _dna_pair(5, 2000, 3000)
        (tmp_path / "x").write_text(x)
        (tmp_path / "y").write_text(y)
        assert exact.MODE.plan(x, y, k).route == ("points" if sparse else "rows")
        tables, zeros_table = [], core.zeros_table
        monkeypatch.setattr(core, "zeros_table", lambda *a: tables.append(a) or zeros_table(*a))
        argv = ["exact", str(tmp_path / "x"), str(tmp_path / "y"), "--k", str(k), "--chunks",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(tables) == (not sparse)
        length, chunks = (tmp_path / "out").read_text().splitlines()
        assert int(length) == lcs_kplus_length(x, y, k) >= 2000 // 3

    def test_witness_peak(self):
        # O(m + n + r): the ids, the cells and their scores, and no table;
        # the table route peaks at about 1.03 B/cell here
        m, k = 3000, 8
        x, y = _dna_pair(k, m, m)
        assert exact.MODE.plan(x, y, k).route == "points"
        tracemalloc.start()
        try:
            got = exact.MODE.align(x, y, k)
            peak = tracemalloc.get_traced_memory()[1] / (m * m)
        finally:
            tracemalloc.stop()
        assert peak < 0.2
        assert got == _table_walk(x, y, k) and got.total >= m // 3


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
        scores = t.lengths  # at k = 1 one bit per cell could not tell 2 from 0
        scores[3, 3] = 2  # C[3, 3] = 2 with C[3, 2] = C[2, 3] = 0
        with pytest.raises(RuntimeError, match=r"inconsistent DP table at \(3, 3\)"):
            traceback(t._replace(scores=scores, length=2), "abc", "xyz", 1)

    def test_tables_of_other_inputs_rejected(self):
        t = compute_tables("abcab", "abcb", 2)
        for x, y, k in (("abcab", "abc", 2), ("abca", "abcb", 2), ("abcab", "abcb", 3)):
            with pytest.raises(ValueError, match="other inputs or another k"):
                traceback(t, x, y, k)

    @pytest.mark.parametrize("k, m, n", [(3, 12, 12), (3, 12, 8), (16, 40, 40), (16, 40, 30)])
    def test_tables_of_other_symbols_rejected(self, k, m, n):
        # another x, or y, of the same length, in both argument orders: on
        # packed tables (k = 3), grids (k = 16) and flipped ones (m > n)
        rng = random.Random(k * m * n)
        x = "".join(rng.choice("ACGT") for _ in range(m))
        y = x[m - n :] if n < m else x[4:] + "ACGT"

        def other(s):
            return ("C" if s[0] == "A" else "A") + s[1:]

        for a, b in ((x, y), (y, x)):
            t = compute_tables(a, b, k)
            assert traceback(t, a, b, k).total == t.length >= k
            for c, d in ((other(a), b), (a, other(b))):
                with pytest.raises(ValueError, match="other inputs or another k"):
                    traceback(t, c, d, k)
        # once walked to total 8 with chunks ((1, 1, 3), (4, 6, 5)), which
        # validate_alignment rejects
        with pytest.raises(ValueError, match="other inputs or another k"):
            traceback(compute_tables("ACGTACGTAA", "ACGTTTACGT", 3), "TTTTTTTTTT", "ACGTTTACGT", 3)

    def test_state_of_the_other_mode_rejected(self):
        # op's window ids are 2-D; walking them here raised IndexError
        x, y = (3, 1, 4, 1, 5, 9, 2, 6), (2, 7, 1, 8, 3, 1, 4, 1)
        with pytest.raises(ValueError, match="computed in the other mode"):
            traceback(op_lcs_kplus_state(x, y, 3), x, y, 3)

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

    def test_packed_witness_peak(self):
        # the row loop's witness at k = 3: 2-bit residues, four rows to a
        # byte, 0.25 B/cell, beside a stage of 32 rows and the k+1 ring rows
        # (1.03 B/cell with one byte per cell)
        m, k = 2000, 3
        x, y = _dna_pair(1, m, m)
        assert exact.MODE.plan(x, y, k).route == "rows"
        tracemalloc.start()
        try:
            got = exact.MODE.align(x, y, k)
            peak = tracemalloc.get_traced_memory()[1] / (m * m)
        finally:
            tracemalloc.stop()
        assert peak < 0.4
        assert validate_alignment(x, y, Params(k=k), got) and got.total >= m // 3

    def test_witness_peak_is_one_byte_per_cell(self):
        # 2-bit residues, four to a byte; the walk decodes no row
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
        assert tables.scores.bits == (1 if k == 1 else 2 if k <= 3 else 4)
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

        def zeros(shape, dtype=float, *args, **kwargs):
            if shape in ((2, 8), (6, 8)) and np.dtype(dtype) == np.uint8:  # packed at k = 2, or k = 16
                raise MemoryError
            return real(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        x, y = (3, 1, 4, 1, 5), (2, 7, 1, 4, 1, 8, 1)
        with pytest.raises(MemoryError, match=r"^cannot allocate the 6 x 8 score table: 16 bytes at 2 bits per cell$"):
            compute_tables(x, y, 2)
        with pytest.raises(MemoryError, match=r"6 x 8 score table: 16 bytes at 2 bits per cell"):
            op_lcs_kplus_state(x, y, 2)
        with pytest.raises(MemoryError, match=r"^cannot allocate the 6 x 8 score table: 48 bytes of uint8$"):
            compute_tables(x, y, 16)
        with pytest.raises(MemoryError, match=r"^cannot allocate the 8 x 6 score table"):
            compute_tables(y, x, 2)  # swept as (x, y), into the transpose
        assert lcs_kplus_length(x, y, 2) == 3  # the length path keeps no table
