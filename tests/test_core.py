import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsk import exact, op_lcs
from lcsk.core import (
    ChunkAlignment,
    Params,
    as_items,
    check_k,
    validate_alignment,
)
from lcsk.oracles import naive_lcs_kplus, naive_op_lcs_kplus

MODES = {"exact": exact.MODE, "op": op_lcs.MODE}


class TestSequence:
    def test_of_coerces_common_containers(self):
        assert as_items("abc") == ("a", "b", "c")
        assert as_items(b"ab") == (97, 98)
        assert as_items([1, 2]) == (1, 2)
        arr = as_items(np.array([3, 1]))
        assert arr == (3, 1)
        assert all(isinstance(v, int) for v in arr)  # unboxed scalars

    def test_as_items_passthrough(self):
        t = (1, 2)
        assert as_items(t) is t


class TestParams:
    def test_exact_accepts_k1(self):
        assert Params(k=1).mode == "exact"

    @pytest.mark.parametrize("k", [0, -3])
    def test_exact_rejects_nonpositive_k(self, k):
        with pytest.raises(ValueError):
            Params(k=k)

    def test_op_rejects_k1(self):
        with pytest.raises(ValueError):
            Params(k=1, mode="op")
        assert Params(k=2, mode="op").k == 2

    @pytest.mark.parametrize("mode", ["exact", "op"])
    def test_rejects_non_integer_k(self, mode):
        for k in (True, False, 2.5, 3.0, "3", None):
            with pytest.raises(TypeError, match="integer"):
                Params(k=k, mode=mode)
        assert check_k(np.int64(3), mode) == 3 and type(check_k(np.int64(3), mode)) is int

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            Params(k=2, mode="fuzzy")


class TestChunkAlignment:
    def test_json_schema(self):
        a = ChunkAlignment(total=5, chunks=((1, 2, 3), (7, 6, 2)))
        assert a.to_json() == {
            "total": 5,
            "chunks": [{"x": 1, "y": 2, "len": 3}, {"x": 7, "y": 6, "len": 2}],
        }

    def test_chunks_normalized_to_tuples(self):
        a = ChunkAlignment(total=2, chunks=[[1, 1, 2]])
        assert a.chunks == ((1, 1, 2),)


class TestValidateAlignment:
    def setup_method(self):
        self.x = "acdbacbc"
        self.y = "aacdabca"
        self.p2 = Params(k=2)

    def test_accepts_known_good(self):
        good = ChunkAlignment(total=5, chunks=((1, 2, 3), (7, 6, 2)))
        assert validate_alignment(self.x, self.y, self.p2, good)

    def test_rejects_short_chunk(self):
        a = ChunkAlignment(total=1, chunks=((1, 2, 1),))
        assert not validate_alignment(self.x, self.y, self.p2, a)

    def test_rejects_unequal_substrings(self):
        a = ChunkAlignment(total=2, chunks=((1, 1, 2),))  # "ac" vs "aa"
        assert not validate_alignment(self.x, self.y, self.p2, a)

    def test_rejects_overlap(self):
        a = ChunkAlignment(total=6, chunks=((1, 2, 3), (3, 4, 3)))
        assert not validate_alignment(self.x, self.y, self.p2, a)

    def test_rejects_out_of_bounds(self):
        a = ChunkAlignment(total=3, chunks=((7, 6, 3),))
        assert not validate_alignment(self.x, self.y, self.p2, a)

    def test_rejects_total_mismatch(self):
        a = ChunkAlignment(total=4, chunks=((1, 2, 3),))
        assert not validate_alignment(self.x, self.y, self.p2, a)

    def test_empty_alignment_means_zero(self):
        assert validate_alignment(self.x, self.y, self.p2, ChunkAlignment(total=0))
        assert not validate_alignment(self.x, self.y, self.p2, ChunkAlignment(total=1))

    def test_op_mode_checks_isomorphism(self):
        p = Params(k=3, mode="op")
        x, y = (1, 9, 4, 7), (2, 8, 3, 9)
        ok = ChunkAlignment(total=3, chunks=((1, 1, 3),))  # (1,9,4) ~ (2,8,3)
        assert validate_alignment(x, y, p, ok)
        bad = ChunkAlignment(total=3, chunks=((2, 1, 3),))  # (9,4,7) vs (2,8,3)
        assert not validate_alignment(x, y, p, bad)

    @given(st.data())
    def test_dropping_a_chunk_keeps_validity(self, data):
        # build a valid alignment on equal strings, then drop one chunk
        n_chunks = data.draw(st.integers(1, 4))
        gap = data.draw(st.integers(1, 3))
        chunks = []
        pos = 1
        for _ in range(n_chunks):
            ln = data.draw(st.integers(2, 4))
            chunks.append((pos, pos, ln))
            pos += ln + gap
        base = "ab" * pos
        total = sum(c[2] for c in chunks)
        full = ChunkAlignment(total=total, chunks=tuple(chunks))
        assert validate_alignment(base, base, Params(k=2), full)
        drop = data.draw(st.integers(0, n_chunks - 1))
        kept = tuple(c for i, c in enumerate(chunks) if i != drop)
        reduced = ChunkAlignment(total=total - chunks[drop][2], chunks=kept)
        assert validate_alignment(base, base, Params(k=2), reduced)


@st.composite
def _planted_pairs(draw):
    """Two sequences over 0..3 that share a segment at random positions."""
    x = draw(st.lists(st.integers(0, 3), max_size=14))
    y = draw(st.lists(st.integers(0, 3), max_size=14))
    seg = draw(st.lists(st.integers(0, 3), max_size=12))
    i, j = draw(st.integers(0, len(x))), draw(st.integers(0, len(y)))
    return tuple(x[:i] + seg + x[i:]), tuple(y[:j] + seg + y[j:])


class TestWitnessTable:
    @given(st.sampled_from(sorted(MODES)), _planted_pairs(), st.integers(1, 6))
    @settings(max_examples=300)
    def test_score_differences_are_bounded(self, mode, pair, k):
        # what walk_chunks' residue tests rest on: C[i, j] - C[i-w, j-w] is
        # at most w + k - 1, and row and column differences lie in [0, k]
        k = max(k, 2) if mode == "op" else k
        c = MODES[mode].solve(*pair, k, witness=True).lengths
        for axis in (0, 1):
            step = np.diff(c, axis=axis)
            assert step.min(initial=0) >= 0 and step.max(initial=0) <= k
        for w in range(1, min(c.shape)):
            assert (c[w:, w:] - c[:-w, :-w]).max() <= w + k - 1

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("k, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_table_dtype_edges(self, mode, k, dtype):
        # x = S1 g S2 R z and y = R S1 h S2, with |S1| = 600 > 2k, |S2| = k
        # and |R| = 600 + k - 128, values all distinct and S1 below R: the
        # total 600 + k comes from S1 and S2, and the walk's first read,
        # C[m, n-1] = |R|, is 128 below it, which a residue test modulo 2^7
        # would take for the total.  The ends g, h, z stop op chunks from
        # growing past these pieces.
        rng = random.Random(k)
        low, high = list(range(1, 601)), list(range(601, 1073 + 2 * k))
        rng.shuffle(low)
        rng.shuffle(high)
        s1, s2, r = low, high[:k], high[k:]
        x, y = s1 + [10**6] + s2 + r + [10**6 + 1], r + s1 + [0] + s2
        state = MODES[mode].solve(x, y, k, witness=True)
        assert state.scores.dtype == dtype
        c = state.lengths
        assert state.length == int(c[-1, -1]) == 600 + k == int(c[-1, -2]) + 128
        got = MODES[mode].walk(state, x, y, k)
        assert validate_alignment(x, y, Params(k=k, mode=mode), got)
        # the same walk over the decoded int32 grid, and over the residues with
        # every score shifted by a constant that puts 2^bits halfway along it
        assert got == MODES[mode].walk(dataclasses.replace(state, scores=c), x, y, k)
        bits = 8 * state.scores.itemsize
        shift = (2**bits - state.length // 2) % 2**bits
        scores = (state.scores.astype(np.int64) + shift) % 2**bits
        wrapped = dataclasses.replace(state, length=state.length + shift, scores=scores.astype(dtype))
        shifted = MODES[mode].walk(wrapped, x, y, k)
        assert shifted.chunks == got.chunks and shifted.total == got.total + shift


class TestOrientation:
    """Mode.solve sweeps its rows over the shorter input, x on a tie."""

    @staticmethod
    def spied(mode):
        # the ids and table order each sweep call gets, from a copy of the mode
        calls = []

        def spy(x_ids, y_ids, k, table=None):
            calls.append((x_ids.copy(), y_ids.copy(), table is None or table.flags.c_contiguous))
            return mode.sweep(x_ids, y_ids, k, table)

        return dataclasses.replace(mode, sweep=spy), calls

    @staticmethod
    def assert_swept(calls, mode, rows, cols, k):
        want = mode.window_ids(rows, cols, k)
        for x_ids, y_ids, contiguous in calls:
            assert np.array_equal(x_ids, want[0]) and np.array_equal(y_ids, want[1])
            assert contiguous  # the rows of the table the sweep fills

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_rows_run_over_the_shorter_input(self, mode):
        mode, k = MODES[mode], 3
        rng = random.Random(3)
        xs = tuple(rng.randint(1, 6) for _ in range(12))
        noise = [rng.randint(1, 6) for _ in range(28)]
        ys = tuple(noise[:9] + list(xs[:5]) + noise[9:20] + list(xs[5:]) + noise[20:])
        spied, calls = self.spied(mode)
        a, b = spied.solve(xs, ys, k), spied.solve(ys, xs, k)
        c, d = spied.solve(xs, ys, k, witness=True), spied.solve(ys, xs, k, witness=True)
        assert len(calls) == 4
        self.assert_swept(calls, mode, xs, ys, k)
        oracle = naive_lcs_kplus if mode.name == "exact" else naive_op_lcs_kplus
        assert a == b == c.length == d.length == oracle(xs, ys, k) >= len(xs)
        # the flipped solve fills the transpose of a column-order table
        assert d.scores.shape == (41, 13) and d.scores.flags.f_contiguous
        assert np.array_equal(d.lengths, c.lengths.T)
        params = Params(k=k, mode=mode.name)
        for state, x, y in ((c, xs, ys), (d, ys, xs)):
            got = mode.walk(state, x, y, k)
            assert got == mode.walk(dataclasses.replace(state, scores=state.lengths), x, y, k)
            assert got.total == a and validate_alignment(x, y, params, got)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_equal_lengths_keep_the_argument_order(self, mode):
        mode, k = MODES[mode], 3
        xs, ys = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3), (2, 7, 1, 8, 2, 8, 1, 8, 2, 8)
        assert not np.array_equal(mode.window_ids(xs, ys, k)[0], mode.window_ids(ys, xs, k)[0])
        spied, calls = self.spied(mode)
        spied.solve(xs, ys, k)
        spied.solve(xs, ys, k, witness=True)
        assert len(calls) == 2
        self.assert_swept(calls, mode, xs, ys, k)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("k", [3, 30])
    def test_length_peak_on_a_skewed_pair(self, mode, k):
        # O(k * (m + n)): exact's k+1 int32 ring rows span the longer input,
        # 4(k+1)(n+1) bytes, and op keeps O(k) ids per symbol, O(k) rows over
        # the longer input and a capped mask group.  No (m+1) x (n+1) table:
        # at 201 x 20001 bytes it would pass the bound at both k.
        m, n = 200, 20000
        rng = np.random.default_rng(40)
        x, y = rng.integers(1, 1001, m).tolist(), rng.integers(1, 1001, n).tolist()
        for args in ((x, y), (y, x)):
            tracemalloc.start()
            try:
                MODES[mode].solve(*args, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (8 * (k + 1) + 64) * (m + n)
