import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsk import bench, core, exact, op_lcs
from lcsk.core import (
    ChunkAlignment,
    Params,
    RowStore,
    as_items,
    check_k,
    validate_alignment,
    zeros_table,
)
from lcsk.oracles import naive_lcs_kplus, naive_op_lcs_kplus
from lcsk.order_iso import build_oplce_table, prev_next_for_suffix, sort_positions

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


# one instance of each record, and a field to try to set
RECORDS = {
    "Params": (lambda: Params(k=2, mode="op"), "k"),
    "ChunkAlignment": (lambda: ChunkAlignment(total=3, chunks=[[1, 1, 3]]), "chunks"),
    "DpState": (lambda: exact.compute_tables("abcab", "abcb", 2), "scores"),
    "Mode": (lambda: exact.MODE, "sweep"),
    "SortedPositions": (lambda: sort_positions((3, 1, 2)), "asc"),
    "PrevNextTables": (lambda: prev_next_for_suffix((3, 1, 2), 1), "prev"),
    "OpLceTable": (lambda: build_oplce_table((1, 2, 3), (2, 3, 1)), "values"),
    "BenchCell": (lambda: bench.BenchCell("op", 40, 3, 50, seconds=0.001, length=6), "seconds"),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_fields_cannot_be_set(self, name):
        make, field = RECORDS[name]
        record = make()
        assert type(record).__name__ == name
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert getattr(record, field) is before

    def test_namedtuple_api(self):
        # they unpack, equal a plain tuple of their items, and _replace
        # copies through the same checks as construction
        total, chunks = a = ChunkAlignment(3, [[1, 1, 3]])
        assert (total, chunks) == a == (3, ((1, 1, 3),))
        assert a._replace(chunks=[[2, 2, 3]]).chunks == ((2, 2, 3),)
        assert Params(3)._replace(mode="op") == Params(k=3, mode="op") == (3, "op")
        with pytest.raises(ValueError, match="k >= 2"):
            Params(2)._replace(k=1, mode="op")
        with pytest.raises(ValueError, match="mode must be one of"):
            Params(2)._replace(mode="fuzzy")

    def test_import_loads_no_dataclasses(self):
        # building a frozen dataclass costs about 1 ms at every fresh import
        src = os.path.dirname(os.path.dirname(core.__file__))
        code = "import sys, lcsk, lcsk.cli, lcsk.oracles, lcsk.bench; print('dataclasses' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout == "False\n"


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
        # the walk's first read is 128 below the total, which a residue test
        # modulo 2^7 would take for the total (see _near_tie_pair)
        x, y = _near_tie_pair(k, 128)
        state = MODES[mode].solve(x, y, k, witness=True)
        assert state.scores.dtype == dtype
        c = state.lengths
        assert state.length == int(c[-1, -1]) == 600 + k == int(c[-1, -2]) + 128
        got = MODES[mode].walk(state, x, y, k)
        assert validate_alignment(x, y, Params(k=k, mode=mode), got)
        # the same walk over the decoded int32 grid, and over the residues with
        # every score shifted by a constant that puts 2^bits halfway along it
        assert got == MODES[mode].walk(state._replace(scores=c), x, y, k)
        bits = 8 * state.scores.itemsize
        shift = (2**bits - state.length // 2) % 2**bits
        scores = (state.scores.astype(np.int64) + shift) % 2**bits
        wrapped = state._replace(length=state.length + shift, scores=scores.astype(dtype))
        shifted = MODES[mode].walk(wrapped, x, y, k)
        assert shifted.chunks == got.chunks and shifted.total == got.total + shift

    def test_two_bit_edges(self):
        # k = 3 packs 2 bits per cell; the walk's first read is 2 below the
        # total, which a 1-bit residue would take for the total.  Exact mode
        # only: at k = 3 chance order-isomorphic windows are everywhere
        mode, k = "exact", 3
        x, y = _near_tie_pair(k, 2)
        state = MODES[mode].solve(x, y, k, witness=True)
        assert state.scores.bits == 2
        c = state.lengths
        assert state.length == int(c[-1, -1]) == 600 + k == int(c[-1, -2]) + 2
        got = MODES[mode].walk(state, x, y, k)
        assert validate_alignment(x, y, Params(k=k, mode=mode), got)
        assert got == MODES[mode].walk(state._replace(scores=c), x, y, k)
        for shift in (1, 2, 3, 301):  # every residue, and half the total
            wrapped = state._replace(length=state.length + shift, scores=_packed(c + shift, k))
            assert np.array_equal(wrapped.lengths, c)  # the decode starts from column 0
            shifted = MODES[mode].walk(wrapped, x, y, k)
            assert shifted.chunks == got.chunks and shifted.total == got.total + shift


def _near_tie_pair(k, gap):
    """x = S1 g S2 R z and y = R S1 h S2, with |S1| = 600 > 2k, |S2| = k and
    |R| = 600 + k - gap, values all distinct and S1 below R: the total
    600 + k comes from S1 and S2, and the walk's first read, C[m, n-1] =
    |R|, is gap below it.  The ends g, h, z stop op chunks from growing
    past these pieces."""
    rng = random.Random(k)
    low, high = list(range(1, 601)), list(range(601, 1201 + 2 * k - gap))
    rng.shuffle(low)
    rng.shuffle(high)
    s1, s2, r = low, high[:k], high[k:]
    return s1 + [10**6] + s2 + r + [10**6 + 1], r + s1 + [0] + s2


def _packed(grid, k):
    """The witness table of k holding ``grid`` modulo 2^bits, stored as a
    sweep stores it: its rows, or its columns when it is tall."""
    table = zeros_table(*grid.shape, k)
    tall = grid.shape[0] > grid.shape[1]
    store = RowStore(table.T if tall else table, 0)
    store.put(grid.T if tall else grid)
    store.flush()
    return table


def _uncapped_grid(mode, xs, ys, k):
    """C on every prefix pair from its definition: every chunk length from
    k up to the longest equal (exact) or order-isomorphic (op) pair of
    windows ending at (i, j)."""
    m, n = len(xs), len(ys)
    if mode == "exact":
        runs = exact.match_run_table(xs, ys)
        ell = lambda i, j: int(runs[i, j])
    else:
        lce = build_oplce_table(xs[::-1], ys[::-1]).values  # lce[m-i+1, n-j+1] = ell(i, j)
        ell = lambda i, j: int(lce[m - i + 1, n - j + 1])
    c = np.zeros((m + 1, n + 1), dtype=np.int32)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            c[i, j] = max(c[i - 1, j], c[i, j - 1], *(c[i - ln, j - ln] + ln for ln in range(k, ell(i, j) + 1)))
    return c


class TestPackedTable:
    """For k < 16 the witness table packs C modulo 2^bits, with the fewest
    bits of 1, 2 and 4 that exceed log2(k), 8 // bits cells to a byte along
    the shorter input's axis; from k = 16 on it is a table_dtype(k) grid."""

    # m+1 and n+1 are odd, so no packing axis is a multiple of 8 // bits
    SHAPES = {"wide": ((12, 22), (36, 50)), "square": ((16, 16), (44, 44)), "tall": ((30, 8), (60, 40))}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("mode, k, bits", [("exact", 1, 1), ("exact", 2, 2), ("exact", 3, 2),
                                               ("exact", 4, 4), ("exact", 15, 4), ("exact", 16, 0),
                                               ("op", 2, 2), ("op", 3, 2), ("op", 4, 4),
                                               ("op", 15, 4), ("op", 16, 0)])
    def test_walk_and_lengths(self, mode, k, bits, shape):
        rng = random.Random(f"{mode} {k} {shape}")
        m, n = self.SHAPES[shape][k >= 15]
        for _ in range(3):
            x, y = self.planted(rng, mode, m, n, k)
            state = MODES[mode].solve(x, y, k, witness=True)
            scores = state.scores
            if bits:
                axis, per = int(m > n), 8 // bits
                assert (scores.bits, scores.axis, scores.shape) == (bits, axis, (m + 1, n + 1))
                assert scores.data.shape[axis] == -(-(min(m, n) + 1) // per)
                assert scores.data.shape[1 - axis] == max(m, n) + 1
            else:
                assert scores.shape == (m + 1, n + 1) and scores.dtype == np.uint8
            c = state.lengths
            assert np.array_equal(c, _uncapped_grid(mode, x, y, k))
            got = MODES[mode].walk(state, x, y, k)
            assert got == MODES[mode].walk(state._replace(scores=c), x, y, k)
            assert got.total == state.length == int(c[-1, -1])
            assert validate_alignment(x, y, Params(k=k, mode=mode), got)
            for shift in range(1, 1 << bits):  # the residues of every shifted table
                wrapped = state._replace(length=state.length + shift, scores=_packed(c + shift, k))
                shifted = MODES[mode].walk(wrapped, x, y, k)
                assert shifted.chunks == got.chunks and shifted.total == got.total + shift

    @staticmethod
    def planted(rng, mode, m, n, k):
        """Random m and n symbols, few distinct, with a segment of k..2k+1
        of them copied (exact) or mapped by v -> 2v + 1 (op) from x into y."""
        x = [rng.randint(1, 3 if mode == "exact" else 6) for _ in range(m)]
        y = [rng.randint(1, 3 if mode == "exact" else 6) for _ in range(n)]
        size = min(rng.randint(k, 2 * k + 1), m, n)
        i, j = rng.randint(0, m - size), rng.randint(0, n - size)
        y[j : j + size] = x[i : i + size] if mode == "exact" else [2 * v + 1 for v in x[i : i + size]]
        return x, y

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_row_store_packs_any_row_split(self, k):
        # the same residues whatever the blocks the rows arrive in, whatever
        # row the sweep starts at, and with or without an offset that falls
        # by one per row, as exact's sweep stores its one-row blocks
        rng = np.random.default_rng(k)
        grid = rng.integers(0, 1000, (45, 50)).astype(np.int32)
        want = grid % (2 if k == 1 else 4 if k == 2 else 16)
        for start, block, shift in itertools.product((0, 3, 5), (1, 3, 40), (0, 1)):
            table = zeros_table(45, 50, k)
            store = RowStore(table, start)
            for r in range(start, 45, block):
                offset = shift * (45 - r)
                store.put(grid[r : r + block] + offset, offset)
            store.flush()
            assert np.array_equal(table.unpack()[start:], want[start:])
            assert not table.unpack()[:start].any()
            assert np.array_equal(table.T.unpack(), table.unpack().T)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_align_keeps_no_table_when_no_chunk_fits(mode, monkeypatch):
    # Mode.plan's empty route: the answer is 0 whatever the sizes, so align
    # allocates no (m+1) x (n+1) table for it; the symbols are still checked
    monkeypatch.setattr(core, "zeros_table", lambda *a: pytest.fail("table allocated"))
    for x, y, k in (((1, 2, 3), tuple(range(50)), 4), (tuple(range(50)), (3, 2), 3), ((), (), 2)):
        assert MODES[mode].align(x, y, k) == ChunkAlignment(0)
    with pytest.raises(TypeError):
        MODES[mode].align([[1]], tuple(range(50)), 2)


class TestOrientation:
    """Mode.solve sweeps its rows over the shorter input, x on a tie.  The
    tests force exact's rows route, as a length on the points route does
    not sweep."""

    @staticmethod
    def spied(mode):
        # the ids and table order each sweep call gets, from a copy of the mode
        calls = []

        def spy(x_ids, y_ids, k, table=None):
            rows = None if table is None else table.data  # k = 3: a 2-bit PackedTable
            calls.append((x_ids.copy(), y_ids.copy(), rows is None or rows.flags.c_contiguous))
            return mode.sweep(x_ids, y_ids, k, table)

        return mode._replace(sweep=spy), calls

    @staticmethod
    def assert_swept(calls, mode, rows, cols, k):
        want = mode.window_ids(rows, cols, k)
        for x_ids, y_ids, contiguous in calls:
            assert np.array_equal(x_ids, want[0]) and np.array_equal(y_ids, want[1])
            assert contiguous  # the packed rows of the table the sweep fills

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_rows_run_over_the_shorter_input(self, mode, monkeypatch):
        monkeypatch.setattr(exact, "_SPARSE_SHARE", 0)
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
        # the flipped solve fills the transpose of a column-order table,
        # four cells to a byte along the shorter input's axis
        assert d.scores.shape == (41, 13) and (d.scores.bits, d.scores.axis) == (2, 1)
        assert d.scores.data.shape == (41, 4) and d.scores.data.flags.f_contiguous
        assert c.scores.data.shape == (4, 41) and c.scores.data.flags.c_contiguous
        assert np.array_equal(d.lengths, c.lengths.T)
        params = Params(k=k, mode=mode.name)
        for state, x, y in ((c, xs, ys), (d, ys, xs)):
            got = mode.walk(state, x, y, k)
            assert got == mode.walk(state._replace(scores=state.lengths), x, y, k)
            assert got.total == a and validate_alignment(x, y, params, got)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_equal_lengths_keep_the_argument_order(self, mode, monkeypatch):
        monkeypatch.setattr(exact, "_SPARSE_SHARE", 0)
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
        # O(k * (m + n)).  At sigma = 1000 no length-k windows match here
        # (r = 0 at both k), so exact takes the point DP, which holds O(m + n)
        # ids and sorted copies, not its row loop's k+1 int32 ring rows.  Op
        # keeps O(k) ids per symbol, O(k) rows over the longer input and a
        # capped mask group.  No (m+1) x (n+1) table: at 201 x 20001 bytes
        # it would pass the bound at both k.
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
