"""Shared data types for the chunked-LCS algorithms.

A *chunk alignment* decomposes a common subsequence into consecutive
substring pairs ("chunks"), each at least ``k`` long.  In exact mode the
paired substrings must be equal; in order-preserving (op) mode they must
be order-isomorphic.

Both modes solve one recurrence that differs only in the chunk test: a
Mode record holds each mode's steps, Mode.plan makes each request's one
route decision, and Mode.solve and Mode.align carry it out.  Both chunk
tests see the symbols only through codes, the one check of which symbols
a mode accepts, after as_items coerces the inputs.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from typing import Any, Callable

import numpy as np

MODES = ("exact", "op")


def check_k(k, mode: str = "exact") -> int:
    """Validate the minimum chunk length for ``mode``; return it as an int.

    Op mode needs k >= 2: every pair of single symbols is order-isomorphic.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise TypeError(f"k must be an integer, got {type(k).__name__}")
    minimum = 2 if mode == "op" else 1
    if k < minimum:
        raise ValueError(f"{mode} mode requires k >= {minimum}")
    return int(k)


def has_nan(values) -> bool:
    """True if some value, or an item of a tuple or frozenset value at any
    depth, is NaN.  A NaN is not equal to itself, but tuples, frozensets
    and dicts compare items by identity first, so answers on NaN would
    depend on object identity.
    """
    return any(has_nan(v) if isinstance(v, (tuple, frozenset)) else v != v for v in values)


def codes(values: tuple, mode: str) -> np.ndarray:
    """Integer codes of the symbols of ``values``, equal iff the symbols are;
    in op mode ordered as the values.  The one check of which symbols each
    mode accepts.

    Values that are all of type int and fit in int64 need no NaN or order
    check.  In op mode they are their own codes, as int64: the op window
    ids only compare codes.  In exact mode one np.unique ranks them, so
    the codes lie below the alphabet size.  Others must be hashable and
    free of NaN, bare or at any depth inside tuple and frozenset values
    (see has_nan); exact mode codes them in first-seen order.  Op mode
    ranks them densely: it sorts the distinct values, and each must then
    be below the next, as a partial order such as subset order on
    frozensets sorts, but its ranks would not give order types.
    """
    if set(map(type, values)) == {int}:  # not bool, not an int subclass
        try:
            ints = np.array(values, dtype=np.int64)
        except OverflowError:  # beyond int64
            pass
        else:
            return ints if mode == "op" else np.unique(ints, return_inverse=True)[1]
    try:
        keys = dict.fromkeys(values)  # first-seen order: reproducible errors
    except TypeError as exc:  # e.g. list values
        what = "symbols" if mode == "exact" else "values"
        raise TypeError(f"{mode} mode needs hashable {what}: {exc}") from None
    if has_nan(keys):
        what = "symbols equal to themselves" if mode == "exact" else "totally ordered values"
        raise ValueError(f"{mode} mode needs {what}; got NaN")
    if mode == "op":
        try:
            keys = sorted(keys)
            bad = next((pair for pair in zip(keys, keys[1:]) if not pair[0] < pair[1]), None)
        except TypeError as exc:  # e.g. str next to int
            raise TypeError(f"op mode needs mutually comparable values: {exc}") from None
        if bad:
            raise TypeError("op mode needs totally ordered values: %r < %r is false" % bad)
    code = {v: c for c, v in enumerate(keys)}
    return np.array([code[v] for v in values], dtype=np.int64)


def table_dtype(bound: int):
    """The smallest of uint8, uint16 and int32 that holds 0..bound."""
    return np.uint8 if bound <= 0xFF else np.uint16 if bound <= 0xFFFF else np.int32


# Per bits: the factors 2^(bits * r) that move row r of a byte's rows to its bits.
_WEIGHTS = {bits: (1 << bits * np.arange(8 // bits)).astype(np.uint8)[:, None] for bits in (1, 2, 4)}


class PackedTable:
    """A rows x cols table of residues modulo 2^bits, bits in (1, 2, 4),
    8 // bits cells to a byte along one axis.  Cell (i, j) is bits
    (i % per) * bits and up of the uint8 data[i // per, j] when ``axis``
    is 0, and of data[i, j // per] when it is 1, with per = 8 // bits.  T
    is the transpose, which shares ``data``."""

    __slots__ = ("data", "shape", "bits", "axis")

    def __init__(self, data: np.ndarray, shape: tuple, bits: int, axis: int = 0):
        self.data, self.shape, self.bits, self.axis = data, shape, bits, axis

    @property
    def T(self) -> "PackedTable":
        return PackedTable(self.data.T, self.shape[::-1], self.bits, 1 - self.axis)

    def unpack(self) -> np.ndarray:
        """The residues, as a rows x cols uint8 grid."""
        per, packed = 8 // self.bits, self.data if self.axis == 0 else self.data.T
        shifts = (self.bits * np.arange(per, dtype=np.uint8))[:, None]
        grid = (packed[:, None, :] >> shifts) & (1 << self.bits) - 1
        grid = grid.reshape(-1, packed.shape[1])[: self.shape[self.axis]]
        return grid if self.axis == 0 else grid.T


def zeros_table(rows: int, cols: int, k: int):
    """A zeroed rows x cols witness table for k: C modulo 2^bits for the
    fewest bits of 1, 2 and 4 with k < 2^bits, in a PackedTable packed
    along the axis of the shorter input (rows on a tie), or for k >= 16 a
    table_dtype(k) grid.  Laid out so that the rows of the table Mode.solve
    sweeps, the transpose if rows > cols, are contiguous (packed rows for
    a PackedTable); if it cannot be allocated, the MemoryError names its
    size and bytes."""
    bits = next((b for b in (1, 2, 4) if k < 1 << b), 0)
    flip = rows > cols
    swept = (cols, rows) if flip else (rows, cols)
    shape = (-(-swept[0] * bits // 8), swept[1]) if bits else swept
    dtype = np.dtype(np.uint8 if bits else table_dtype(k))
    try:
        data = np.zeros(shape, dtype=dtype)
    except MemoryError:
        what = f"at {bits} bits per cell" if bits else f"of {dtype}"
        raise MemoryError(f"cannot allocate the {rows} x {cols} score table: "
                          f"{shape[0] * shape[1] * dtype.itemsize} bytes {what}") from None
    table = PackedTable(data, swept, bits) if bits else data
    return table.T if flip else table


def byte_rows(table) -> int:
    """Rows to a byte of a sweep's table, the unit of RowStore's blocks:
    8 // bits for a PackedTable, else 1 (a grid, or None for no table)."""
    return 8 // table.bits if isinstance(table, PackedTable) else 1


class RowStore:
    """Stores a sweep's finished score rows in its table, in order from row
    0: put(rows, offset) stores rows - offset, a 2-D block of whole bytes'
    rows (byte_rows) but for the last, modulo 2^bits of the table; offset
    is None or a column of per-row offsets.  A grid takes a block at once,
    cast with wrap-around; a PackedTable (packed along rows), through a
    uint8 stage of ``block`` rows rounded up to whole bytes, a stage at a
    time: masked to their bits, multiplied by 2^(bits * r) for row r of a
    byte's rows and or-ed into the bytes, in three numpy calls (four with
    offsets) of about 2 us each on rows of a few hundred cells.  The rows
    past the last in its byte are stale stage rows, past the table's rows.
    """

    def __init__(self, table, block: int):
        self.table, self.next, self.per, self.stage = table, 0, byte_rows(table), None
        if isinstance(table, PackedTable):
            self.weights, self.mask = _WEIGHTS[table.bits], (1 << table.bits) - 1
            self.stage = np.empty((-(-block // self.per) * self.per, table.shape[1]), np.uint8)

    def put(self, rows: np.ndarray, offset=None):
        start, self.next = self.next, self.next + len(rows)
        if self.stage is None:
            out = self.table[start : self.next]
            np.subtract(rows, 0 if offset is None else offset, out=out, casting="unsafe")
            return
        stage, per = self.stage, self.per
        for a in range(0, len(rows), len(stage)):  # op's last block is longer than the stage
            part, out = slice(a, a + len(stage)), stage[: len(rows) - a]
            if offset is None:
                np.bitwise_and(rows[part], self.mask, out=out, casting="unsafe")
            else:
                np.subtract(rows[part], offset[part], out=out, casting="unsafe")
                np.bitwise_and(out, self.mask, out=out)
            groups = stage[: -(-len(out) // per) * per].reshape(-1, per, stage.shape[1])
            np.multiply(groups, self.weights, out=groups)
            p = (start + a) // per
            np.bitwise_or.reduce(groups, axis=1, out=self.table.data[p : p + len(groups)])


def as_items(seq: Any) -> tuple:
    """Coerce str/bytes/list/tuple/ndarray into a plain tuple of symbols."""
    if isinstance(seq, tuple):
        return seq
    if isinstance(seq, str):
        return tuple(seq)
    if hasattr(seq, "tolist"):  # numpy array: unbox to python scalars
        if getattr(seq, "ndim", 1) != 1:
            raise ValueError(f"sequences must be one-dimensional, got ndim={seq.ndim}")
        return tuple(seq.tolist())
    return tuple(seq)


# The records are namedtuples: a frozen dataclass costs 0.7-1.3 ms to build
# at every import, which each fresh process pays.  Params and ChunkAlignment
# check their fields in __new__, and _make calls it, so _replace checks too.
class Params(namedtuple("Params", "k mode", defaults=("exact",))):
    """Problem parameters: minimum chunk length ``k`` and matching mode."""

    __slots__ = ()

    def __new__(cls, k, mode="exact"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        check_k(k, mode)
        return super().__new__(cls, k, mode)

    _make = classmethod(lambda cls, fields: cls(*fields))


class ChunkAlignment(namedtuple("ChunkAlignment", "total chunks", defaults=((),))):
    """A chunked alignment: total matched length plus the chunk list.

    Chunks are (x_start, y_start, length) triples, 1-based, in increasing
    position order.
    """

    __slots__ = ()

    def __new__(cls, total, chunks=()):
        return super().__new__(cls, total, tuple(tuple(c) for c in chunks))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def to_json(self) -> dict:
        """JSON form used by the CLI: {"total": N, "chunks": [{"x":..,"y":..,"len":..}]}."""
        return {
            "total": self.total,
            "chunks": [{"x": x, "y": y, "len": ln} for (x, y, ln) in self.chunks],
        }


class DpState(namedtuple("DpState", "k length scores x_ids y_ids xs ys")):
    """Witness state for one (x, y, k) instance, in both modes.

    scores holds C[i, j] modulo 2^bits with the fewest bits that walks
    need, 2^bits > k (see walk_chunks): a zeros_table, so for k < 16 a
    PackedTable of 1, 2 or 4 bits per cell (k = 1, 2..3, 4..15), and
    above a table_dtype(k) grid, uint8 up to k = 255, uint16 up to 65535,
    int32 above.  Walks read it only through score_test, whose equality
    tests the residue decides.  length is the exact C[m, n].  x_ids and
    y_ids are the mode's window ids, which match where a chunk can end,
    1-D in exact mode and 2-D in op mode, so that each walk can refuse the
    other's state; xs and ys are the symbols, which exact.traceback checks.
    """

    __slots__ = ()

    @property
    def lengths(self) -> np.ndarray:
        """The decoded (m+1) x (n+1) int32 score table, for display and tests.
        Column 0 scores 0 and row differences lie in [0, k] (see walk_chunks),
        so the wrapping differences of the residues are the true ones."""
        scores = self.scores
        lengths = np.zeros(scores.shape, dtype=np.int32)
        if isinstance(scores, PackedTable):
            steps = np.diff(scores.unpack(), axis=1) & (1 << scores.bits) - 1
        else:
            steps = np.diff(scores, axis=1)
        np.cumsum(steps, axis=1, dtype=np.int32, out=lengths[:, 1:])
        return lengths


def score_test(scores) -> Callable:
    """equals(i, j, s): whether C[i, j] == s, from the residue of C[i, j]
    modulo 2^bits in ``scores``, a PackedTable or a grid of any dtype,
    which holds 8 * itemsize bits; walk_chunks says when the residue
    decides."""
    if not isinstance(scores, PackedTable):
        mask, item = (1 << 8 * scores.itemsize) - 1, scores.item
        return lambda i, j, s: (item(i, j) - s) & mask == 0
    item, bits, mask = scores.data.item, scores.bits, (1 << scores.bits) - 1
    low, shift = 8 // bits - 1, (8 // bits).bit_length() - 1  # i // per == i >> shift
    if scores.axis == 0:
        return lambda i, j, s: ((item(i >> shift, j) >> (i & low) * bits) - s) & mask == 0
    return lambda i, j, s: ((item(i, j >> shift) >> (j & low) * bits) - s) & mask == 0


def walk_chunks(scores, total: int, k: int, chunk_lengths) -> ChunkAlignment:
    """Back-track one optimal chunk decomposition through a score table.

    ``scores`` holds C modulo 2^bits, packed or in a grid (see score_test;
    an int32 grid can hold C itself), and ``total`` is the exact C[m, n].
    ``chunk_lengths(i, j, score)`` gives the mode's candidate lengths l of a
    valid last chunk ending at (i, j), in its order of preference; the first
    with C[i-l, j-l] + l == score is taken.  Otherwise the walk steps left,
    then up.  The score of the cell it moves to is known, so every read only
    asks whether a cell holds a given score.  Output chunks are 1-based and
    ordered by position.

    The residue decides each such test while k + 1 <= 2^bits, which is how
    zeros_table picks the bits.  Lemma: C[i, j] - C[i-w, j-w] <= w + k - 1
    for every w.  Take an optimal decomposition for (i, j) and keep its
    chunks up to the first that crosses row i-w or column j-w; cut that
    chunk to its prefix that fits, and drop the prefix if it is shorter than
    k.  Both modes allow the cut, since a prefix of an equal or
    order-isomorphic pair is again one.  Outside the dropped prefix, every
    lost pair (x, y) has x > i-w or y > j-w, and a pair with only x > i-w
    cannot coexist with one with only y > j-w, as pairs increase in both
    coordinates; so at most w pairs are lost, plus fewer than k from the
    dropped prefix.  Every read of a walk from a cell of known score s is of
    one of two kinds:

    * a chunk start (i-l, j-l), where a valid chunk of length l ends at
      (i, j): a decomposition for (i-l, j-l) plus that chunk is one for
      (i, j), so with the lemma the true value lies in [s-l-(k-1), s-l];
    * a left or upper neighbour: a decomposition for a shorter prefix is
      one for the longer, and dropping the last pair of an optimal one's
      last chunk, or the whole chunk if it is k long, loses at most k, so
      every row and column difference lies in [0, k] and the true value
      in [s-k, s].

    Either range holds at most k + 1 <= 2^bits values, so their residues
    differ.  exact._longest_chunk reads chunk starts of the first kind.
    """
    m, n = scores.shape[0] - 1, scores.shape[1] - 1
    equals = score_test(scores)
    chunks = []
    i, j, score = m, n, total
    while i >= k and j >= k and score:
        for ln in chunk_lengths(i, j, score):
            if equals(i - ln, j - ln, score - ln):
                chunks.append((i - ln + 1, j - ln + 1, ln))
                i, j, score = i - ln, j - ln, score - ln
                break
        else:
            if equals(i, j - 1, score):
                j -= 1
            elif equals(i - 1, j, score):
                i -= 1
            else:  # unreachable if the table satisfies its recurrence
                raise RuntimeError("inconsistent DP table at (%d, %d)" % (i, j))
    chunks.reverse()
    return ChunkAlignment(total=total, chunks=tuple(chunks))


# ufunc buffer size, in elements, during a sweep.  At numpy's default of
# 8192, op's id comparison took about 3x as long per element on rows of
# 2000 columns as of 4000, and RowStore's int32 -> uint8 cast of 4 rows of
# 2001 took 56 KB more buffer; at 2048 neither, and exact's rows held pace.
_BUFSIZE = 2048
# A request's route and what it needs (Mode.plan)
Plan = namedtuple("Plan", "route k xs ys flip ids r cells", defaults=(None, None))


class Mode(namedtuple("Mode", "name window_ids sweep walk sparse point_dp point_walk", defaults=(None,) * 3)):
    """A matching mode's steps, and the drivers that run them: plan, then
    solve for lengths and witness tables, or align for witnesses.

    window_ids(xs, ys, k) checks the symbols of two tuples and gives ids
    to their windows, equal where a chunk can end; sweep(x_ids, y_ids, k,
    table) returns C[m, n] and, unless ``table`` is None, stores its rows
    there through a RowStore, modulo 2^bits of the table; walk(state, x,
    y, k) reads a DpState back into a ChunkAlignment.  A point route adds
    sparse(x_ids, y_ids): r, the count of chunk-end cells, and the cells if
    few enough, else None; point_dp(cells, k) gives C[m, n] from them and
    point_walk(cells, m, n, k) walk's alignment.
    """

    __slots__ = ()

    def plan(self, x, y, k) -> Plan:
        """The checked k, the symbol tuples, the window ids and the route,
        before any table or score row exists: "empty" if min(m, n) < k,
        "points" if sparse gives cells (in the (x, y) frame), else "rows".
        Both recurrences are symmetric, so the sweep runs over the shorter
        input, x on a tie: flip is m > n, and the ids are then of (y, x)."""
        return self._plan(x, y, k, self.sparse)

    def _plan(self, x, y, k, sparse) -> Plan:
        # a witness table is swept on every route, so its plan passes no sparse
        k = check_k(k, self.name)
        xs, ys = as_items(x), as_items(y)
        flip = len(xs) > len(ys)
        ids = self.window_ids(*((ys, xs) if flip else (xs, ys)), k)
        if min(len(xs), len(ys)) < k:
            return Plan("empty", k, xs, ys, flip, ids)
        r, cells = sparse(*(ids[::-1] if flip else ids)) if sparse else (None, None)
        return Plan("rows" if cells is None else "points", k, xs, ys, flip, ids, r, cells)

    def solve(self, x, y, k, witness: bool = False):
        """C[m, n] by the plan's route, keeping no table; with ``witness`` the
        DpState walk reads, its table swept (the transpose if m > n)."""
        if witness:
            return self._state(self._plan(x, y, k, None))
        plan = self.plan(x, y, k)
        if plan.route == "points":
            return self.point_dp(plan.cells, plan.k)
        return self._sweep(plan.ids, plan.k) if plan.route == "rows" else 0

    def align(self, x, y, k) -> ChunkAlignment:
        """walk's alignment: from the cells alone on the points route, with
        no (m+1) x (n+1) table, and with none at all when no chunk fits."""
        plan = self.plan(x, y, k)
        if plan.route == "points":
            return self.point_walk(plan.cells, len(plan.xs), len(plan.ys), plan.k)
        if plan.route == "empty":
            return ChunkAlignment(0)
        return self.walk(self._state(plan), plan.xs, plan.ys, plan.k)

    def _state(self, plan: Plan) -> DpState:
        k, xs, ys, flip, ids = plan.k, plan.xs, plan.ys, plan.flip, plan.ids
        table = zeros_table(len(xs) + 1, len(ys) + 1, k)  # rows < k score 0
        length = self._sweep(ids, k, table.T if flip else table) if plan.route != "empty" else 0
        return DpState(k, length, table, *(ids[::-1] if flip else ids), xs, ys)

    def _sweep(self, ids, k, table=None) -> int:
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            return self.sweep(*ids, k, table)
        finally:
            np.setbufsize(bufsize)


def validate_alignment(x, y, params: Params, alignment: ChunkAlignment) -> bool:
    """Check an alignment against Definition 1 / its op analogue.

    Structural rules: every chunk has length >= k, chunks lie inside both
    sequences, consecutive chunks are strictly increasing and non-overlapping
    in both coordinates, and lengths sum to ``total``.  Content rules: exact
    mode needs equal substrings, op mode order-isomorphic ones.
    """
    xs, ys = as_items(x), as_items(y)
    m, n = len(xs), len(ys)
    total = 0
    prev_x_end, prev_y_end = 0, 0
    for chunk in alignment.chunks:
        if len(chunk) != 3:
            return False
        cx, cy, ln = chunk
        if ln < params.k:
            return False
        if cx <= prev_x_end or cy <= prev_y_end:
            return False
        if cx + ln - 1 > m or cy + ln - 1 > n:
            return False
        xsub = xs[cx - 1 : cx - 1 + ln]
        ysub = ys[cy - 1 : cy - 1 + ln]
        if params.mode == "exact":
            if xsub != ysub:
                return False
        else:
            from .order_iso import order_isomorphic  # local import, avoids a cycle

            if not order_isomorphic(xsub, ysub):
                return False
        total += ln
        prev_x_end = cx + ln - 1
        prev_y_end = cy + ln - 1
    return total == alignment.total
