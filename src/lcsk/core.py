"""Shared data types for the chunked-LCS algorithms.

A *chunk alignment* decomposes a common subsequence into consecutive
substring pairs ("chunks"), each at least ``k`` long.  In exact mode the
paired substrings must be equal; in order-preserving (op) mode they must
be order-isomorphic.

Both modes solve one recurrence that differs only in the chunk test: a
Mode record holds each mode's steps, and Mode.solve drives every entry
point.  Both chunk tests see the symbols only through codes, the one
check of which symbols a mode accepts, after as_items coerces the inputs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
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
    in op mode they are dense ranks, ordered as the values.  The one check
    of which symbols each mode accepts.

    Values that are all of type int and fit in int64 are ranked by one
    np.unique: ints need no NaN or order check.  Others must be hashable
    and free of NaN, bare or at any depth inside tuple and frozenset
    values (see has_nan); exact mode codes them in first-seen order.  Op
    mode sorts the distinct values, and each must then be below the next:
    a partial order such as subset order on frozensets sorts, but its
    ranks would not give order types.
    """
    if set(map(type, values)) == {int}:  # not bool, not an int subclass
        try:
            return np.unique(np.array(values, dtype=np.int64), return_inverse=True)[1]
        except OverflowError:  # beyond int64
            pass
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


def zeros_table(rows: int, cols: int, dtype) -> np.ndarray:
    """A zeroed rows x cols score table, in column order if rows > cols, so
    that the rows of its transpose, which Mode.solve sweeps, are contiguous;
    if it cannot be allocated, the MemoryError names its size and bytes."""
    try:
        return np.zeros((rows, cols), dtype=dtype, order="F" if rows > cols else "C")
    except MemoryError:
        dtype = np.dtype(dtype)
        raise MemoryError(f"cannot allocate the {rows} x {cols} score table: "
                          f"{rows * cols * dtype.itemsize} bytes of {dtype}") from None


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


@dataclass(frozen=True)
class Params:
    """Problem parameters: minimum chunk length ``k`` and matching mode."""

    k: int
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_k(self.k, self.mode)


@dataclass(frozen=True)
class ChunkAlignment:
    """A chunked alignment: total matched length plus the chunk list.

    Chunks are (x_start, y_start, length) triples, 1-based, in increasing
    position order.
    """

    total: int
    chunks: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "chunks", tuple(tuple(c) for c in self.chunks))

    def to_json(self) -> dict:
        """JSON form used by the CLI: {"total": N, "chunks": [{"x":..,"y":..,"len":..}]}."""
        return {
            "total": self.total,
            "chunks": [{"x": x, "y": y, "len": ln} for (x, y, ln) in self.chunks],
        }


@dataclass(frozen=True)
class DpState:
    """Witness state for one (x, y, k) instance, in both modes.

    scores[i, j] is C[i, j] modulo 2^bits, in table_dtype(k): uint8 up to
    k = 255 (one byte per cell), uint16 up to 65535, int32 above.  Walks
    read it only through score_test, whose equality tests the residue
    decides (see walk_chunks).  length is the exact C[m, n].  x_ids and
    y_ids are the mode's window ids, which match where a chunk can end.
    """

    k: int
    length: int
    scores: np.ndarray  # (m+1) x (n+1), C modulo 2^bits
    x_ids: np.ndarray
    y_ids: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        """The decoded (m+1) x (n+1) int32 score table, for display and tests.
        Column 0 scores 0 and row differences lie in [0, k] (see walk_chunks),
        so the wrapping differences of the residues are the true ones."""
        lengths = np.zeros(self.scores.shape, dtype=np.int32)
        np.cumsum(np.diff(self.scores, axis=1), axis=1, dtype=np.int32, out=lengths[:, 1:])
        return lengths


def score_test(scores: np.ndarray) -> Callable:
    """equals(i, j, s): whether C[i, j] == s, from scores[i, j] = C[i, j]
    modulo 2^bits of its dtype; walk_chunks says when the residue decides."""
    mask, item = (1 << 8 * scores.itemsize) - 1, scores.item
    return lambda i, j, s: (item(i, j) - s) & mask == 0


def walk_chunks(scores: np.ndarray, total: int, k: int, chunk_lengths) -> ChunkAlignment:
    """Back-track one optimal chunk decomposition through a score table.

    ``scores`` holds C modulo 2^bits of its dtype (C itself for an int32
    grid), and ``total`` is the exact C[m, n].  ``chunk_lengths(i, j,
    score)`` gives the mode's candidate lengths l of a valid last chunk
    ending at (i, j), in its order of preference; the first with
    C[i-l, j-l] + l == score is taken.  Otherwise the walk steps left,
    then up.  The score of the cell it moves to is known, so every read
    only asks whether a cell holds a given score.  Output chunks are
    1-based and ordered by position.

    The residue decides each such test while k < 2^bits.  Lemma: C[i, j]
    - C[i-w, j-w] <= w + k - 1 for every w.  Take an optimal decomposition
    for (i, j) and keep its chunks up to the first that crosses row i-w or
    column j-w; cut that chunk to its prefix that fits, and drop the
    prefix if it is shorter than k.  Both modes allow the cut, since a
    prefix of an equal or order-isomorphic pair is again one.  Outside the
    dropped prefix, every lost pair (x, y) has x > i-w or y > j-w, and a
    pair with only x > i-w cannot coexist with one with only y > j-w, as
    pairs increase in both coordinates; so at most w pairs are lost, plus
    fewer than k from the dropped prefix.  Every read of a walk from a cell
    of known score s is of one of two kinds:

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


@dataclass(frozen=True)
class Mode:
    """A matching mode's steps, and solve, the one driver that runs them.

    window_ids(xs, ys, k) checks the symbols of two tuples and gives ids
    to their windows, equal where a chunk can end; sweep(x_ids, y_ids, k,
    table) returns C[m, n] and fills ``table`` with C modulo 2^bits of
    its dtype, unless it is None; walk(state, x, y, k) reads a DpState
    back into a ChunkAlignment.
    """

    name: str
    window_ids: Callable
    sweep: Callable
    walk: Callable

    def solve(self, x, y, k, witness: bool = False):
        """C[m, n], or with ``witness`` the DpState walk reads; the length
        path keeps no table.  Both recurrences are symmetric, so the rows
        run over the shorter input, over x when m == n: for m > n the sweep
        solves (y, x) into the transpose of the table, and the ids are
        swapped back."""
        k = check_k(k, self.name)
        xs, ys = as_items(x), as_items(y)
        m, n = len(xs), len(ys)
        flip = m > n
        ids = self.window_ids(*((ys, xs) if flip else (xs, ys)), k)
        table = zeros_table(m + 1, n + 1, table_dtype(k)) if witness else None  # rows < k score 0
        length = self.sweep(*ids, k, table.T if flip and witness else table) if min(m, n) >= k else 0
        x_ids, y_ids = ids[::-1] if flip else ids
        return DpState(k, length, table, x_ids, y_ids) if witness else length


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
