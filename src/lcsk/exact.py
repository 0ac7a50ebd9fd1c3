"""Exact-matching chunked LCS (LCS_{k+}).

Quadratic DP over two quantities:

* ``lengths[i, j]``    -- the LCS_{k+} value for the prefixes x(1:i), y(1:j);
* ``chunk_max[i, j]``  -- best total ending with a chunk that finishes at
  (i, j), or -1 when no chunk of length >= k can end there.

Rows only depend on rows i-1 and i-k of lengths and row i-1 of chunk_max.
One numpy row kernel fills them for every entry point: the length path
keeps a (k+1)-row ring over the shorter sequence, O(k * min(m, n)) ints;
compute_tables keeps every score row but only two chunk_max rows, since
the traceback needs the scores alone (4 bytes per cell).  chunk_max_table
keeps every chunk_max row, for display and tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ChunkAlignment, as_items, check_k, has_nan, walk_chunks


def _encode(xs: tuple, ys: tuple):
    """Map symbols of both sequences onto small ints for fast numpy equality.

    NaN, bare or inside a tuple, is rejected: a dict matches one shared NaN
    object by identity but not two distinct ones, so the answer would
    depend on object identity.  Only the distinct symbols are checked.
    """
    codes: dict = {}
    try:
        encoded = tuple(
            np.array([codes.setdefault(v, len(codes)) for v in seq], dtype=np.int32)
            for seq in (xs, ys)
        )
    except TypeError as exc:  # e.g. list symbols
        raise TypeError(f"exact mode needs hashable symbols: {exc}") from None
    if has_nan(codes):
        raise ValueError("exact mode needs symbols equal to themselves; got NaN")
    return encoded


@dataclass(frozen=True)
class DpTables:
    """Witness state for one (x, y, k) instance: the (m+1) x (n+1) int32
    score table ``lengths``."""

    lengths: np.ndarray


def match_run_table(x, y) -> np.ndarray:
    """Longest-common-suffix-run table: run[i, j] = lcs-run of x(1:i) vs y(1:j)."""
    xs, ys = as_items(x), as_items(y)
    m, n = len(xs), len(ys)
    xa, ya = _encode(xs, ys)
    run = np.zeros((m + 1, n + 1), dtype=np.int32)
    for i in range(1, m + 1):
        eq = ya == xa[i - 1]
        run[i, 1:] = (run[i - 1, :-1] + 1) * eq
    return run


def _full_rows(x, y, k: int, chunk_rows):
    """Every score row plus a ring of chunk rows (None: every row), as the
    row kernel leaves them; returns (lengths, offset chunk rows, row offset).

    The row offset is removed from lengths in place, so no (m+1) x (n+1)
    temporary is made.
    """
    k = check_k(k)
    xa, ya = _encode(as_items(x), as_items(y))
    m, n = len(xa), len(ya)
    offset = (m + 1 - np.arange(m + 1, dtype=np.int32))[:, None]
    lengths = np.full((m + 1, n + 1), offset, dtype=np.int32)  # score 0 in every row
    chunk = np.zeros((chunk_rows or m + 1, n + 1), dtype=np.int32)  # 0: no chunk ends here
    if min(m, n) >= k:
        rows = (_row_views(lengths, chunk, k, i) for i in range(k, m + 1))
        _sweep_rows(*_window_ids(xa, ya, k), k, rows)
    lengths -= offset
    return lengths, chunk, offset


def compute_tables(x, y, k: int) -> DpTables:
    """The score table, O(mn) space; feed the result to traceback().

    The row kernel needs chunk_max of row i-1 only, so two chunk rows do.
    """
    return DpTables(lengths=_full_rows(x, y, k, 2)[0])


def chunk_max_table(x, y, k: int) -> np.ndarray:
    """The (m+1) x (n+1) chunk_max table: the best total ending with a chunk
    that finishes at (i, j), or -1 where no chunk of length >= k can end."""
    _, chunk_max, offset = _full_rows(x, y, k, None)
    chunk_max -= offset
    return np.maximum(chunk_max, -1, out=chunk_max)


def _window_ids(xa: np.ndarray, ya: np.ndarray, k: int):
    """Ids of the length-k windows of xa and ya; equal ids iff equal windows.

    Codes are below s, so each extra symbol multiplies the id range by s;
    ids are re-ranked with np.unique before they could overflow int64.
    """
    s = int(max(xa.max(), ya.max())) + 1
    gx, gy = xa.astype(np.int64), ya.astype(np.int64)
    span = s
    for t in range(1, k):
        if span * s >= 1 << 62:
            ids = np.unique(np.concatenate((gx, gy)), return_inverse=True)[1]
            gx, gy = ids[: len(gx)], ids[len(gx) :]
            span = len(ids)
        gx = gx[:-1] * s + xa[t:]
        gy = gy[:-1] * s + ya[t:]
        span *= s
    dtype = np.int32 if span < 1 << 31 else np.int64
    return gx.astype(dtype), gy.astype(dtype)


def _row_views(h: np.ndarray, e: np.ndarray, k: int, i: int) -> tuple:
    """The six views row i's update uses; row r lives at h[r % len(h)], e[r % len(e)]."""
    n = h.shape[1] - 1
    chunk = e[i % len(e)]
    return (h[i % len(h)], h[(i - 1) % len(h)], h[(i - k) % len(h)][: n + 1 - k],
            chunk, chunk[k:], e[(i - 1) % len(e)][k - 1 : n])


def _sweep_rows(xg: np.ndarray, yg: np.ndarray, k: int, rows) -> None:
    """Row kernel of both exact paths; ``rows`` yields _row_views for rows k..m.

    A chunk can end at (i, j) iff the length-k windows ending there are
    equal, so one comparison of window ids replaces the match-run row.
    Row i is stored with offset m + 1 - i: h = lengths + m + 1 - i and
    e = chunk_max + m + 1 - i, e = 0 where no chunk ends (and at the start).
    Along a diagonal the offset drops by one per row, which absorbs the +k
    of lengths[i-k, j-k] + k and the +1 of chunk_max[i-1, j-1] + 1; stored
    values stay positive, so multiplying by the hit mask clears e, and a
    run of exactly k has e[i-1, j-1] = 0, so its +1 term cannot win.  Six
    numpy calls per row on preallocated buffers: the per-row overhead
    matters, as only the running max is O(n) work of any weight.
    """
    one = np.ones(len(yg) + k, dtype=np.int32)
    hit = np.empty(len(yg), dtype=bool)
    for gram, (row, up, cand, chunk, tail, diag) in zip(xg, rows):
        np.equal(yg, gram, out=hit)
        np.maximum(cand, diag, out=tail)
        np.multiply(tail, hit, out=tail)
        np.subtract(up, one, out=row)
        np.maximum(row, chunk, out=row)
        np.maximum.accumulate(row, out=row)


def _length_rows(xa: np.ndarray, ya: np.ndarray, k: int) -> int:
    """Length path: _sweep_rows on rings of k+1 score rows and 2 chunk rows,
    whose views repeat every 2(k+1) rows and are built once."""
    m, n = len(xa), len(ya)
    xg, yg = _window_ids(xa, ya, k)
    h = np.empty((k + 1, n + 1), dtype=np.int32)  # ring of offset score rows
    h[:] = (m + 1 - np.arange(k + 1, dtype=np.int32))[:, None]  # rows 0..k score 0
    e = np.zeros((2, n + 1), dtype=np.int32)  # offset chunk_max, rows i-1 and i
    views = [_row_views(h, e, k, i) for i in range(k, k + 2 * (k + 1))]
    _sweep_rows(xg, yg, k, itertools.cycle(views))
    return int(h[m % (k + 1), n]) - 1  # row m's offset is 1


def _length_cells(xa, ya, k):
    """Pure-Python per-cell reference of _length_rows; the tests compare the two."""
    m, n = xa.shape[0], ya.shape[0]
    if n < k or m < k:
        return 0
    win = np.zeros((k + 1, n + 1), np.int32)
    run_prev = np.zeros(n + 1, np.int32)
    run_cur = np.zeros(n + 1, np.int32)
    chunk_prev = np.full(n + 1, -1, np.int32)
    chunk_cur = np.full(n + 1, -1, np.int32)
    for i in range(1, m + 1):
        xi = xa[i - 1]
        crow = win[i % (k + 1)]
        cprev = win[(i - 1) % (k + 1)]
        ckm = win[(i - k) % (k + 1)]
        allow = i >= k
        best = 0
        for j in range(1, n + 1):
            r = run_prev[j - 1] + 1 if ya[j - 1] == xi else 0
            run_cur[j] = r
            c = -1
            if allow and r >= k:
                c = ckm[j - k] + k
                if r > k:
                    alt = chunk_prev[j - 1] + 1
                    if alt > c:
                        c = alt
            chunk_cur[j] = c
            v = cprev[j]
            if c > v:
                v = c
            if v > best:
                best = v
            crow[j] = best  # running max realizes the left-neighbor term
        run_prev, run_cur = run_cur, run_prev
        chunk_prev, chunk_cur = chunk_cur, chunk_prev
    return int(win[m % (k + 1), n])


def lcs_kplus_length(x, y, k: int) -> int:
    """LCS_{k+} length in O(k * min(m, n)) memory.

    compute_tables' row kernel on a ring of rows; rows run over the longer
    sequence so that they span the shorter one.
    """
    k = check_k(k)
    xs, ys = as_items(x), as_items(y)
    if len(xs) < len(ys):
        xs, ys = ys, xs  # the problem is symmetric; keep rows short
    xa, ya = _encode(xs, ys)
    return _length_rows(xa, ya, k) if len(ys) >= k else 0


def traceback(tables: DpTables, x, y, k: int) -> ChunkAlignment:
    """Recover one optimal chunk decomposition from the score table.

    Deterministic tie policy: take the largest chunk length, at most the
    common-suffix run at (i, j), that reproduces the score; otherwise step
    left before up.  Some length in [k, run] reproduces the score iff
    chunk_max[i, j] attains it, so no chunk_max table is needed.  The run is
    counted at every cell on the path, on the symbol codes the table was
    built from: O((m + n) * min(m, n)) in the worst case.
    """
    xa, ya = (a.tolist() for a in _encode(as_items(x), as_items(y)))

    def chunk_lengths(i, j, score):
        run = 0
        while run < i and run < j and xa[i - 1 - run] == ya[j - 1 - run]:
            run += 1
        return range(run, k - 1, -1)

    return walk_chunks(tables.lengths, k, chunk_lengths)
