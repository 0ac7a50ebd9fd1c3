"""Exact-matching chunked LCS (LCS_{k+}).

Quadratic DP over two quantities:

* ``lengths[i, j]``    -- the LCS_{k+} value for the prefixes x(1:i), y(1:j);
* ``chunk_max[i, j]``  -- best total ending with a chunk that finishes at
  (i, j), or -1 when no chunk of length >= k can end there.

Rows only depend on rows i-1 and i-k of lengths and row i-1 of chunk_max,
so one numpy row kernel runs on a ring of k+1 score rows for every entry
point.  The length path keeps the ring alone, over the shorter sequence:
O(k * min(m, n)) ints.  compute_tables stores each finished score row as
its differences along the row, which lie in [0, k]: one byte per cell for
k <= 255 (see DpTables).  traceback reads scores from the differences as
it walks and never builds the int32 table.  chunk_max_table keeps every
chunk_max row, for display and tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ChunkAlignment, as_items, check_k, has_nan, walk_chunks, zeros_table


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
    """Witness state for one (x, y, k) instance.

    ``diffs`` is the (m+1) x (n+1) score table C stored as row differences,
    diffs[i, j] = C[i, j] - C[i, j-1] and diffs[i, 0] = 0, in the smallest
    dtype that holds k: uint8 up to k = 255 (one byte per cell), uint16 up
    to 65535, int32 above.  A difference lies in [0, k].  It is not negative,
    since a decomposition for y(1:j-1) is one for y(1:j).  It is at most k:
    in an optimal decomposition for (i, j) whose last chunk ends at y_j,
    drop the chunk's last pair if it is longer than k, or the whole chunk
    if it is exactly k long; what is left is a decomposition for (i, j-1)
    that loses at most k.

    ``x_ids[t]`` and ``y_ids[t]`` are the ids of the length-k windows that
    start at x_{t+1} and y_{t+1} (empty when min(m, n) < k): a chunk can
    end at (i, j) iff x_ids[i-k] == y_ids[j-k].
    """

    diffs: np.ndarray
    x_ids: np.ndarray
    y_ids: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        """The decoded (m+1) x (n+1) int32 score table, 4 bytes per cell."""
        return np.cumsum(self.diffs, axis=1, dtype=np.int32)

    @property
    def length(self) -> int:
        return int(self.diffs[-1].sum(dtype=np.int64))


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


def compute_tables(x, y, k: int) -> DpTables:
    """The score table as row differences, O(mn) bytes; feed the result to
    traceback().

    The ring kernel of the length path fills the rows over x, and each row
    is stored as it finishes; its row offset cancels in the difference.
    """
    k = check_k(k)
    xa, ya = _encode(as_items(x), as_items(y))
    m, n = len(xa), len(ya)
    dtype = np.uint8 if k <= 0xFF else np.uint16 if k <= 0xFFFF else np.int32
    diffs = zeros_table(m + 1, n + 1, dtype)  # rows below k and column 0 score 0
    if min(m, n) < k:
        none = np.empty(0, dtype=np.int32)
        return DpTables(diffs, none, none)
    xg, yg = _window_ids(xa, ya, k)
    for i, row in enumerate(_ring_rows(xg, yg, k), start=k):
        np.subtract(row[1:], row[:-1], out=diffs[i, 1:], casting="unsafe")
    return DpTables(diffs, xg, yg)


def chunk_max_table(x, y, k: int) -> np.ndarray:
    """The (m+1) x (n+1) chunk_max table: the best total ending with a chunk
    that finishes at (i, j), or -1 where no chunk of length >= k can end."""
    k = check_k(k)
    xa, ya = _encode(as_items(x), as_items(y))
    m, n = len(xa), len(ya)
    chunk = np.zeros((m + 1, n + 1), dtype=np.int32)  # 0: no chunk ends here
    if min(m, n) >= k:
        for _ in _ring_rows(*_window_ids(xa, ya, k), k, chunk):
            pass
    chunk -= (m + 1 - np.arange(m + 1, dtype=np.int32))[:, None]
    return np.maximum(chunk, -1, out=chunk)


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


def _sweep_rows(xg: np.ndarray, yg: np.ndarray, k: int, rows):
    """Row kernel of every exact path; ``rows`` yields _row_views for rows
    k..m, and row i is yielded as soon as it is finished.

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
        yield row


def _ring_rows(xg: np.ndarray, yg: np.ndarray, k: int, chunk=None):
    """_sweep_rows on a ring of k+1 offset score rows.  ``chunk`` holds one
    offset chunk_max row per row; without it, a ring of two does, and the
    views repeat every 2(k+1) rows, so they are built once."""
    m, n = len(xg) + k - 1, len(yg) + k - 1
    h = np.empty((k + 1, n + 1), dtype=np.int32)
    h[:] = (m + 1 - np.arange(k + 1, dtype=np.int32))[:, None]  # rows 0..k score 0
    if chunk is None:
        chunk = np.zeros((2, n + 1), dtype=np.int32)
        rows = itertools.cycle([_row_views(h, chunk, k, i) for i in range(k, k + 2 * (k + 1))])
    else:
        rows = (_row_views(h, chunk, k, i) for i in range(k, m + 1))
    return _sweep_rows(xg, yg, k, rows)


def _length_rows(xa: np.ndarray, ya: np.ndarray, k: int) -> int:
    """Length path: the ring kernel alone."""
    for row in _ring_rows(*_window_ids(xa, ya, k), k):
        pass
    return int(row[-1]) - 1  # row m's offset is 1


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


class _Scores:
    """Scores C[i, j] read from DpTables.diffs, for a walk that moves up and
    left only.

    at(i, j, score) says where the walk stands: later reads lie in rows <= i.
    Each row from i up to 2k-1 rows above it keeps its last read cell, and
    a read there sums the differences between that cell and the new one, so
    a step left costs one difference.  Any other read is a prefix sum.  No
    row is decoded, and at most 2k cells are kept.
    """

    def __init__(self, diffs: np.ndarray, k: int):
        self.diffs, self.shape, self.reach = diffs, diffs.shape, 2 * k - 1
        self.i = diffs.shape[0] - 1
        self.last: dict = {}  # row -> (column, score) of its last read

    def at(self, i: int, j: int, score: int) -> None:
        if i != self.i:
            for r in range(max(i, self.i - self.reach - 1) + 1, self.i + 1):
                self.last.pop(r, None)
            self.i = i
        self.last[i] = (j, score)

    def __getitem__(self, cell) -> int:
        i, j = cell
        last = self.last.get(i)
        if last is None:
            score = int(np.add.reduce(self.diffs[i, : j + 1]))
        else:
            c, score = last
            if j == c - 1:
                score -= int(self.diffs[i, c])
            elif j < c:
                score -= int(np.add.reduce(self.diffs[i, j + 1 : c + 1]))
            elif j > c:
                score += int(np.add.reduce(self.diffs[i, c + 1 : j + 1]))
        if self.i - self.reach <= i <= self.i:
            self.last[i] = (j, score)
        return score


def _longest_chunk(c: _Scores, i: int, j: int, score: int, run: int, k: int) -> int:
    """The largest l in [k, run] with c[i-l, j-l] + l == score, or 0 if none;
    run >= k is the common-suffix run at (i, j) and score is c[i, j].

    For l >= 2k, l qualifies at (i, j) iff k qualifies there and l - k
    qualifies at (i-k, j-k).  The chunks of lengths k and l - k ending at
    (i, j) and (i-k, j-k) are common substrings, so c[i, j] >= c[i-k, j-k]
    + k and c[i-k, j-k] >= c[i-l, j-l] + l - k; their sum is an equality iff
    both are.  So after trying the whole run, the search steps down the
    diagonal by k while k qualifies and tries lengths below 2k at each step.
    """
    if c[i - run, j - run] + run == score:
        return run
    best = shift = 0
    while True:
        top = min(run, 2 * k - 1)
        short = next((ln for ln in range(top, k - 1, -1) if c[i - ln, j - ln] + ln == score), 0)
        if not short:
            return best
        best = shift + short
        if run < 2 * k or (short > k and c[i - k, j - k] + k != score):
            return best
        i, j, run, score, shift = i - k, j - k, run - k, score - k, shift + k


def traceback(tables: DpTables, x, y, k: int) -> ChunkAlignment:
    """Recover one optimal chunk decomposition from compute_tables(x, y, k).

    Deterministic tie policy: take the largest chunk length, at most the
    common-suffix run at (i, j), that reproduces the score; otherwise step
    left before up.  A cell whose length-k windows differ has no chunk and
    costs O(1); elsewhere the run is counted on window ids.  Scores are
    decoded from the row differences as the walk reaches them (see
    _Scores), so the int32 table is never built.
    """
    m, n = len(as_items(x)), len(as_items(y))
    xg, yg = tables.x_ids.tolist(), tables.y_ids.tolist()
    if tables.diffs.shape != (m + 1, n + 1) or len(xg) != (m - k + 1 if min(m, n) >= k else 0):
        raise ValueError("tables were computed for other inputs or another k")
    scores = _Scores(tables.diffs, k)

    def chunk_lengths(i, j, score):
        scores.at(i, j, score)
        t, u = i - k, j - k  # starts of the length-k windows ending at (i, j)
        if xg[t] != yg[u]:
            return ()
        while t and u and xg[t - 1] == yg[u - 1]:
            t, u = t - 1, u - 1
        longest = _longest_chunk(scores, i, j, score, i - t, k)
        return (longest,) if longest else ()

    return walk_chunks(scores, k, chunk_lengths)
