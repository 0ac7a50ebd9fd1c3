"""Exact-matching chunked LCS (LCS_{k+}).

Quadratic DP over two quantities:

* ``lengths[i, j]``    -- the LCS_{k+} value for the prefixes x(1:i), y(1:j);
* ``chunk_max[i, j]``  -- best total ending with a chunk that finishes at
  (i, j), or -1 when no chunk of length >= k can end there.

Rows only depend on rows i-1 and i-k of lengths and row i-1 of chunk_max,
so one numpy row loop, _sweep, runs on a ring of k+1 score rows and two
chunk_max rows for both entry points, which MODE.solve (see core.Mode)
drives.  The length path keeps the rings alone, over the shorter
sequence: O(k * min(m, n)) ints.  compute_tables has _sweep store each
finished score row as its differences along the row, which lie in
[0, k]: one byte per cell for k <= 255 (see DpTables).  traceback reads
scores from the differences as it walks and never builds the int32
table.  chunk_max_table builds the full chunk_max grid from its
definition, out of the score table and match_run_table, for display and
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChunkAlignment, Mode, as_items, distinct, walk_chunks


def _encode(xs: tuple, ys: tuple):
    """Map symbols of both sequences onto small ints for fast numpy equality.

    NaN, bare or inside a tuple or frozenset, is rejected (core.distinct):
    a dict matches one shared NaN object by identity but not two distinct
    ones, so the answer would depend on object identity.
    """
    codes = {v: c for c, v in enumerate(distinct(xs + ys, "exact"))}
    return tuple(np.array([codes[v] for v in seq], dtype=np.int32) for seq in (xs, ys))


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

    While compute_tables fills it, _sweep also holds k+1 int32 score rows,
    4(k+1)(n+1) bytes: beside a uint8 table of m+1 rows that is about
    4(k+1)/(m+1) B/cell more, so the ring, not the table, sets the peak
    once k is a sizeable part of m: the tracemalloc peak of compute_tables
    and traceback on a 2000 x 2000 DNA pair is 1.03 B/cell at k=3 and 4.2
    at k=1000.

    ``x_ids[t]`` and ``y_ids[t]`` are the ids of the length-k windows that
    start at x_{t+1} and y_{t+1} (empty when min(m, n) < k): a chunk can
    end at (i, j) iff x_ids[i-k] == y_ids[j-k].  ``length`` is C[m, n].
    """

    diffs: np.ndarray
    x_ids: np.ndarray
    y_ids: np.ndarray
    length: int

    @property
    def lengths(self) -> np.ndarray:
        """The decoded (m+1) x (n+1) int32 score table, 4 bytes per cell."""
        return np.cumsum(self.diffs, axis=1, dtype=np.int32)


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

    _sweep, the row loop of the length path, fills the rows over x and
    stores each row's differences as it finishes.
    """
    return MODE.solve(x, y, k, witness=True)


def chunk_max_table(x, y, k: int) -> np.ndarray:
    """The (m+1) x (n+1) chunk_max table, from its definition: the max over
    l in [k, run[i, j]] of C[i-l, j-l] + l, the best total ending with a
    chunk that finishes at (i, j), or -1 where no chunk of length >= k can
    end.  For display and tests: O(mn) per chunk length."""
    c, run = compute_tables(x, y, k).lengths, match_run_table(x, y)
    chunk = np.full(c.shape, -1, dtype=np.int32)
    for ln in range(k, int(run.max()) + 1):
        cand = np.where(run[ln:, ln:] >= ln, c[:-ln, :-ln] + ln, -1)
        np.maximum(chunk[ln:, ln:], cand, out=chunk[ln:, ln:])
    return chunk


def _window_ids(xs: tuple, ys: tuple, k: int):
    """Ids of the length-k windows of xs and ys; equal ids iff equal windows.
    Both are empty when min(m, n) < k.

    Symbols are encoded as codes below s, so each extra symbol multiplies
    the id range by s; ids are re-ranked with np.unique before they could
    overflow int64.
    """
    xa, ya = _encode(xs, ys)
    if min(len(xa), len(ya)) < k:
        return xa[:0], ya[:0]
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


def _sweep(xg: np.ndarray, yg: np.ndarray, k: int, diffs=None) -> int:
    """Fill rows k..m of the score table C over the window ids; return C[m, n].

    Row i is kept with offset m + 1 - i, in a ring of k+1 score rows
    h = C + m + 1 - i, beside a ring of two chunk rows e = chunk_max +
    m + 1 - i, or 0 where no chunk ends (and at the start).  A chunk
    can end at (i, j) iff the length-k windows ending there are equal, so
    one comparison of window ids replaces the match-run row.  Along a
    diagonal the offset drops by one per row, which absorbs the +k of
    C[i-k, j-k] + k and the +1 of chunk_max[i-1, j-1] + 1; stored values
    stay positive, so multiplying by the hit mask clears e, and a run of
    exactly k has e[i-1, j-1] = 0, so its +1 term cannot win.  The row
    views repeat every 2(k+1) rows and are built once.  Six numpy calls
    per row on them: the per-row overhead matters, as only the running max
    is O(n) work of any weight.  When ``diffs`` is given, each finished
    row's differences go to diffs[i, 1:]; the offset cancels in them.
    """
    m, n = len(xg) + k - 1, len(yg) + k - 1
    h = np.empty((k + 1, n + 1), dtype=np.int32)
    h[:] = (m + 1 - np.arange(k + 1, dtype=np.int32))[:, None]  # rows 0..k score 0
    e = np.zeros((2, n + 1), dtype=np.int32)
    views = []
    for i in range(k, min(m + 1, k + 2 * (k + 1))):
        chunk = e[i % 2]
        views.append((h[i % (k + 1)], h[(i - 1) % (k + 1)], h[(i - k) % (k + 1)][: n + 1 - k],
                      chunk, chunk[k:], e[(i - 1) % 2][k - 1 : n]))
    one = np.ones(n + 1, dtype=np.int32)
    hit = np.empty(len(yg), dtype=bool)
    for t, gram in enumerate(xg):
        row, up, cand, chunk, tail, diag = views[t % len(views)]
        np.equal(yg, gram, out=hit)
        np.maximum(cand, diag, out=tail)
        np.multiply(tail, hit, out=tail)
        np.subtract(up, one, out=row)
        np.maximum(row, chunk, out=row)
        np.maximum.accumulate(row, out=row)
        if diffs is not None:
            np.subtract(row[1:], row[:-1], out=diffs[k + t, 1:], casting="unsafe")
    return int(row[-1]) - 1  # row m's offset is 1


def lcs_kplus_length(x, y, k: int) -> int:
    """LCS_{k+} length in O(k * min(m, n)) memory.

    _sweep without a table; rows run over the longer sequence so that they
    span the shorter one.
    """
    return MODE.solve(x, y, k)


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


MODE = Mode("exact", _window_ids, _sweep, table_bound=lambda k: k,
            state=lambda k, length, diffs, x_ids, y_ids: DpTables(diffs, x_ids, y_ids, length),
            walk=traceback, rows_over_longer=True)
