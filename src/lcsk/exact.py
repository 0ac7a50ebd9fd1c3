"""Exact-matching chunked LCS (LCS_{k+}).

Quadratic DP over two quantities:

* ``lengths[i, j]``    -- the LCS_{k+} value for the prefixes x(1:i), y(1:j);
* ``chunk_max[i, j]``  -- best total ending with a chunk that finishes at
  (i, j), or -1 when no chunk of length >= k can end there.

Rows only depend on rows i-1 and i-k of lengths and row i-1 of chunk_max,
so one numpy row loop, _sweep, runs on a ring of k+1 score rows and two
chunk_max rows for both entry points, which MODE.solve (see core.Mode)
drives with its rows over the shorter sequence.

The length path has two routes, and the count r of chunk-end cells, where
the length-k windows match, picks one; sorting the window ids gives it.
Below one chunk-end cell in 1/_SPARSE_SHARE window pairs,
_point_dp computes the LCSk++ recurrence over those cells alone, in
O((m + n) log n + r log min(m, n)) Python steps and O(m + n) memory plus
the cells of k+1 rows.  Otherwise the row loop runs in O(mn) time and keeps its
rings alone, over the longer sequence: O(k * (m + n)) ints with the window
ids.  Witnesses always take the row loop and its table: compute_tables has
_sweep store each finished score row modulo 2^bits in
core.table_dtype(k), one byte per cell for k <= 255 (see core.DpState).
traceback only tests whether a cell holds a given score, which the
residue decides (core.walk_chunks), and never builds the int32 table.
chunk_max_table builds the full chunk_max grid from its definition, out
of the score table and match_run_table, for display and tests.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

import numpy as np

from .core import ChunkAlignment, DpState, Mode, as_items, codes, score_test, walk_chunks

# The length path's row loop costs about 5 ns per cell, and _point_dp
# about 1 us per chunk-end cell (2-core x86-64 VM, CPython 3.11, numpy
# 2.4), so _sweep takes the point DP when fewer than one window pair in
# 200 is a chunk-end cell.
_SPARSE_SHARE = 1 / 200


DpTables = DpState  # the witness state, with the ids of _window_ids


def match_run_table(x, y) -> np.ndarray:
    """Longest-common-suffix-run table: run[i, j] = lcs-run of x(1:i) vs y(1:j)."""
    xs, ys = as_items(x), as_items(y)
    m, n = len(xs), len(ys)
    xa, ya = np.split(codes(xs + ys, "exact"), [m])
    run = np.zeros((m + 1, n + 1), dtype=np.int32)
    for i in range(1, m + 1):
        eq = ya == xa[i - 1]
        run[i, 1:] = (run[i - 1, :-1] + 1) * eq
    return run


def compute_tables(x, y, k: int) -> DpTables:
    """The score table modulo 2^bits, O(mn) bytes; feed the result to
    traceback().

    _sweep, the row loop of the length path, fills the rows over the
    shorter input and stores each row as it finishes.  Beside the table
    _sweep holds k+1 int32 score rows, 4(k+1)(max(m, n)+1) bytes: about
    4(k+1)/(min(m, n)+1) B/cell more than a uint8 table, so the ring, not
    the table, sets the peak once k is a sizeable part of min(m, n).
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
    x_ids[t] and y_ids[t] are the ids of the windows that start at x_{t+1}
    and y_{t+1}, so a chunk can end at (i, j) iff x_ids[i-k] == y_ids[j-k].
    Both are empty when min(m, n) < k.

    core.codes gives the symbols codes below s, so each extra symbol
    multiplies the id range by s; ids are re-ranked with np.unique before
    they could overflow int64.
    """
    xa, ya = np.split(codes(xs + ys, "exact"), [len(xs)])
    if min(len(xa), len(ya)) < k:
        return xa[:0], ya[:0]
    s = int(max(xa.max(), ya.max())) + 1
    gx, gy = xa, ya
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


def _chunk_end_count(xg: np.ndarray, yg: np.ndarray) -> int:
    """r, the number of window pairs with equal ids: the chunk-end cells.
    Sorted keys make searchsorted about three times as fast."""
    x_sorted, y_sorted = np.sort(xg), np.sort(yg)
    right, left = (np.searchsorted(y_sorted, x_sorted, side).sum() for side in ("right", "left"))
    return int(right - left)


def _point_dp(xg: np.ndarray, yg: np.ndarray, k: int) -> int:
    """C[m, n] from the r chunk-end cells alone, where the length-k windows
    match: the LCSk++ recurrence of Pavetic, Zuzic and Sikic (arXiv:1407.2407).

    Rows run over the x windows.  A stable argsort of the y ids and two
    searchsorted calls, on the x ids in sorted order as in
    _chunk_end_count, give row t its cells, the columns order[a:b] in
    ascending order.  At cell (t, u) in window coordinates,

        F(t, u) = max(k + C(t-k, u-k), F(t-1, u-1) + 1),

    the chunk_max of _sweep, where the second term counts only if (t-1, u-1)
    is a chunk-end cell too, and C(t', u') is the prefix maximum of F over
    the cells up to row t' and column u'.  A row's cells settle into a
    staircase of (column, C) steps, both ascending, k rows after they are
    found, so each query is one bisect.  Memory: O(m + n) for the order,
    the cells of the last k+1 rows and the staircase, at most min(m, n) + 1
    steps.  Time: O((m + n) log n + r log min(m, n)) Python steps, plus a
    list move of at most min(m, n) + 1 entries when a cell changes the
    staircase; about 1 us per chunk-end cell.
    """
    order, x_order = np.argsort(yg, kind="stable"), np.argsort(xg)
    sorted_ids, x_sorted = yg[order], xg[x_order]
    starts, ends = np.empty_like(x_order), np.empty_like(x_order)
    starts[x_order] = np.searchsorted(sorted_ids, x_sorted, "left")
    ends[x_order] = np.searchsorted(sorted_ids, x_sorted, "right")
    del sorted_ids, x_order, x_sorted
    rows = np.flatnonzero(ends > starts)
    cols = memoryview(order)  # yields Python ints, 8 bytes each until then
    steps, best = [-k], [0]  # C(t', u') = best[bisect_right(steps, u') - 1], 0 for u' < 0
    pending = deque()  # (t, {u: F(t, u)}) of the rows not yet settled

    def settle(cells):
        for u, f in cells.items():
            p = bisect_right(steps, u)
            if best[p - 1] < f:
                q = bisect_right(best, f, p)  # the steps that u, f covers
                if steps[p - 1] == u:
                    p -= 1
                steps[p:q], best[p:q] = [u], [f]

    for t, a, b in zip(*map(memoryview, (rows, starts[rows], ends[rows]))):
        diag = pending[-1][1] if pending and pending[-1][0] == t - 1 else {}
        while pending and pending[0][0] <= t - k:
            settle(pending.popleft()[1])
        row = {}
        for u in cols[a:b]:
            f = k + best[bisect_right(steps, u - k) - 1]
            d = diag.get(u - 1, 0)
            row[u] = d + 1 if d >= f else f
        pending.append((t, row))
    for _, row in pending:
        settle(row)
    return best[-1]


def _sweep(xg: np.ndarray, yg: np.ndarray, k: int, table=None) -> int:
    """Fill rows k..m of the score table C over the window ids; return C[m, n].

    Without a table, when the chunk-end cells are fewer than _SPARSE_SHARE
    of the window pairs, _point_dp returns C[m, n] from them alone.  Their
    count r comes from sorted copies of the ids, freed before the rings are
    allocated, so it does not raise the row loop's peak.

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
    is O(n) work of any weight.  When ``table`` is given, each finished
    row goes to table[i] without its offset, modulo 2^bits of its dtype.
    """
    if table is None and _chunk_end_count(xg, yg) < _SPARSE_SHARE * len(xg) * len(yg):
        return _point_dp(xg, yg, k)
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
        if table is not None:
            np.subtract(row, m + 1 - k - t, out=table[k + t], casting="unsafe")
    return int(row[-1]) - 1  # row m's offset is 1


def lcs_kplus_length(x, y, k: int) -> int:
    """LCS_{k+} length, from _sweep without a table.  The r chunk-end cells
    pick the route: below one in 1/_SPARSE_SHARE window pairs the point DP,
    O((m + n) log n + r log min(m, n)) Python steps and O(m + n) memory plus
    the cells of k+1 rows; otherwise the row loop, O(mn) time and O(k * (m + n))
    memory, its k+1 ring rows over the longer sequence."""
    return MODE.solve(x, y, k)


def _longest_chunk(equals, i: int, j: int, score: int, run: int, k: int) -> int:
    """The largest l in [k, run] with C[i-l, j-l] + l == score, or 0 if none;
    run >= k is the common-suffix run at (i, j), score is C[i, j] and
    equals(i, j, s) tells whether C[i, j] == s (core.score_test).

    For l >= 2k, l qualifies at (i, j) iff k qualifies there and l - k
    qualifies at (i-k, j-k).  The chunks of lengths k and l - k ending at
    (i, j) and (i-k, j-k) are common substrings, so C[i, j] >= C[i-k, j-k]
    + k and C[i-k, j-k] >= C[i-l, j-l] + l - k; their sum is an equality iff
    both are.  So after trying the whole run, the search steps down the
    diagonal by k while k qualifies and tries lengths below 2k at each step.
    Each read is the start of a common substring ending at a cell whose
    score is known, which the residue decides (core.walk_chunks).
    """
    if equals(i - run, j - run, score - run):
        return run
    best = shift = 0
    while True:
        top = min(run, 2 * k - 1)
        short = next((ln for ln in range(top, k - 1, -1) if equals(i - ln, j - ln, score - ln)), 0)
        if not short:
            return best
        best = shift + short
        if run < 2 * k or (short > k and not equals(i - k, j - k, score - k)):
            return best
        i, j, run, score, shift = i - k, j - k, run - k, score - k, shift + k


def traceback(tables: DpTables, x, y, k: int) -> ChunkAlignment:
    """Recover one optimal chunk decomposition from compute_tables(x, y, k).

    Deterministic tie policy: take the largest chunk length, at most the
    common-suffix run at (i, j), that reproduces the score; otherwise step
    left before up.  A cell whose length-k windows differ has no chunk and
    costs O(1); elsewhere the run is counted on window ids.  Each read
    tests a residue (core.walk_chunks), so the int32 table is never built.
    """
    m, n = len(as_items(x)), len(as_items(y))
    if tables.k != k or tables.scores.shape != (m + 1, n + 1):
        raise ValueError("tables were computed for other inputs or another k")
    xg, yg = tables.x_ids.tolist(), tables.y_ids.tolist()
    equals = score_test(tables.scores)

    def chunk_lengths(i, j, score):
        t, u = i - k, j - k  # starts of the length-k windows ending at (i, j)
        if xg[t] != yg[u]:
            return ()
        while t and u and xg[t - 1] == yg[u - 1]:
            t, u = t - 1, u - 1
        longest = _longest_chunk(equals, i, j, score, i - t, k)
        return (longest,) if longest else ()

    return walk_chunks(tables.scores, tables.length, k, chunk_lengths)


MODE = Mode("exact", _window_ids, _sweep, walk=traceback)
