"""Exact-matching chunked LCS (LCS_{k+}).

Quadratic DP over two quantities:

* ``lengths[i, j]``    -- the LCS_{k+} value for the prefixes x(1:i), y(1:j);
* ``chunk_max[i, j]``  -- best total ending with a chunk that finishes at
  (i, j), or -1 when no chunk of length >= k can end there.

Rows only depend on rows i-1 and i-k of lengths and row i-1 of chunk_max,
so one numpy row loop, _sweep, runs on a ring of k+1 score rows and two
chunk_max rows for both entry points, with its rows over the shorter
sequence (see core.Mode).

MODE.plan picks each request's route from the count r of chunk-end
cells, where the length-k windows match; one sort of each side's window
ids gives it, and the cells too (_sparse).  Below one in 1/_SPARSE_SHARE
window pairs, the points route: _point_dp computes the LCSk++ recurrence
over those cells alone, in O((m + n) log n + r log min(m, n)) Python
steps and O(m + n) memory plus the cells of k+1 rows; for a witness,
_point_walk keeps the score of every cell and walks them in O(m + n + r)
memory, to traceback's chunks.  Otherwise the rows route runs the row
loop in O(mn) time.  For a length it keeps its rings alone, over the
longer sequence: O(k * (m + n)) ints with the window ids.  For a witness
_sweep stores each finished score row modulo 2^bits, with 2^bits > k:
packed 1, 2 or 4 bits to a cell for k < 16, a quarter byte at k = 2 or
3, and a byte per cell up to k = 255 (see core.DpState); compute_tables
always takes this table, on either route.  traceback
only tests whether a cell holds a given score, which the residue decides
(core.walk_chunks), and never builds the int32 table.  chunk_max_table
builds the full chunk_max grid from its definition, out of the score
table and match_run_table, for display and tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np

from .core import ChunkAlignment, DpState, Mode, RowStore, as_items, codes, score_test, table_dtype, walk_chunks

# The length path's row loop costs about 5 ns per cell, and _point_dp
# about 1 us per chunk-end cell (2-core x86-64 VM, CPython 3.11, numpy
# 2.4), so both paths take the point route when fewer than one window pair
# in 200 is a chunk-end cell.  A witness costs more on both routes; on
# uniform pairs of 2000 x 2000, 1000 x 4000 and 300 x 3000 the point
# witness took 1.14-1.71x the table's time at r = mn/100, 0.71-0.88x at
# mn/200 and 0.41-0.47x at mn/400, so the one share serves both.
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
    traceback().  It is built on either route: MODE.align gives the same
    alignment without it on the points route (see _point_walk).

    _sweep, the row loop of the length path, fills the rows over the
    shorter input and stores each row as it finishes, through a stage of
    at most 32 uint8 rows for a packed table (core.RowStore).  The table
    takes bits/8 B/cell: 0.125 at k = 1, 0.25 at k = 2..3, 0.5 at k =
    4..15, then 1 up to k = 255.  Beside it _sweep holds k+1 int32 score
    rows, 4(k+1)(max(m, n)+1) bytes: about 4(k+1)/(min(m, n)+1) B/cell
    more, so the ring, not the table, sets the peak once k is a sizeable
    part of min(m, n), which for a 2-bit table is k + 1 near min(m, n)/16.
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
    they could overflow int64, and once more at the end if they do not fit
    in int32, which _id_runs needs.
    """
    xa, ya = np.split(codes(xs + ys, "exact"), [len(xs)])
    if min(len(xa), len(ya)) < k:
        return xa[:0], ya[:0]
    def rerank(gx, gy):
        ids = np.unique(np.concatenate((gx, gy)), return_inverse=True)[1]
        return ids[: len(gx)], ids[len(gx) :]

    s = int(max(xa.max(), ya.max())) + 1
    gx, gy = xa, ya
    span = s
    for t in range(1, k):
        if span * s >= 1 << 62:
            gx, gy = rerank(gx, gy)
            span = len(gx) + len(gy)
        gx = gx[:-1] * s + xa[t:]
        gy = gy[:-1] * s + ya[t:]
        span *= s
    if span >= 1 << 31:
        gx, gy = rerank(gx, gy)
    return gx.astype(np.int32), gy.astype(np.int32)


def _id_runs(g: np.ndarray):
    """g's window ids sorted once, as the positions in id order, ties in
    position order, and the distinct ids with the bounds of their runs in
    it.  The sort is of keys id * 2^32 + position, which fit in int64 as
    _window_ids keeps the ids in int32; a plain sort of them is about five
    times as fast as a stable argsort of the ids."""
    keys = g.astype(np.int64)
    keys <<= 32
    keys |= np.arange(len(g))
    keys.sort()
    ids = keys >> 32
    keys &= 0xFFFFFFFF
    heads = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    bounds = np.concatenate(([0], heads, [len(g)]))
    return keys, ids[bounds[:-1]], bounds


def _sparse(xg: np.ndarray, yg: np.ndarray):
    """r, the number of chunk-end cells, where the x and y window ids are
    equal; and the cells row by row, as _point_dp takes them, if they are
    fewer than _SPARSE_SHARE of the window pairs, so that the point DP
    beats the row loop, else None.  Row rows[q] of the x windows meets the
    columns order[starts[q]:ends[q]], in ascending order.  One _id_runs
    per side and a searchsorted of distinct ids give each distinct x id
    its count of x windows and the start and width of its run in the y
    positions sorted by id (width 0 if no y window has it): O((m + n)
    log(m + n)) time and O(m + n) memory; the row loop pays only for r."""
    x_order, x_ids, x_bounds = _id_runs(xg)
    order, y_ids, y_bounds = _id_runs(yg)
    at = np.minimum(np.searchsorted(y_ids, x_ids), len(y_ids) - 1)
    counts, run_starts = np.diff(x_bounds), y_bounds[at]
    widths = (y_bounds[at + 1] - run_starts) * (y_ids[at] == x_ids)
    r = int(counts @ widths)
    if r >= _SPARSE_SHARE * len(xg) * len(yg):
        return r, None
    starts, ends = np.empty_like(x_order), np.empty_like(x_order)
    starts[x_order] = np.repeat(run_starts, counts)
    ends[x_order] = np.repeat(widths, counts)
    ends += starts
    rows = np.flatnonzero(ends > starts)
    return r, (rows, starts[rows], ends[rows], order)


def _point_dp(cells, k: int, scores=None) -> int:
    """C[m, n] from the r chunk-end cells alone, where the length-k windows
    match: the LCSk++ recurrence of Pavetic, Zuzic and Sikic (arXiv:1407.2407).

    Rows run over the x windows, and _sparse gives each row its cells.
    At cell (t, u) in window coordinates,

        F(t, u) = max(k + C(t-k, u-k), F(t-1, u-1) + 1),

    the chunk_max of _sweep, where the second term counts only if (t-1, u-1)
    is a chunk-end cell too, and C(t', u') is the prefix maximum of F over
    the cells up to row t' and column u'.  A row's cells settle into a
    staircase of (column, C) steps, both ascending, k rows after they are
    found, so each query is one bisect.  ``scores``, an array('q') if
    given, receives F of every cell in row-major order, for _point_walk.
    Memory: O(m + n) for the cells, those of the last k+1 rows and the
    staircase, at most min(m, n) + 1 steps.  Time: O((m + n) log n + r log
    min(m, n)) Python steps, plus a list move of at most min(m, n) + 1
    entries when a cell changes the staircase; about 1 us per chunk-end cell.
    """
    rows, starts, ends, order = cells
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

    for t, a, b in zip(*map(memoryview, (rows, starts, ends))):
        diag = pending[-1][1] if pending and pending[-1][0] == t - 1 else {}
        while pending and pending[0][0] <= t - k:
            settle(pending.popleft()[1])
        row = {}
        for u in cols[a:b]:
            f = k + best[bisect_right(steps, u - k) - 1]
            d = diag.get(u - 1, 0)
            row[u] = d + 1 if d >= f else f
        pending.append((t, row))
        if scores is not None:
            scores.extend(row.values())
    for _, row in pending:
        settle(row)
    return best[-1]


def _point_walk(cells, m: int, n: int, k: int) -> ChunkAlignment:
    """traceback's alignment of an m x n pair from the chunk-end cells of
    MODE.plan's points route alone, in O(m + n + r) memory; the cells are
    in the (x, y) frame, so that left before up means what it does there.

    _point_dp keeps F of every cell.  C(t, u) is the largest F over the
    cells up to row t and column u, and F <= C at every cell, so the table
    walk from (t, u) at score s = C(t, u) goes left along row t while C
    stays s, down to jl, the leftmost column of a cell with F == s in rows
    <= t (every cell with F > s there lies right of u).  It takes a chunk
    at the first cell with F == s it meets: the rightmost such cell of row
    t up to column u, or else, climbing column jl, the nearest such cell
    above.  The cells sorted by F, then row, then column answer both with
    bisects in the group of s, and s falls at every chunk, so the walk
    reads each group at most once: O(r) steps in all, besides the sorts.

    The chunk taken at a cell (t, u) with F == s is traceback's longest:
    k + d for the largest d such that each of the cells (t-e, u-e), e <= d,
    is a chunk-end cell with F == s - e.  Such a run of cells ends where
    the k-term k + C(t-d-k, u-d-k) gives F, so a chunk of length k + d
    starts there; further down the diagonal F falls by more than one per
    cell, and no longer chunk reproduces s.  ``extends`` marks the cells
    whose up-left neighbour is a chunk-end cell with F one less, and ``up``
    gives that neighbour's index.
    """
    scores = array("q")
    total = _point_dp(cells, k, scores)
    rows, starts, ends, order = cells
    counts = ends - starts
    ct = np.repeat(rows, counts)  # the cells in row-major order
    cu = order[np.arange(len(ct)) + np.repeat(starts - np.cumsum(counts) + counts, counts)]
    cf = np.frombuffer(scores, dtype=np.int64)
    cols = n - k + 1  # the y windows
    keys = ct * cols + cu  # ascending
    back = keys - cols - 1  # the keys of (t-1, u-1); for u = 0 it wraps to
    up = np.searchsorted(keys, back)  # row t-1, but F = k there and F >= k everywhere
    extends = (keys[up] == back) & (cf[up] == cf - 1)
    by_score = np.argsort(cf.astype(table_dtype(total)), kind="stable")  # by F, row, column; radix
    groups = np.searchsorted(cf[by_score], np.arange(total + 2)).tolist()
    gt, gu, by_score, up, extends = map(memoryview, (ct[by_score], cu[by_score], by_score, up, extends))
    chunks = []
    t, u, s = m - k, n - k, total
    while s:
        lo, hi = groups[s], groups[s + 1]  # the cells with F == s
        a = bisect_left(gt, t, lo, hi)
        b = bisect_right(gu, u, a, bisect_right(gt, t, a, hi))
        if b > a:  # row t's rightmost cell up to column u
            i = b - 1
        else:  # the nearest cell above in column jl
            cols = gu[lo:a].tolist()
            i = lo + len(cols) - 1 - cols[::-1].index(min(cols))
        t, u, p, d = gt[i], gu[i], by_score[i], 0
        while extends[p]:  # down the diagonal while F falls by one per cell
            p, d = up[p], d + 1
        chunks.append((t - d + 1, u - d + 1, k + d))
        t, u, s = t - d - k, u - d - k, s - k - d
    chunks.reverse()
    return ChunkAlignment(total=total, chunks=tuple(chunks))


def _sweep(xg: np.ndarray, yg: np.ndarray, k: int, table=None) -> int:
    """Fill rows k..m of the score table C over the window ids; return C[m, n].

    MODE.plan's rows route runs it, and every witness table.  The plan's
    count of chunk-end cells frees its sorted keys of the ids (_sparse)
    before the rings are allocated, so it does not raise their peak.

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
    row goes to it without its offset, through a core.RowStore.
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
    store = RowStore(table, k) if table is not None else None
    for t, gram in enumerate(xg):
        row, up, cand, chunk, tail, diag = views[t % len(views)]
        np.equal(yg, gram, out=hit)
        np.maximum(cand, diag, out=tail)
        np.multiply(tail, hit, out=tail)
        np.subtract(up, one, out=row)
        np.maximum(row, chunk, out=row)
        np.maximum.accumulate(row, out=row)
        if table is not None:
            store.put(row, m + 1 - k - t)
    if table is not None:
        store.flush()
    return int(row[-1]) - 1  # row m's offset is 1


def lcs_kplus_length(x, y, k: int) -> int:
    """LCS_{k+} length, with no table, by MODE.plan's route, which the r
    chunk-end cells pick: below one in 1/_SPARSE_SHARE window pairs the
    point DP, O((m + n) log n + r log min(m, n)) Python steps and O(m + n)
    memory plus the cells of k+1 rows; otherwise the row loop, O(mn) time
    and O(k * (m + n)) memory, its k+1 ring rows over the longer sequence.
    MODE.align follows the same plan for witnesses."""
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
    if tables.x_ids.ndim != 1:  # op mode's ids are 2-D
        raise ValueError("the state was computed in the other mode")
    if tables.k != k or tables.xs != as_items(x) or tables.ys != as_items(y):
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


MODE = Mode("exact", _window_ids, _sweep, traceback, _sparse, _point_dp, _point_walk)
