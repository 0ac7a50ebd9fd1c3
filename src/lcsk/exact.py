"""Exact-matching chunked LCS (LCS_{k+}).

Quadratic DP over two quantities:

* ``lengths[i, j]``    -- the LCS_{k+} value for the prefixes x(1:i), y(1:j);
* ``chunk_max[i, j]``  -- best total ending with a chunk that finishes at
  (i, j), or -1 when no chunk of length >= k can end there.

Rows only depend on rows i-1 and i-k of lengths and row i-1 of chunk_max,
so one numpy row loop, _sweep, runs on a ring of k+1 score rows and two
chunk_max rows for both entry points, which MODE.solve (see core.Mode)
drives with its rows over the shorter sequence.  The length path keeps
the rings alone, over the longer one: O(k * (m + n)) ints with the window
ids.  compute_tables has _sweep store each finished score row modulo
2^bits in core.table_dtype(k): one byte per cell for k <= 255 (see
core.DpState).  traceback only tests whether a cell holds a given score,
which the residue decides (core.walk_chunks), and never builds the int32
table.  chunk_max_table builds the full chunk_max grid from its
definition, out of the score table and match_run_table, for display and
tests.
"""

from __future__ import annotations

import numpy as np

from .core import ChunkAlignment, DpState, Mode, as_items, distinct, score_test, walk_chunks


def _encode(xs: tuple, ys: tuple):
    """Map symbols of both sequences onto small ints for fast numpy equality.

    NaN, bare or inside a tuple or frozenset, is rejected (core.distinct):
    a dict matches one shared NaN object by identity but not two distinct
    ones, so the answer would depend on object identity.
    """
    codes = {v: c for c, v in enumerate(distinct(xs + ys, "exact"))}
    return tuple(np.array([codes[v] for v in seq], dtype=np.int32) for seq in (xs, ys))


DpTables = DpState  # the witness state, with the ids of _window_ids


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


def _sweep(xg: np.ndarray, yg: np.ndarray, k: int, table=None) -> int:
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
    is O(n) work of any weight.  When ``table`` is given, each finished
    row goes to table[i] without its offset, modulo 2^bits of its dtype.
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
        if table is not None:
            np.subtract(row, m + 1 - k - t, out=table[k + t], casting="unsafe")
    return int(row[-1]) - 1  # row m's offset is 1


def lcs_kplus_length(x, y, k: int) -> int:
    """LCS_{k+} length in O(k * (m + n)) memory: _sweep without a table,
    its k+1 ring rows over the longer sequence."""
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
