"""Exact-matching chunked LCS (LCS_{k+}).

Quadratic DP over three tables:

* ``match_run[i, j]``  -- length of the longest common suffix of the two
  prefixes x(1:i), y(1:j);
* ``chunk_max[i, j]``  -- best total ending with a chunk that finishes at
  (i, j), or -1 when no chunk of length >= k can end there;
* ``lengths[i, j]``    -- the LCS_{k+} value for the prefixes.

Rows only depend on rows i-1 and i-k, so the length-only entry point keeps
a (k+1)-row ring buffer over the shorter sequence: O(k * min(m, n)) ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ChunkAlignment, as_items, check_k


def _encode(xs: tuple, ys: tuple):
    """Map symbols of both sequences onto small ints for fast numpy equality."""
    codes: dict = {}
    out = []
    for seq in (xs, ys):
        arr = np.empty(len(seq), dtype=np.int32)
        for idx, v in enumerate(seq):
            code = codes.get(v)
            if code is None:
                code = codes[v] = len(codes)
            arr[idx] = code
        out.append(arr)
    return out[0], out[1]


@dataclass(frozen=True)
class DpTables:
    """Full DP state for one (x, y, k) instance; arrays are (m+1) x (n+1)."""

    lengths: np.ndarray
    match_run: np.ndarray
    chunk_max: np.ndarray


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
    """All three DP tables, O(mn) space; feed the result to traceback()."""
    k = check_k(k)
    xs, ys = as_items(x), as_items(y)
    m, n = len(xs), len(ys)
    run = match_run_table(xs, ys)
    lengths = np.zeros((m + 1, n + 1), dtype=np.int32)
    chunk_max = np.full((m + 1, n + 1), -1, dtype=np.int32)
    for i in range(1, m + 1):
        mrow = chunk_max[i]
        if i >= k and n >= k:
            cand = lengths[i - k, : n + 1 - k] + k
            lk = run[i, k:]
            grown = chunk_max[i - 1, k - 1 : n] + 1
            mrow[k:] = np.where(
                lk == k, cand, np.where(lk > k, np.maximum(grown, cand), -1)
            )
        crow = lengths[i]
        np.maximum(lengths[i - 1], mrow, out=crow)
        np.maximum.accumulate(crow, out=crow)
    return DpTables(lengths=lengths, match_run=run, chunk_max=chunk_max)


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


def _length_rows(xa: np.ndarray, ya: np.ndarray, k: int) -> int:
    """Row-vectorized length computation; fallback when no JIT is available.

    A chunk can end at (i, j) iff the length-k windows ending there are
    equal, so one comparison of window ids replaces the match-run row.
    Row i is stored with offset m + 1 - i: h = lengths + m + 1 - i and
    e = chunk_max + m + 1 - i, with e = 0 where no chunk ends.  Along a
    diagonal the offset drops by one per row, which absorbs the +k of
    lengths[i-k, j-k] + k and the +1 of chunk_max[i-1, j-1] + 1, and every
    stored value stays positive, so multiplying by the hit mask clears e.
    That leaves six numpy calls per row on preallocated buffers; the
    per-row overhead matters because only the running max is O(n) work of
    any weight.
    """
    m, n = len(xa), len(ya)
    xg, yg = _window_ids(xa, ya, k)
    w = n + 1 - k
    ring = k + 1
    h = np.empty((ring, n + 1), dtype=np.int32)  # ring of offset score rows
    h[:] = (m + 1 - np.arange(ring, dtype=np.int32))[:, None]  # rows 0..k score 0
    e = np.zeros((2, n + 1), dtype=np.int32)  # offset chunk_max, rows i-1 and i
    one = np.ones(n + 1, dtype=np.int32)
    hit = np.empty(w, dtype=bool)
    # views for rows k, k+1, ...; the pattern repeats every 2 * ring rows
    steps = [
        (h[i % ring], h[(i - 1) % ring], h[(i - k) % ring][:w],
         e[i % 2], e[i % 2][k:], e[(i - 1) % 2][k - 1 : n])
        for i in range(k, k + 2 * ring)
    ]
    for gram, (row, up, cand, chunk, tail, diag) in zip(xg, itertools.cycle(steps)):
        np.equal(yg, gram, out=hit)
        np.maximum(cand, diag, out=tail)
        np.multiply(tail, hit, out=tail)
        np.subtract(up, one, out=row)
        np.maximum(row, chunk, out=row)
        np.maximum.accumulate(row, out=row)
    return int(h[m % ring, n]) - 1  # row m's offset is 1


def _length_cells(xa, ya, k):  # numba-compiled below when available
    m = xa.shape[0]
    n = ya.shape[0]
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


try:  # optional JIT; identical semantics either way (tests compare the routes)
    from numba import njit

    _length_cells = njit(cache=True)(_length_cells)
    HAVE_JIT = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_JIT = False


def lcs_kplus_length(x, y, k: int) -> int:
    """LCS_{k+} length in O(k * min(m, n)) memory.

    Same recurrence as compute_tables but keeps only a ring buffer of the
    last k+1 score rows (plus two chunk rows and the window ids), iterating
    over the longer sequence so rows span the shorter one.
    """
    k = check_k(k)
    xs, ys = as_items(x), as_items(y)
    if len(xs) < len(ys):
        xs, ys = ys, xs  # the problem is symmetric; keep rows short
    if len(ys) < k:
        return 0
    xa, ya = _encode(xs, ys)
    if HAVE_JIT:
        return _length_cells(xa, ya, k)
    return _length_rows(xa, ya, k)


def traceback(tables: DpTables, x, y, k: int) -> ChunkAlignment:
    """Recover one optimal chunk decomposition from full tables.

    Deterministic tie policy: take a chunk whenever chunk_max attains the
    score, using the largest consistent length; otherwise step left before
    up.  Output chunks are 1-based and ordered by position.
    """
    lengths, run, chunk_max = tables.lengths, tables.match_run, tables.chunk_max
    m, n = lengths.shape[0] - 1, lengths.shape[1] - 1
    chunks = []
    i, j = m, n
    while i >= k and j >= k:
        score = int(lengths[i, j])
        if score == 0:
            break
        if int(chunk_max[i, j]) == score:
            ln = 0
            for cand_ln in range(int(run[i, j]), k - 1, -1):
                if int(lengths[i - cand_ln, j - cand_ln]) + cand_ln == score:
                    ln = cand_ln
                    break
            if ln == 0:  # unreachable if the tables satisfy the recurrences
                raise RuntimeError("inconsistent DP tables at (%d, %d)" % (i, j))
            chunks.append((i - ln + 1, j - ln + 1, ln))
            i -= ln
            j -= ln
        elif int(lengths[i, j - 1]) == score:
            j -= 1
        else:
            i -= 1
    chunks.reverse()
    return ChunkAlignment(total=int(lengths[m, n]), chunks=tuple(chunks))
