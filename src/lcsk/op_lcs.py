"""Order-preserving chunked LCS (op-LCS_{k+}) on k-row numpy blocks.

Same chunk recurrence as the exact variant,

    C[i, j] = max(C[i-1, j], C[i, j-1], C[i-l, j-l] + l),

where l ranges over [k, ell(i, j)] and ell(i, j) is the length of the
longest order-isomorphic pair of windows ending at x_i and y_j.

Chunks never need to be longer than 2k-1.  Order-isomorphism is
hereditary: sub-windows at the same offsets of two order-isomorphic
windows are order-isomorphic.  So a chunk of length l >= 2k ending at
(i, j) splits into order-isomorphic chunks of lengths l-k and k, both at
least k long, and C[i-k, j-k] >= C[i-l, j-l] + l - k, that is
C[i-k, j-k] + k >= C[i-l, j-l] + l.  The maximum over l in [k, ell] is
therefore attained in [k, min(ell, 2k-1)].  For the same reason the
shortest-first back-track never takes a chunk longer than 2k-1: if some
l >= 2k reproduces the score of a cell, so does k.

With the cap, ell(i, j) >= w for k <= w <= 2k-1 says that the length-w
windows ending at x_i and y_j have the same order type.  _window_ids gives
each such window an id in one space shared by x and y, building the type
of a window from the type of its first w-1 values and the place of the
last value among them, as the Prev/Next characterisation of Kubica et
al. (IPL 2013) extends a match one value at a time.  A chunk test is
then one id comparison.

Rows are swept in blocks of k.  A chunk of length >= k that ends in rows
i..i+k-1 starts before row i, so every chunk candidate of a block reads
finished rows: C[i-w, j-w] + w where the ids of length w match, for all
w at once.  A mask holds w there and 0 elsewhere, and the candidates are
C[i-w, j-w] plus the mask: where the ids differ, C[i-w, j-w] <= C[i-1, j]
changes no max, as C is monotone.  The block then takes the max over w,
the max with the row above and the running max along j.  The rows, masks
and candidates of the sweep are in the narrowest dtype that holds
min(m, n), the largest score (uint8 up to 255, uint16 up to 65535, int32
above): a candidate whose windows match is at most min(i, j).

The witness state is core.DpState, as in exact mode: C modulo 2^bits with
2^bits > k, packed 2 or 4 bits to a cell for k < 16 (a quarter byte at k
= 2 or 3), and one byte per cell up to k = 255.  The back-track only
asks whether a chunk start or a neighbour of a cell of known score holds
a given score, which the residue decides (proof at core.walk_chunks).

MODE.solve (see core.Mode) drives both entry points: window ids, the
sweep, and the score table when a witness is asked for.

Cost: O(k * mn) element operations in O(m/k) blocks of a few numpy calls
each, plus O((m+n) * k) element operations for the window ids, with a
sort of m+n ids each time their range passes 2^31 (none for k <= 5).
The ids are skipped when min(m, n) < k.  On short inputs the block count,
not the cell count, sets the time, so it matters that MODE.solve runs the
rows over the shorter input.  The paper's k-independent O(mn) bound, from
an op-LCE table and window maxima, stays with the reference modules
order_iso and rmq; the solver calls neither.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .core import ChunkAlignment, DpState, Mode, RowStore, byte_rows, codes, table_dtype, walk_chunks

# A group of row blocks shares one window-id comparison and one slide of
# the row buffer.  A block's masks take k entries per row and column;
# blocks (up to k rows) and groups (up to _GROUP blocks) shrink to keep a
# group's masks within _MASK_ELEMENTS entries, down to one row, or for a
# packed table to the fewest blocks that fill whole bytes (see _sweep).
_GROUP = 8
_MASK_ELEMENTS = 1 << 18
# _window_ids re-ranks its int64 ids once their range reaches this, and
# stores them in int32 only after checking that they fit.
_RERANK_AT = 1 << 31
_INT32_MAX = np.iinfo(np.int32).max


OpDpState = DpState  # the witness state, with the ids of _window_ids


def _window_ids(xs: tuple, ys: tuple, k: int):
    """Order-type ids of the windows of lengths k..2k-1 of xs and ys.

    x_ids[w-k, i] is the id of the length-w window of xs ending at x_i,
    for w in [k, 2k-1]; y_ids likewise.  Windows that do not fit get -1 in
    x_ids and -2 in y_ids, so they match nothing.  When min(m, n) < k no
    chunk fits, and both have no rows.

    Values are compared through core.codes in op mode: plain ints as
    themselves, other values through their dense ranks.  The type of the
    length-w window ending at e is the type of the length-(w-1) window
    ending at e-1 plus the place of the value at e among that window's
    values: how many are smaller (0..w-1) and whether one is equal.  Both
    grow by one comparison per w, and id * 2w + 2 * below + equal is again
    one id per type.  The id range grows 2w-fold per w; ids are re-ranked
    with np.unique only once it reaches _RERANK_AT = 2^31, so they fit in
    int32 (never at k <= 5).  Ids lie below the range, so the store scans
    them for int32 only when the range passes 2^31.
    """
    m, n = len(xs), len(ys)
    r = codes(xs + ys, "op")  # compared only by < and ==
    if min(m, n) < k:  # no chunk fits: the sweep, the walk and the grids read no ids
        return np.empty((0, m + 1), dtype=np.int32), np.empty((0, n + 1), dtype=np.int32)
    ids = np.zeros(m + n, dtype=np.int64)  # length 1: one type
    below = np.zeros(m + n, dtype=np.int64)
    equal = np.zeros(m + n, dtype=bool)
    x_ids = np.full((k, m + 1), -1, dtype=np.int32)
    y_ids = np.full((k, n + 1), -2, dtype=np.int32)
    span = 1  # ids lie in [0, span)
    for w in range(2, 2 * k):
        d = w - 1  # the window ending at e gains the value at e - d
        below[d:] += r[:-d] < r[d:]
        equal[d:] |= r[:-d] == r[d:]
        ids[d:] = ids[d - 1 : -1] * (2 * w) + 2 * below[d:] + equal[d:]
        span *= 2 * w
        if span >= _RERANK_AT:
            unique, ids[d:] = np.unique(ids[d:], return_inverse=True)
            span = len(unique)
        if w >= k:  # windows across the x|y seam get ids too, but are never read
            # a slice store would wrap; ids < span, so only span > 2^31 needs the scan
            if span > _INT32_MAX + 1 and ids[w - 1 :].max() > _INT32_MAX:
                raise OverflowError(f"op window ids of length {w} do not fit in int32")
            x_ids[w - k, w:] = ids[w - 1 : m]
            y_ids[w - k, w:] = ids[m + w - 1 :]
    return x_ids, y_ids


def _sweep(x_ids: np.ndarray, y_ids: np.ndarray, k: int, table=None) -> int:
    """Fill the score table C in blocks of up to k rows; return C[m, n].

    Rows live in a buffer of 2k finished rows above a group of blocks, after
    k-1 zero columns; after each group the last 2k rows slide to the top.
    When ``table`` is given, each group's rows go to it through a
    core.RowStore before the slide, shifted k rows up: the k finished rows
    above the group and all but its last k, which the next group sends (the
    last group sends all of its own).  As the first group starts at row k,
    these blocks start at row 0 and then at multiples of the group's rows,
    which the store needs in whole bytes' rows of the table, per =
    core.byte_rows of them: so the group takes a multiple of q = per /
    gcd(height, per) blocks, rounded down, or up to q.  For row r of block
    g, at buffer row t + r with t = 2k + g*height, diag[g, w-k, r, j-k] is
    buffer[t+r-w, j-w], that is C[i-w, j-w], for the columns j >= k a chunk
    can end in; columns j < w read the zero columns.  Each group compares
    window ids once, into one mask per block that holds w where the length-w
    windows match and 0 elsewhere, so a block's candidates are diag + mask.
    C is monotone, so an unmatched candidate C[i-w, j-w] <= C[i-1, j]
    changes no max.  The buffer, the masks and the candidates share
    table_dtype(min(m, n)): a score is at most min(m, n), and so is a
    matched candidate, at most min(i, j); w itself may wrap past min(m, n),
    but no window that long fits, so its mask entries are 0.  Each block
    position's views are built once.
    """
    m, n = x_ids.shape[1] - 1, y_ids.shape[1] - 1
    cols = n + 1 - k
    height = max(1, min(k, _MASK_ELEMENTS // (k * cols)))
    group = max(1, min(_GROUP, _MASK_ELEMENTS // (k * height * cols)))
    q = byte_rows(table) // gcd(height, byte_rows(table))  # see the docstring
    group = max(q, group - group % q)
    top, blocks = 2 * k, (m - k) // height + 1
    padded = -(-blocks // group) * group
    xg = np.full((k, k + padded * height), -1, dtype=np.int32)  # rows past m: no chunk
    xg[:, : m + 1] = x_ids
    # xb[b, w-k, r, 0] is the id of the length-w window ending at row k + b*height + r
    xb = xg[:, k:].reshape(k, padded, height, 1).transpose(1, 0, 2, 3)
    yg = y_ids[:, None, k:]
    dtype = table_dtype(min(m, n))
    width = k + n  # k-1 zero columns, then columns 0..n
    buf = np.zeros((top + group * height, width), dtype=dtype)  # rows below k score 0
    hit = np.empty((group, k, height, cols), dtype=dtype)
    cand = np.empty(hit.shape[1:], dtype=dtype)
    plus_w = np.arange(k, 2 * k).astype(dtype)[:, None, None]
    s0, s1 = buf.strides
    # diag[0, 0, 0, 0] is buf[top - k, k - 1]; numpy checks that the view fits in buf
    diag = np.ndarray(hit.shape, dtype, buffer=buf, offset=(top - k) * s0 + (k - 1) * s1,
                      strides=(height * s0, -s0 - s1, s0, s1))
    diag.flags.writeable = False
    rows = buf[:, k - 1 :]
    block, flat = rows[top:].reshape(group, height, n + 1), buf.reshape(-1)
    views = [(diag[g], hit[g], block[g, :, k:], block[g],
              [(rows[r], rows[r - 1]) for r in range(top + g * height, top + (g + 1) * height)])
             for g in range(group)]
    store = RowStore(table, group * height) if table is not None else None
    for b in range(0, blocks, group):
        count = min(group, blocks - b)
        np.equal(xb[b : b + group], yg, out=hit)
        np.multiply(hit, plus_w, out=hit)
        for diag_g, hit_g, chunks, block_g, above in views[:count]:
            np.add(diag_g, hit_g, out=cand)
            np.maximum.reduce(cand, axis=0, out=chunks)
            for row, up in above:
                np.maximum(row, up, out=row)  # max with the row above
            np.maximum.accumulate(block_g, axis=1, out=block_g)
        i, end = k + b * height, top + count * height
        done = rows[top : min(end, top + m + 1 - i)]
        if table is not None:  # shifted k rows up: see the docstring
            store.put(rows[top - k : top - k + len(done) + (k if b + group >= blocks else 0)])
        flat[: top * width] = flat[(end - top) * width : end * width]  # memmove
    return int(done[-1, -1])


def op_lcs_kplus_length(x, y, k: int) -> int:
    """op-LCS_{k+} length in O(k * (m + n)) memory: beside the window ids,
    the sweep keeps O(k) score rows over the longer sequence and a mask
    group of at most _MASK_ELEMENTS entries, in the narrowest dtype that
    holds min(m, n)."""
    return MODE.solve(x, y, k)


def op_lcs_kplus_state(x, y, k: int) -> OpDpState:
    """Run the sweep retaining everything op_traceback needs."""
    return MODE.solve(x, y, k, witness=True)


def op_traceback(state: OpDpState) -> ChunkAlignment:
    """Recover one optimal chunk decomposition from retained sweep state.

    Deterministic tie policy: take a chunk whenever some length in
    [k, ell] reproduces the cell's score, using the shortest such length;
    otherwise step left, then up.  Only lengths up to 2k-1 are tried (see
    the module docstring), and those whose ids match at (i, j) form a
    prefix of k..2k-1.  Each read tests a residue (core.walk_chunks), so
    the int32 table is never built.  The state must be op mode's.
    """
    if state.x_ids.ndim != 2:  # exact mode's ids are 1-D
        raise ValueError("the state was computed in the other mode")
    k = state.k
    x_ids, y_ids = state.x_ids.tolist(), state.y_ids.tolist()

    def chunk_lengths(i, j, score):
        w = k
        while w < 2 * k and x_ids[w - k][i] == y_ids[w - k][j]:
            yield w
            w += 1

    return walk_chunks(state.scores, state.length, k, chunk_lengths)


MODE = Mode("op", _window_ids, _sweep, walk=lambda state, x, y, k: op_traceback(state))
