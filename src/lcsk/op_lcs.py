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
w at once.  The block then takes the max over w, the max with the row
above and the running max along j.

Cost: O(k * mn) element operations in O(m) numpy calls, plus O((m+n) * k)
element operations and 2k-2 sorts of m+n ids for the window ids.  The
paper's k-independent O(mn) bound, from an op-LCE table and window maxima,
stays with the reference modules order_iso and rmq; the solver calls
neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ChunkAlignment, as_items, check_k, has_nan, walk_chunks

# A group of row blocks shares one window-id comparison and one slide of
# the row buffer.  A block's masks take k entries per row and column;
# blocks (up to k rows) and groups (up to _GROUP blocks) shrink to keep a
# group's masks within _MASK_ELEMENTS entries, down to one row.
_GROUP = 8
_MASK_ELEMENTS = 1 << 18
# ufunc buffer size, in elements, during the sweep.  At numpy's default
# of 8192 the broadcast id comparison took about three times as long per
# element on rows of 2000 columns as on rows of 4000; at 2048 both ran at
# the faster rate, and the strided sums got faster on the shorter rows too.
_BUFSIZE = 2048


@dataclass(frozen=True)
class OpDpState:
    """Retained sweep state: score table and window ids.

    x_ids[w-k, i] is the order-type id of the length-w window of x ending
    at x_i, for w in [k, 2k-1]; y_ids likewise.  Windows that do not fit
    get -1 in x_ids and -2 in y_ids, so they match nothing.
    """

    x: tuple
    y: tuple
    k: int
    lengths: np.ndarray  # (m+1) x (n+1) int32 scores
    x_ids: np.ndarray  # k x (m+1) int32
    y_ids: np.ndarray  # k x (n+1) int32

    @property
    def length(self) -> int:
        return int(self.lengths[-1, -1])


def _ranks(values: tuple) -> np.ndarray:
    """Dense ranks of hashable, mutually comparable, NaN-free values.

    Only the distinct values are checked for NaN and sorted.
    """
    try:
        distinct = dict.fromkeys(values)  # first-seen order: reproducible errors
    except TypeError as exc:  # e.g. list values
        raise TypeError(f"op mode needs hashable values: {exc}") from None
    if has_nan(distinct):
        raise ValueError("op mode needs totally ordered values; got NaN")
    try:
        rank = {v: r for r, v in enumerate(sorted(distinct))}
    except TypeError as exc:  # e.g. str next to int
        raise TypeError(f"op mode needs mutually comparable values: {exc}") from None
    return np.array([rank[v] for v in values], dtype=np.int64)


def _window_ids(xs: tuple, ys: tuple, k: int):
    """Order-type ids of the windows of lengths k..2k-1 of xs and ys.

    Returns x_ids, y_ids as described on OpDpState.  The type of the
    length-w window ending at e is the type of the length-(w-1) window
    ending at e-1 plus the place of the value at e among that window's
    values: how many are smaller and whether one is equal.  Both grow by
    one comparison per w.  Ids are re-ranked with np.unique after each w,
    so they stay below m+n.
    """
    m, n = len(xs), len(ys)
    r = _ranks(xs + ys)
    ids = np.zeros(m + n, dtype=np.int64)  # length 1: one type
    below = np.zeros(m + n, dtype=np.int64)
    equal = np.zeros(m + n, dtype=bool)
    x_ids = np.full((k, m + 1), -1, dtype=np.int32)
    y_ids = np.full((k, n + 1), -2, dtype=np.int32)
    for w in range(2, 2 * k):
        d = w - 1  # the window ending at e gains the value at e - d
        below[d:] += r[:-d] < r[d:]
        equal[d:] |= r[:-d] == r[d:]
        code = ids[d - 1 : -1] * (2 * w) + 2 * below[d:] + equal[d:]
        ids[d:] = np.unique(code, return_inverse=True)[1]
        if w >= k:  # windows across the x|y seam get ids too, but are never read
            x_ids[w - k, w:] = ids[w - 1 : m]
            y_ids[w - k, w:] = ids[m + w - 1 :]
    return x_ids, y_ids


def _sweep(x_ids: np.ndarray, y_ids: np.ndarray, k: int, table=None) -> int:
    """Fill the score table C in blocks of up to k rows; return C[m, n].

    Rows live in a buffer of 2k finished rows above a group of blocks;
    after each group the last 2k rows slide to the top, and the group's
    rows are copied into ``table`` first when it is given.  For row r of
    block g, at buffer row t + r with t = 2k + g*height, diag[g, w-k, r, j-k]
    is buffer[t+r-w, j-w], that is C[i-w, j-w] for the columns j >= k a
    chunk can end in.  Columns j < w read the tail of the row above, but
    y_ids has -2 there, so they never match.  Each group compares window
    ids once, into one 0/1 int32 mask per block.
    """
    m, n = x_ids.shape[1] - 1, y_ids.shape[1] - 1
    cols = n + 1 - k
    height = max(1, min(k, _MASK_ELEMENTS // (k * cols)))
    group = max(1, min(_GROUP, _MASK_ELEMENTS // (k * height * cols)))
    top, blocks = 2 * k, (m - k) // height + 1
    padded = -(-blocks // group) * group
    xg = np.full((k, k + padded * height), -1, dtype=np.int32)  # rows past m: no chunk
    xg[:, : m + 1] = x_ids
    # xb[b, w-k, r, 0] is the id of the length-w window ending at row k + b*height + r
    xb = xg[:, k:].reshape(k, padded, height, 1).transpose(1, 0, 2, 3)
    yg = y_ids[:, None, k:]
    buf = np.zeros((top + group * height, n + 1), dtype=np.int32)  # rows below k score 0
    hit = np.empty((group, k, height, cols), dtype=np.int32)
    cand = np.empty(hit.shape[1:], dtype=np.int32)
    plus_w = np.arange(k, 2 * k, dtype=np.int32)[:, None, None]
    s0, s1 = buf.strides
    strides = (height * s0, -s0 - s1, s0, s1)
    diag = as_strided(buf[top - k :], hit.shape, strides, writeable=False)
    block, flat = buf[top:].reshape(group, height, n + 1), buf.reshape(-1)
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        for b in range(0, blocks, group):
            count = min(group, blocks - b)
            np.equal(xb[b : b + group], yg, out=hit)
            for g in range(count):
                np.add(diag[g], plus_w, out=cand)
                np.multiply(cand, hit[g], out=cand)
                np.maximum.reduce(cand, axis=0, out=block[g, :, k:])
                for r in range(top + g * height, top + (g + 1) * height):
                    np.maximum(buf[r], buf[r - 1], out=buf[r])  # max with the row above
                np.maximum.accumulate(block[g], axis=1, out=block[g])
            i, end = k + b * height, top + count * height
            done = buf[top : min(end, top + m + 1 - i)]
            if table is not None:
                table[i : i + len(done)] = done
            flat[: top * (n + 1)] = flat[(end - top) * (n + 1) : end * (n + 1)]  # memmove
    finally:
        np.setbufsize(bufsize)
    return int(done[-1, -1])


def op_lcs_kplus_length(x, y, k: int) -> int:
    """op-LCS_{k+} length in O(k * (m + n)) memory.

    Rows run over the longer sequence, so that they span the shorter one:
    beside the window ids, the sweep keeps O(k) score and mask rows.
    """
    k = check_k(k, "op")
    xs, ys = as_items(x), as_items(y)
    if len(xs) < len(ys):
        xs, ys = ys, xs  # order-isomorphism is symmetric
    x_ids, y_ids = _window_ids(xs, ys, k)
    return _sweep(x_ids, y_ids, k) if len(ys) >= k else 0


def op_lcs_kplus_state(x, y, k: int) -> OpDpState:
    """Run the sweep retaining everything op_traceback needs."""
    k = check_k(k, "op")
    xs, ys = as_items(x), as_items(y)
    x_ids, y_ids = _window_ids(xs, ys, k)
    lengths = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int32)
    if min(len(xs), len(ys)) >= k:
        _sweep(x_ids, y_ids, k, lengths)
    return OpDpState(x=xs, y=ys, k=k, lengths=lengths, x_ids=x_ids, y_ids=y_ids)


def op_traceback(state: OpDpState) -> ChunkAlignment:
    """Recover one optimal chunk decomposition from retained sweep state.

    Deterministic tie policy: take a chunk whenever some length in
    [k, ell] reproduces the cell's score, using the shortest such length;
    otherwise step left, then up.  Only lengths up to 2k-1 are tried (see
    the module docstring), and those whose ids match at (i, j) form a
    prefix of k..2k-1.
    """
    k = state.k
    x_ids, y_ids = state.x_ids.tolist(), state.y_ids.tolist()

    def chunk_lengths(i, j, score):
        w = k
        while w < 2 * k and x_ids[w - k][i] == y_ids[w - k][j]:
            yield w
            w += 1

    return walk_chunks(state.lengths, k, chunk_lengths)
