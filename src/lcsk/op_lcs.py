"""Order-preserving chunked LCS (op-LCS_{k+}) in O(mn) time.

Same chunk recurrence as the exact variant, but the final-chunk maximum
cannot be maintained by the simple run/chunk tables: op-matching runs are
not suffix-extendable the same way.  Instead, for each cell the longest
op-matching suffix window ell(i, j) comes from a precomputed LCE table on
the reversed inputs, and the cell needs max C[i-l, j-l] + l over chunk
lengths l in [k, ell].

Order-isomorphism is hereditary: dropping the last symbol of two
order-isomorphic windows leaves them order-isomorphic, so
ell(i, j) <= ell(i-1, j-1) + 1.  Along a diagonal the candidate rows
[i - ell, i - k] therefore have both ends non-decreasing in i, and the
query is a sliding-window maximum.  Each diagonal keeps a monotone deque of
(row p, C[p, q] - p) with values decreasing from front to back; the front
value + i is the best candidate.  Every cell is pushed and popped at most
once, so the sweep does amortized O(1) work per cell.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import ChunkAlignment, as_items, check_k
from .order_iso import OpLceTable, build_oplce_table


@dataclass(frozen=True)
class OpDpState:
    """Retained sweep state: score table and LCE table."""

    x: tuple
    y: tuple
    k: int
    lengths: np.ndarray  # (m+1) x (n+1) scores
    oplce: OpLceTable  # built on the reversed inputs

    @property
    def length(self) -> int:
        return int(self.lengths[-1, -1])


def _sweep(xs: tuple, ys: tuple, k: int, keep_state: bool):
    values = xs + ys
    if any(v != v for v in values):
        raise ValueError("op mode needs totally ordered values; got NaN")
    try:
        sorted(values)
    except TypeError as exc:  # e.g. str next to int
        raise TypeError(f"op mode needs mutually comparable values: {exc}") from None
    m, n = len(xs), len(ys)
    rev_lce = build_oplce_table(xs[::-1], ys[::-1])
    lce = rev_lce.values
    full = np.zeros((m + 1, n + 1), dtype=np.int32) if keep_state else None
    rows = [[0] * (n + 1) for _ in range(k + 1)]  # row i lives at rows[i % (k+1)]
    # row i touches diagonals i-n..i-k: n-k+1 deque slots, diagonal d at d % width
    width = max(n - k + 1, 1)
    queues = [deque() for _ in range(width)]
    for i in range(k, m + 1):
        lvals = lce[m - i + 1][::-1].tolist()  # lvals[j-1] = opLCE(m-i+1, n-j+1)
        cur = rows[i % (k + 1)]
        prev = rows[(i - 1) % (k + 1)]
        src = rows[(i - k) % (k + 1)]
        p = i - k
        top = p % width  # diagonal i-k takes the slot diagonal i-1-n left at (i-1, n)
        queues[top].clear()
        top += k
        for j in range(k, n + 1):
            q = queues[top - j]  # slot (i-j) % width: a negative index wraps once
            v = src[j - k] - p
            while q and q[-1][1] <= v:
                q.pop()
            q.append((p, v))
            ell = lvals[j - 1]
            lo = i - ell
            while q and q[0][0] < lo:
                q.popleft()
            best = cur[j - 1]
            if prev[j] > best:
                best = prev[j]
            if ell >= k:
                assert ell <= (i if i < j else j)  # LCE is capped by the suffix lengths
                cand = q[0][1] + i
                if cand > best:
                    best = cand
            cur[j] = best
        if keep_state:
            full[i, k:] = cur[k:]
    length = rows[m % (k + 1)][n]
    if keep_state:
        return length, OpDpState(x=xs, y=ys, k=k, lengths=full, oplce=rev_lce)
    return length, None


def op_lcs_kplus_length(x, y, k: int) -> int:
    """op-LCS_{k+} length; no state kept."""
    length, _ = _sweep(as_items(x), as_items(y), check_k(k, "op"), keep_state=False)
    return length


def op_lcs_kplus_state(x, y, k: int) -> OpDpState:
    """Run the sweep retaining everything op_traceback needs."""
    _, state = _sweep(as_items(x), as_items(y), check_k(k, "op"), keep_state=True)
    return state


def op_traceback(state: OpDpState) -> ChunkAlignment:
    """Recover one optimal chunk decomposition from retained sweep state.

    Deterministic tie policy: take a chunk whenever some length in
    [k, ell] reproduces the cell's score, using the shortest such length;
    otherwise step left, then up.
    """
    lengths = state.lengths
    lce = state.oplce.values
    k = state.k
    m, n = lengths.shape[0] - 1, lengths.shape[1] - 1
    chunks = []
    i, j = m, n
    while i >= k and j >= k:
        score = int(lengths[i, j])
        if score == 0:
            break
        ell = int(lce[m - i + 1, n - j + 1])
        for ln in range(k, ell + 1):
            if int(lengths[i - ln, j - ln]) + ln == score:
                chunks.append((i - ln + 1, j - ln + 1, ln))
                i -= ln
                j -= ln
                break
        else:
            if int(lengths[i, j - 1]) == score:
                j -= 1
            elif int(lengths[i - 1, j]) == score:
                i -= 1
            else:  # unreachable if the sweep satisfied its recurrence
                raise RuntimeError("inconsistent op DP state at (%d, %d)" % (i, j))
    chunks.reverse()
    return ChunkAlignment(total=int(lengths[m, n]), chunks=tuple(chunks))
