"""Order-isomorphism primitives and the op-matching LCE table.

Two equal-length sequences are order-isomorphic when every pair of
positions compares the same way in both.  That relation is hereditary
under taking the same sub-window of both sides and transitive, which is
what lets a Z-style scan reuse previously matched windows.

The incremental match test follows the Prev/Next characterization: to
extend a match by one position it is enough to compare the new symbol
against the nearest-value neighbours (rightmost predecessor by <=,
rightmost successor by >=) among the earlier pattern positions, with the
equal-value cases demanding equality in the text too (duplicates are
allowed in the input).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import as_items


def order_isomorphic(s, t) -> bool:
    """Quadratic pairwise definition; small inputs only (used for validation)."""
    a, b = as_items(s), as_items(t)
    if len(a) != len(b):
        return False
    for i in range(len(a)):
        ai, bi = a[i], b[i]
        for j in range(i + 1, len(a)):
            if (ai <= a[j]) != (bi <= b[j]) or (a[j] <= ai) != (b[j] <= bi):
                return False
    return True


SortedPositions = namedtuple("SortedPositions", "asc desc")
SortedPositions.__doc__ = """Positions (1-based) of a sequence, stably sorted by value asc/desc.

Stability means ties keep increasing position order in both tuples, which
is what the stack sweeps below rely on.
"""


def sort_positions(s) -> SortedPositions:
    items = as_items(s)
    idx = range(1, len(items) + 1)
    asc = sorted(idx, key=lambda p: items[p - 1])
    desc = sorted(idx, key=lambda p: items[p - 1], reverse=True)
    return SortedPositions(asc=tuple(asc), desc=tuple(desc))


PrevNextTables = namedtuple("PrevNextTables", "prev next")
PrevNextTables.__doc__ = """Nearest-neighbour lists for one suffix, 1-based; entry 0 unused.

prev[d] is the rightmost position before d (within the suffix) holding
the largest value <= suffix[d]; next[d] the rightmost position holding
the smallest value >= suffix[d].  None encodes "no such position".
"""


def _prev_next_lists(n: int, i: int, positions: SortedPositions):
    """Stack sweep over the sorted position lists, re-based to suffix i."""
    size = n - i + 1
    prev_t = [None] * (size + 1)
    next_t = [None] * (size + 1)
    stack_p: list = []
    stack_n: list = []
    asc, desc = positions.asc, positions.desc
    for idx in range(n):
        p = asc[idx]
        if p >= i:
            while stack_p and stack_p[-1] > p:
                stack_p.pop()
            if stack_p:
                prev_t[p - i + 1] = stack_p[-1] - i + 1
            stack_p.append(p)
        q = desc[idx]
        if q >= i:
            while stack_n and stack_n[-1] > q:
                stack_n.pop()
            if stack_n:
                next_t[q - i + 1] = stack_n[-1] - i + 1
            stack_n.append(q)
    return prev_t, next_t


def prev_next_for_suffix(s, i: int, positions: SortedPositions | None = None) -> PrevNextTables:
    items = as_items(s)
    if not 1 <= i <= len(items):
        raise ValueError(f"suffix start {i} out of range 1..{len(items)}")
    sp = positions if positions is not None else sort_positions(items)
    prev_t, next_t = _prev_next_lists(len(items), i, sp)
    return PrevNextTables(prev=prev_t, next=next_t)


def z_table_for_suffix(s, i: int, positions: SortedPositions | None = None) -> list:
    """Op-matching Z-table of the suffix s(i:); 1-based, entry 0 unused.

    Classic Z-window reuse (valid because order-isomorphism is hereditary
    and transitive) with the Prev/Next incremental test for extensions.
    """
    items = as_items(s)
    n = len(items)
    if not 1 <= i <= n:
        raise ValueError(f"suffix start {i} out of range 1..{n}")
    sp = positions if positions is not None else sort_positions(items)
    prev_t, next_t = _prev_next_lists(n, i, sp)
    t = items[i - 1 :]
    nn = len(t)
    z = [0] * (nn + 1)
    z[1] = nn
    left = right = 1  # window [left, right): suffix at `left` matched to length right-left
    for j in range(2, nn + 1):
        zj = 0
        if j < right:
            inner = z[j - left + 1]
            rem = right - j
            if inner < rem:
                z[j] = inner
                continue
            zj = rem
        # extend a match of length zj at window start j, one position at a time
        while j + zj <= nn:
            d = zj + 1  # pattern position being added
            td = t[j + d - 2]
            a = prev_t[d]
            if a is not None:
                ta = t[j + a - 2]
                if t[a - 1] == t[d - 1]:
                    if ta != td:
                        break
                elif not ta < td:
                    break
            b = next_t[d]
            if b is not None:
                tb = t[j + b - 2]
                if t[b - 1] == t[d - 1]:
                    if tb != td:
                        break
                elif not tb > td:
                    break
            zj += 1
        z[j] = zj
        if j + zj > right:
            left, right = j, j + zj
    return z


class OpLceTable(namedtuple("OpLceTable", "values")):
    """Op-matching longest-common-extension lengths for all suffix pairs.

    values[i1, i2] (1-based; row/col 0 are padding) is the largest l such
    that s1(i1 : i1+l-1) and s2(i2 : i2+l-1) are order-isomorphic.
    """

    __slots__ = ()

    def query(self, i1: int, i2: int) -> int:
        n1, n2 = self.values.shape[0] - 1, self.values.shape[1] - 1
        if not 1 <= i1 <= n1 or not 1 <= i2 <= n2:
            raise ValueError(f"suffix pair ({i1}, {i2}) out of range")
        return int(self.values[i1, i2])


def build_oplce_table(s1, s2) -> OpLceTable:
    """One Z-table per s1-suffix over the concatenation s1+s2.

    The Z-entry at the position where the s2-suffix starts inside the
    concatenation gives the extension length, capped at |s1|-i1+1 so the
    match cannot spill across the seam.
    """
    a, b = as_items(s1), as_items(s2)
    n1, n2 = len(a), len(b)
    values = np.zeros((n1 + 1, n2 + 1), dtype=np.int32)
    if n1 == 0 or n2 == 0:
        return OpLceTable(values=values)
    cat = a + b
    sp = sort_positions(cat)
    for i1 in range(1, n1 + 1):
        z = z_table_for_suffix(cat, i1, sp)
        cap = n1 - i1 + 1
        base = n1 - i1  # s2 position i2 sits at z-index base + i2 + 1
        row = np.array(z[base + 2 : base + n2 + 2], dtype=np.int32)
        np.minimum(row, cap, out=row)
        values[i1, 1:] = row
    return OpLceTable(values=values)
