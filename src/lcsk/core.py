"""Shared data types for the chunked-LCS algorithms.

A *chunk alignment* decomposes a common subsequence into consecutive
substring pairs ("chunks"), each at least ``k`` long.  In exact mode the
paired substrings must be equal; in order-preserving (op) mode they must
be order-isomorphic.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Iterable

MODES = ("exact", "op")


def check_k(k, mode: str = "exact") -> int:
    """Validate the minimum chunk length for ``mode``; return it as an int.

    Op mode needs k >= 2: every pair of single symbols is order-isomorphic.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise TypeError(f"k must be an integer, got {type(k).__name__}")
    minimum = 2 if mode == "op" else 1
    if k < minimum:
        raise ValueError(f"{mode} mode requires k >= {minimum}")
    return int(k)


def has_nan(values) -> bool:
    """True if some value, or an item of a tuple value, is NaN.

    A NaN is not equal to itself, but tuples and dicts compare items by
    identity first, so answers on NaN would depend on object identity.
    """
    return any(has_nan(v) if isinstance(v, tuple) else v != v for v in values)


def as_items(seq: Any) -> tuple:
    """Coerce str/bytes/list/tuple/ndarray/Sequence into a plain tuple of symbols."""
    if isinstance(seq, Sequence):
        return seq.items
    if isinstance(seq, tuple):
        return seq
    if isinstance(seq, str):
        return tuple(seq)
    if hasattr(seq, "tolist"):  # numpy array: unbox to python scalars
        if getattr(seq, "ndim", 1) != 1:
            raise ValueError(f"sequences must be one-dimensional, got ndim={seq.ndim}")
        return tuple(seq.tolist())
    return tuple(seq)


@dataclass(frozen=True)
class Sequence:
    """An immutable sequence of equatable (and, for op mode, orderable) symbols."""

    items: tuple

    @classmethod
    def of(cls, values: Iterable) -> "Sequence":
        return cls(as_items(values))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def at(self, i: int):
        """1-based access, matching the indexing convention of the recurrences."""
        if not 1 <= i <= len(self.items):
            raise IndexError(f"position {i} out of range 1..{len(self.items)}")
        return self.items[i - 1]


@dataclass(frozen=True)
class Params:
    """Problem parameters: minimum chunk length ``k`` and matching mode."""

    k: int
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_k(self.k, self.mode)


@dataclass(frozen=True)
class ChunkAlignment:
    """A chunked alignment: total matched length plus the chunk list.

    Chunks are (x_start, y_start, length) triples, 1-based, in increasing
    position order.
    """

    total: int
    chunks: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "chunks", tuple(tuple(c) for c in self.chunks))

    def to_json(self) -> dict:
        """JSON form used by the CLI: {"total": N, "chunks": [{"x":..,"y":..,"len":..}]}."""
        return {
            "total": self.total,
            "chunks": [{"x": x, "y": y, "len": ln} for (x, y, ln) in self.chunks],
        }


def walk_chunks(lengths, k: int, chunk_lengths) -> ChunkAlignment:
    """Back-track one optimal chunk decomposition through a score table.

    ``chunk_lengths(i, j, score)`` gives the mode's candidate lengths of a
    last chunk ending at (i, j), in its order of preference; the first ln
    with lengths[i-ln, j-ln] + ln == score is taken.  Otherwise the walk
    steps left, then up.  Output chunks are 1-based and ordered by position.
    """
    m, n = lengths.shape[0] - 1, lengths.shape[1] - 1
    chunks = []
    i, j = m, n
    while i >= k and j >= k:
        score = int(lengths[i, j])
        if score == 0:
            break
        for ln in chunk_lengths(i, j, score):
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
            else:  # unreachable if the table satisfies its recurrence
                raise RuntimeError("inconsistent DP table at (%d, %d)" % (i, j))
    chunks.reverse()
    return ChunkAlignment(total=int(lengths[m, n]), chunks=tuple(chunks))


def validate_alignment(x, y, params: Params, alignment: ChunkAlignment) -> bool:
    """Check an alignment against Definition 1 / its op analogue.

    Structural rules: every chunk has length >= k, chunks lie inside both
    sequences, consecutive chunks are strictly increasing and non-overlapping
    in both coordinates, and lengths sum to ``total``.  Content rules: exact
    mode needs equal substrings, op mode order-isomorphic ones.
    """
    xs, ys = as_items(x), as_items(y)
    m, n = len(xs), len(ys)
    total = 0
    prev_x_end, prev_y_end = 0, 0
    for chunk in alignment.chunks:
        if len(chunk) != 3:
            return False
        cx, cy, ln = chunk
        if ln < params.k:
            return False
        if cx <= prev_x_end or cy <= prev_y_end:
            return False
        if cx + ln - 1 > m or cy + ln - 1 > n:
            return False
        xsub = xs[cx - 1 : cx - 1 + ln]
        ysub = ys[cy - 1 : cy - 1 + ln]
        if params.mode == "exact":
            if xsub != ysub:
                return False
        else:
            from .order_iso import order_isomorphic  # local import, avoids a cycle

            if not order_isomorphic(xsub, ysub):
                return False
        total += ln
        prev_x_end = cx + ln - 1
        prev_y_end = cy + ln - 1
    return total == alignment.total
