"""The benchmark's own witness validator and CLI output parser.

Nothing here imports ``lcsk``: a witness is judged against the inputs alone,
so a fault in the code under test cannot hide itself by also being in the
check.  Order-isomorphism is tested by comparing the two pairwise sign
matrices, which is the definition itself.
"""

from __future__ import annotations

import json

import numpy as np


def order_isomorphic(a: np.ndarray, b: np.ndarray) -> bool:
    """True when sign(a[p] - a[q]) == sign(b[p] - b[q]) for every p, q."""
    if len(a) != len(b):
        return False
    sa = np.sign(a[:, None] - a[None, :])
    sb = np.sign(b[:, None] - b[None, :])
    return bool(np.array_equal(sa, sb))


def witness_problems(xa: np.ndarray, ya: np.ndarray, k: int, mode: str, total, chunks) -> list:
    """Every way a witness breaks the rules; an empty list means it is valid.

    ``chunks`` holds 1-based ``(x, y, length)`` triples.  Chunks must lie in
    range, be at least k long, be strictly increasing and non-overlapping in
    both sequences, match (equal in exact mode, order-isomorphic in op mode),
    and their lengths must sum to ``total``.
    """
    problems = []
    m, n = len(xa), len(ya)
    end_x = end_y = 0
    covered = 0
    for idx, chunk in enumerate(chunks):
        if len(chunk) != 3 or not all(type(v) is int for v in chunk):
            problems.append(f"chunk {idx}: not three ints: {chunk!r}")
            continue
        cx, cy, ln = chunk
        if ln < k:
            problems.append(f"chunk {idx}: length {ln} < k={k}")
        if cx < 1 or cy < 1 or cx + ln - 1 > m or cy + ln - 1 > n:
            problems.append(f"chunk {idx}: ({cx}, {cy}, {ln}) out of range {m}x{n}")
            continue
        if cx <= end_x or cy <= end_y:
            problems.append(f"chunk {idx}: overlaps or precedes the previous chunk")
        sx, sy = xa[cx - 1 : cx - 1 + ln], ya[cy - 1 : cy - 1 + ln]
        if mode == "exact":
            if not np.array_equal(sx, sy):
                problems.append(f"chunk {idx}: substrings differ")
        elif not order_isomorphic(sx, sy):
            problems.append(f"chunk {idx}: windows are not order-isomorphic")
        covered += ln
        end_x, end_y = cx + ln - 1, cy + ln - 1
    if covered != total:
        problems.append(f"chunk lengths sum to {covered}, total says {total}")
    return problems


def parse_cli_witness(text: str):
    """Parse ``lcsk <mode> --chunks`` output: the length line, then the JSON.

    Returns ``(length, total, chunks)``; raises ValueError on any deviation
    from that format.
    """
    lines = text.split("\n")
    if len(lines) != 3 or lines[2] != "":
        raise ValueError(f"expected two newline-terminated lines, got {text[:80]!r}")
    length = int(lines[0])
    doc = json.loads(lines[1])
    if set(doc) != {"total", "chunks"} or not isinstance(doc["chunks"], list):
        raise ValueError(f"unexpected witness JSON keys {sorted(doc)}")
    chunks = []
    for c in doc["chunks"]:
        if set(c) != {"x", "y", "len"}:
            raise ValueError(f"unexpected chunk keys {sorted(c)}")
        chunks.append((c["x"], c["y"], c["len"]))
    return length, doc["total"], chunks
