"""Seeded inputs and the fixed request rounds of each benchmark workload.

Every random draw comes from ``numpy.random.default_rng([seed, workload,
stream, index])``, so a (workload, seed) pair always yields the same inputs
and one stream never shifts another.  Sizes are fixed per workload and only
the contents depend on the seed, which keeps cells/s comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# stream ids inside one workload's seed sequence
_POOL, _SMALL, _MEMORY, _WARMUP = 0, 1, 2, 3

DNA = b"ACGT"


@dataclass(frozen=True)
class Pair:
    """One input pair in the three forms the benchmark needs.

    ``x``/``y`` are what a library caller passes (``str`` for exact mode,
    ``list`` of ints for op mode); ``xa``/``ya`` are int64 arrays for the
    benchmark's own validator; ``text_x``/``text_y`` are the file contents
    the CLI reads.
    """

    x: object
    y: object
    xa: np.ndarray
    ya: np.ndarray
    text_x: bytes
    text_y: bytes

    @property
    def cells(self) -> int:
        return len(self.xa) * len(self.ya)


@dataclass(frozen=True)
class Request:
    kind: str  # "length" (library call) or "witness" (CLI --chunks)
    pair: int  # index into the workload's pool
    k: int


@dataclass(frozen=True)
class Workload:
    name: str
    ident: int
    mode: str  # "exact" or "op"
    generate: Callable  # (rng, m, n, small) -> (x values, y values)
    pool_sizes: tuple  # (m, n) per pool pair
    ks: tuple  # every k a round uses, ascending
    small_sizes: tuple  # (m, n) of the oracle-checked pairs
    small_ks: tuple
    memory_size: tuple  # (m, n) of the tracemalloc pair
    self_len: int  # length of the sequence scored against its own transform

    def make_pair(self, seed: int, stream: int, index: int, m: int, n: int) -> Pair:
        rng = np.random.default_rng([seed, self.ident, stream, index])
        xa, ya = self.generate(rng, m, n, stream == _SMALL)
        return _as_pair(self.mode, xa, ya)

    def pool(self, seed: int) -> list:
        return [self.make_pair(seed, _POOL, i, m, n) for i, (m, n) in enumerate(self.pool_sizes)]

    def small_pairs(self, seed: int) -> list:
        return [self.make_pair(seed, _SMALL, i, m, n) for i, (m, n) in enumerate(self.small_sizes)]

    def memory_pair(self, seed: int) -> Pair:
        return self.make_pair(seed, _MEMORY, 0, *self.memory_size)

    def warmup_pair(self, seed: int) -> Pair:
        return self.make_pair(seed, _WARMUP, 0, 40, 40)

    def round(self) -> list:
        """The fixed request list of one round.

        All length requests come first and run in ascending k per pair, so
        each witness can be checked against the length of the same
        (pair, k) and each length against the one for the next-smaller k.
        """
        pairs = range(len(self.pool_sizes))
        lengths = [Request("length", p, k) for p in pairs for k in self.ks]
        witnesses = [Request("witness", p, k) for p in pairs for k in self.ks]
        return lengths + witnesses


def _as_pair(mode: str, xa: np.ndarray, ya: np.ndarray) -> Pair:
    xa, ya = np.asarray(xa, dtype=np.int64), np.asarray(ya, dtype=np.int64)
    if mode == "exact":
        bx, by = bytes(xa.astype(np.uint8)), bytes(ya.astype(np.uint8))
        return Pair(bx.decode("ascii"), by.decode("ascii"), xa, ya, bx, by)
    return Pair(xa.tolist(), ya.tolist(), xa, ya, _int_text(xa), _int_text(ya))


def _int_text(values: np.ndarray) -> bytes:
    """Twenty comma-separated values per line, as a user's export might be."""
    rows = (", ".join(map(str, values[i : i + 20].tolist())) for i in range(0, len(values), 20))
    return ("\n".join(rows) + "\n").encode("ascii")


def _dna_pair(rng: np.random.Generator, m: int, n: int, small: bool):
    """Random ACGT strings with planted, mutated shared segments.

    Segments are copied from x into y at increasing positions in both, with
    6 % point substitutions, so the optimal alignment chains many chunks of
    mixed lengths over a random background.
    """
    alphabet = np.frombuffer(DNA, dtype=np.uint8)
    x = alphabet[rng.integers(0, 4, size=m)]
    y = alphabet[rng.integers(0, 4, size=n)]
    lo, hi = (4, 10) if small else (30, 300)
    px = py = 0
    while True:
        length = int(rng.integers(lo, hi + 1))
        gx = int(rng.integers(0, 2 * lo + max(0, m - n) // 8 + 1))
        gy = int(rng.integers(0, 2 * lo + max(0, n - m) // 8 + 1))
        if px + gx + length > m or py + gy + length > n:
            break
        seg = x[px + gx : px + gx + length].copy()
        flip = rng.random(length) < 0.06
        seg[flip] = alphabet[rng.integers(0, 4, size=int(flip.sum()))]
        y[py + gy : py + gy + length] = seg
        px, py = px + gx + length, py + gy + length
    return x, y


def _uniform_pair(rng: np.random.Generator, m: int, n: int, small: bool):
    return rng.integers(1, 1001, size=m), rng.integers(1, 1001, size=n)


def _spread(rng: np.random.Generator, lo: int, hi: int, count: int) -> list:
    """``count`` evenly spaced integers from lo to hi, in random order."""
    return rng.permutation(np.linspace(lo, hi, count).round().astype(int)).tolist()


def _runs_series(rng: np.random.Generator, n: int, lo: int, hi: int) -> list:
    """Piecewise-monotone series: rising, falling and flat runs of lo..hi steps.

    Runs come in blocks of six, two of each kind with lengths spread evenly
    over lo..hi, in random order, so the mix of run kinds and lengths (flat
    runs drive the equal-value branches of the Z extension) hardly depends
    on the seed.
    """
    out: list = []
    v = int(rng.integers(0, 1000))
    while len(out) < n:
        for kind, length in zip(rng.permutation([0, 0, 1, 1, 2, 2]), _spread(rng, lo, hi, 6)):
            for _ in range(length):
                if kind == 0:
                    v += int(rng.integers(1, 6))
                elif kind == 1:
                    v -= int(rng.integers(1, 6))
                out.append(v)
    return out[:n]


def _runs_pair(rng: np.random.Generator, m: int, n: int, small: bool):
    """x is a run series; y alternates copies of x pieces under v -> a*v + b
    (a in 1..3), which keeps them order-isomorphic, with fresh runs.

    Copy and fresh lengths are spread evenly over 2*lo..2*hi and lo..hi, so
    the share of y in copies, and with it the mean match length and the share
    of cells that need a window maximum, varies little between seeds.
    """
    lo, hi = (2, 6) if small else (5, 40)
    x = _runs_series(rng, m, lo, hi)
    y: list = []
    while len(y) < n:
        for length, fresh in zip(_spread(rng, 2 * lo, 2 * hi, 4), _spread(rng, lo, hi, 4)):
            start = int(rng.integers(0, max(1, m - length)))
            a, b = int(rng.integers(1, 4)), int(rng.integers(-500, 501))
            y.extend(a * v + b for v in x[start : start + length])
            y.extend(_runs_series(rng, fresh, lo, hi))
    return x, y[:n]


# Why these three: exact-dna puts all its time in the exact layer and never
# touches the op layers; op-random has short matches, so the sweep and its
# window structure dominate; op-runs has long matches and flat runs, so an
# LCE or window shortcut that only pays off on short matches shows there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-dna",
            ident=1,
            mode="exact",
            generate=_dna_pair,
            pool_sizes=((3000, 3000), (2000, 4000)),
            ks=(2, 3, 5),
            small_sizes=((24, 24), (16, 30), (30, 20), (28, 28)),
            small_ks=(2, 3, 5),
            memory_size=(2000, 2000),
            self_len=600,
        ),
        Workload(
            name="op-random",
            ident=2,
            mode="op",
            generate=_uniform_pair,
            pool_sizes=((250, 250), (200, 320)),
            ks=(3,),
            small_sizes=((24, 24), (16, 30), (30, 20), (28, 28)),
            small_ks=(2, 3, 4),
            memory_size=(150, 150),
            self_len=120,
        ),
        Workload(
            name="op-runs",
            ident=3,
            mode="op",
            generate=_runs_pair,
            pool_sizes=((250, 250), (200, 320)),
            ks=(3,),
            small_sizes=((24, 24), (16, 30), (30, 20), (28, 28)),
            small_ks=(2, 3, 4),
            memory_size=(150, 150),
            self_len=120,
        ),
    )
}
