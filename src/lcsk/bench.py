"""Seeded input generation and wall-clock timing for the bench subcommand.

Inputs are derived from (seed, mode, n, sigma) through numpy's SeedSequence,
so every (n, k) cell is reproducible independently of evaluation order.
Timing takes the minimum over a few repeats for sub-0.1 s cells (standard
micro-benchmark practice); long cells run once.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import IO, Iterable

import numpy as np

from . import exact, op_lcs

_MODES = {"exact": exact.MODE, "op": op_lcs.MODE}

# repeat cells until this much time has accumulated (or _MAX_REPEAT runs)
_MIN_CELL_SECONDS = 0.1
_MAX_REPEAT = 5


BenchCell = namedtuple("BenchCell", "mode n k sigma seconds length")


def generate_pair(mode: str, n: int, sigma: int, seed: int):
    """Deterministic random input pair for one bench cell.

    Exact mode draws symbols from an alphabet of size sigma; op mode draws
    integer values from [1, sigma] (sigma doubles as the value range).
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 0 or sigma < 1:
        raise ValueError("need n >= 0 and sigma >= 1")
    rng = np.random.default_rng([seed, list(_MODES).index(mode), n, sigma])  # mode id: exact 0, op 1
    low = 0 if mode == "exact" else 1
    return tuple(rng.integers(low, low + sigma, size=n).tolist() for _ in range(2))


def run_cells(
    mode: str, n_list: Iterable[int], k_list: Iterable[int], sigma: int, seed: int
) -> list:
    """Time every (n, k) cell; returns BenchCell rows in deterministic order."""
    solve, n_list, k_list = _MODES[mode].solve, list(n_list), list(k_list)  # iterators would run out
    wx, wy = generate_pair(mode, 16, sigma, seed)
    solve(wx, wy, max(2, min(k_list, default=2)))  # warm-up (first numpy calls, caches)
    rows = []
    for n in n_list:
        xs, ys = generate_pair(mode, n, sigma, seed)
        for k in k_list:
            times: list = []
            while len(times) < _MAX_REPEAT and sum(times) < _MIN_CELL_SECONDS:
                t0 = time.perf_counter()
                length = solve(xs, ys, k)
                times.append(time.perf_counter() - t0)
            rows.append(BenchCell(mode, n, k, sigma, seconds=min(times), length=length))
    return rows


def write_csv(rows: Iterable[BenchCell], fh: IO[str]) -> None:
    fh.write("mode,n,k,sigma,seconds\n")
    for r in rows:
        fh.write(f"{r.mode},{r.n},{r.k},{r.sigma},{r.seconds:.6f}\n")
