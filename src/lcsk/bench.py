"""Seeded input generation and wall-clock timing for the bench subcommand.

Inputs are derived from (seed, mode, n, sigma) through numpy's SeedSequence,
so every (n, k) cell is reproducible independently of evaluation order.
Timing takes the minimum over a few repeats for sub-0.1 s cells (standard
micro-benchmark practice); long cells run once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .exact import lcs_kplus_length
from .op_lcs import op_lcs_kplus_length

_MODE_ID = {"exact": 0, "op": 1}

# repeat cells until this much time has accumulated (or _MAX_REPEAT runs)
_MIN_CELL_SECONDS = 0.1
_MAX_REPEAT = 5


@dataclass(frozen=True)
class BenchCell:
    mode: str
    n: int
    k: int
    sigma: int
    seconds: float
    length: int


def generate_pair(mode: str, n: int, sigma: int, seed: int):
    """Deterministic random input pair for one bench cell.

    Exact mode draws symbols from an alphabet of size sigma; op mode draws
    integer values from [1, sigma] (sigma doubles as the value range).
    """
    if mode not in _MODE_ID:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 0 or sigma < 1:
        raise ValueError("need n >= 0 and sigma >= 1")
    rng = np.random.default_rng([seed, _MODE_ID[mode], n, sigma])
    if mode == "exact":
        xs = rng.integers(0, sigma, size=n)
        ys = rng.integers(0, sigma, size=n)
    else:
        xs = rng.integers(1, sigma + 1, size=n)
        ys = rng.integers(1, sigma + 1, size=n)
    return xs.tolist(), ys.tolist()


def run_cells(
    mode: str, n_list: Iterable[int], k_list: Iterable[int], sigma: int, seed: int
) -> list:
    """Time every (n, k) cell; returns BenchCell rows in deterministic order."""
    solver = lcs_kplus_length if mode == "exact" else op_lcs_kplus_length
    wx, wy = generate_pair(mode, 16, sigma, seed)
    solver(wx, wy, max(2, min(k_list, default=2)))  # warm-up (first numpy calls, caches)
    rows = []
    for n in n_list:
        xs, ys = generate_pair(mode, n, sigma, seed)
        for k in k_list:
            best = None
            spent = 0.0
            for _ in range(_MAX_REPEAT):
                t0 = time.perf_counter()
                length = solver(xs, ys, k)
                dt = time.perf_counter() - t0
                spent += dt
                if best is None or dt < best:
                    best = dt
                if spent >= _MIN_CELL_SECONDS:
                    break
            rows.append(
                BenchCell(mode=mode, n=n, k=k, sigma=sigma, seconds=best, length=length)
            )
    return rows


def write_csv(rows: Iterable[BenchCell], fh: IO[str]) -> None:
    fh.write("mode,n,k,sigma,seconds\n")
    for r in rows:
        fh.write(f"{r.mode},{r.n},{r.k},{r.sigma},{r.seconds:.6f}\n")
