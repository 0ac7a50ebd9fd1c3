"""Measure how solve time grows with input length for both modes.

Runs the same benchmark grid the CLI exposes and prints per-size timings
plus the growth ratio between consecutive sizes.  With the default grid
(2000 -> 4000) a quadratic solver should land in the 3x-6x band.

With --witness it times the witness driver, Mode.align, instead of the
length, and prints the tracemalloc peak of one more call per cell, in
bytes per cell of the (m+1) x (n+1) grid: the witness table's 1, 2 or 4
bits per cell for k < 16, or the point route's O(m + n + r).

Usage:
    python scripts/run_scaling.py
    python scripts/run_scaling.py --mode exact --n 1000,2000,4000 --k 3
    python scripts/run_scaling.py --mode op --n 2000 --k 2,3,5,10,20
    python scripts/run_scaling.py --mode exact --n 2000,4000 --k 2,3,5,8 --witness
"""

import argparse
import sys
import time
import tracemalloc

from lcsk import exact, op_lcs
from lcsk.bench import generate_pair, run_cells
from lcsk.cli import _int_list

MODES = {"exact": exact.MODE, "op": op_lcs.MODE}


def witness_cells(mode, n_list, k_list, sigma, seed, repeat=3):
    """(n, k, seconds, peak B/cell, total) per cell: the best of ``repeat``
    calls of Mode.align, then one call under tracemalloc."""
    align = MODES[mode].align
    rows = []
    for n in n_list:
        xs, ys = generate_pair(mode, n, sigma, seed)
        for k in k_list:
            times = []
            for _ in range(repeat):
                t0 = time.perf_counter()
                total = align(xs, ys, k).total
                times.append(time.perf_counter() - t0)
            tracemalloc.start()
            try:
                align(xs, ys, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows.append((n, k, min(times), peak / (n + 1) ** 2, total))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("exact", "op", "both"), default="both")
    parser.add_argument("--n", type=_int_list, default=[2000, 4000],
                        help="comma-separated input lengths (default: 2000,4000)")
    parser.add_argument("--k", type=_int_list, default=[3],
                        help="comma-separated minimum chunk lengths (default: 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--witness", action="store_true",
                        help="time Mode.align and print its tracemalloc peak in B/cell")
    args = parser.parse_args(argv)

    modes = ("exact", "op") if args.mode == "both" else (args.mode,)
    for mode in modes:
        sigma = 4 if mode == "exact" else 1000
        if args.witness:
            cells = witness_cells(mode, args.n, args.k, sigma, args.seed)
        else:
            cells = [(c.n, c.k, c.seconds, None, c.length) for c in run_cells(mode, args.n, args.k, sigma, args.seed)]
        for k in args.k:
            print(f"mode={mode} k={k} sigma={sigma}" + (" witness" if args.witness else ""))
            prev = None
            for n, _, seconds, peak, length in (c for c in cells if c[1] == k):
                ratio = "" if prev is None else f"  x{seconds / prev:.2f}"
                memory = "" if peak is None else f"  peak={peak:.3f}B/cell"
                print(f"  n={n:>6}  {seconds:9.4f}s  length={length}{memory}{ratio}")
                prev = seconds
    return 0


if __name__ == "__main__":
    sys.exit(main())
