"""Measure how solve time grows with input length for both modes.

Runs the same benchmark grid the CLI exposes and prints per-size timings
plus the growth ratio between consecutive sizes.  With the default grid
(2000 -> 4000) a quadratic solver should land in the 3x-6x band.

Usage:
    python scripts/run_scaling.py
    python scripts/run_scaling.py --mode exact --n 1000,2000,4000 --k 3
"""

import argparse
import sys

from lcsk.bench import run_cells
from lcsk.cli import _int_list


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("exact", "op", "both"), default="both")
    parser.add_argument("--n", type=_int_list, default=[2000, 4000],
                        help="comma-separated input lengths (default: 2000,4000)")
    parser.add_argument("--k", type=int, default=3, help="minimum chunk length")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    modes = ("exact", "op") if args.mode == "both" else (args.mode,)
    for mode in modes:
        sigma = 4 if mode == "exact" else 1000
        cells = run_cells(mode, args.n, [args.k], sigma=sigma, seed=args.seed)
        print(f"mode={mode} k={args.k} sigma={sigma}")
        prev = None
        for cell in cells:
            ratio = "" if prev is None else f"  x{cell.seconds / prev:.2f}"
            print(f"  n={cell.n:>6}  {cell.seconds:9.4f}s  length={cell.length}{ratio}")
            prev = cell.seconds
    return 0


if __name__ == "__main__":
    sys.exit(main())
