"""Walk through the worked examples from the library's test suite.

Shows, for each mode, a small input pair, the computed LCS_k+ length, and
the recovered chunk alignment, then prints a few order-isomorphism checks
that illustrate why op mode needs equality-aware comparisons.
"""

import sys

from lcsk import exact, op_lcs
from lcsk.core import Params, validate_alignment
from lcsk.order_iso import build_oplce_table, order_isomorphic


def show(mode, x, y, k):
    """One solve through the mode's record: length, witness, and its check."""
    alignment = mode.walk(mode.solve(x, y, k, witness=True), x, y, k)
    ok = validate_alignment(x, y, Params(k=k, mode=mode.name), alignment)
    print(f"{mode.name:<6} x={x!r} y={y!r} k={k}")
    print(f"  length={mode.solve(x, y, k)}  chunks={alignment.chunks}  valid={ok}")


def main():
    show(exact.MODE, "acdbacbc", "aacdabca", 2)
    show(exact.MODE, "ATTCGTATCG", "ATTGCTATGC", 2)
    show(op_lcs.MODE, (14, 84, 82, 31, 74, 68, 87, 11, 20, 32),
         (21, 64, 2, 83, 73, 51, 5, 29, 7, 71), 3)

    print()
    a = (32, 40, 4, 16, 27)
    b = (28, 32, 12, 20, 25)
    print(f"order_isomorphic({a}, {b}) = {order_isomorphic(a, b)}")
    a1, b1 = a + (41,), b + (26,)
    print(f"...extended by one element each: {order_isomorphic(a1, b1)}"
          f" (but suffixes from index 3 match: {order_isomorphic(a1[2:], b1[2:])})")

    table = build_oplce_table((32, 40, 4, 16, 27, 41), (28, 32, 12, 20, 25, 26))
    print(f"opLCE(1,1)={table.query(1, 1)}  opLCE(3,3)={table.query(3, 3)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
