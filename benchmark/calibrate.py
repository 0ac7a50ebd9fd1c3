"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark shares its cores with other tenants.  Their load slows every
request by up to 2.4x for stretches of tens of seconds to minutes, longer
than one run, and it hits memory-bound work hardest.  So each timed request
sits between two runs of this kernel, and throughput is reported per
reference run: a request that costs 6 reference runs on 60000 cells scores
10000 cells/ref however busy the machine was.  The kernel never changes and does
not import ``lcsk``, so a change to ``lcsk`` moves the metric in full while
the machine's load moves it far less.

The kernel does the two kinds of work the solvers do: interpreter-bound
Python that misses the cache (the op sweep's lists, arrays and queues) and
row-at-a-time numpy over a full table (the exact DP).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20160912)
_VALUES = _rng.integers(0, 10**9, size=1_000_000).tolist()
_ORDER = _rng.permutation(1_000_000)[:150_000].tolist()
_NP_X = _rng.integers(0, 4, size=700).astype(np.int8)
_NP_Y = _rng.integers(0, 4, size=1400).astype(np.int8)
_TABLE = np.zeros((701, 1401), dtype=np.int32)  # reused, so no run allocates

# what the two parts must return; anything else means the kernel did other work
REFERENCE_ANSWER = (75091158319857, 609)


def _scattered_sum() -> int:
    """Sum 150000 entries of a 1M-int list in random order (~75 ms)."""
    total = 0
    for i in _ORDER:
        total += _VALUES[i]
    return total


def _table_lcs() -> int:
    """LCS length of 700 x 1400 symbols into a full int32 table, a row per step (~15 ms)."""
    table = _TABLE
    for i in range(1, len(_NP_X) + 1):
        row = table[i]
        diag = np.where(_NP_Y == _NP_X[i - 1], table[i - 1, :-1] + 1, 0)
        np.maximum(table[i - 1, 1:], diag, out=row[1:])
        np.maximum.accumulate(row, out=row)
    return int(table[-1, -1])


def reference_seconds() -> float:
    """Wall time of one reference run.

    An untimed pass first reads all of the kernel's data, so the timed run
    starts from the same cache state whatever the request before it evicted.
    """
    sum(_VALUES)
    sum(_ORDER)
    _TABLE[1:] = 0
    t0 = perf_counter()
    answer = _scattered_sum(), _table_lcs()
    elapsed = perf_counter() - t0
    if answer != REFERENCE_ANSWER:
        raise RuntimeError(f"the reference kernel returned {answer}, not {REFERENCE_ANSWER}")
    return elapsed
