"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with output visible to read the lines:

    pytest tests/test_acceptance.py -s

Criteria 3 and 4 build shared instance batches that criteria 8 and 9 reuse,
so the expensive oracle computations run once per session.
"""

import csv
import random
import time

import pytest

from lcsk.cli import main as cli_main
from lcsk.core import Params, validate_alignment
from lcsk.exact import compute_tables, lcs_kplus_length, traceback
from lcsk.op_lcs import op_lcs_kplus_length, op_lcs_kplus_state, op_traceback
from lcsk.oracles import (
    naive_lcs_kplus,
    naive_op_lcs_kplus,
    naive_oplce,
    naive_z,
)
from lcsk.order_iso import (
    build_oplce_table,
    order_isomorphic,
    z_table_for_suffix,
)
from lcsk.rmq import DiagonalMaxQueue, PlusMinusOneRmq, TwoDMinHeap, rmq_positions

SEED = 20260825


def _report(num, ok, desc):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def _best_of(fn, repeats=5):
    fn()  # warm-up (first numpy calls, caches) is excluded from timing
    best = min(_timed(fn) for _ in range(repeats))
    return best


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# --- shared random instance batches ---------------------------------------


@pytest.fixture(scope="module")
def exact_batch():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    instances = []
    for idx in range(500):
        sigma = (1, 2, 4, 8)[idx % 4]
        k = rng.randint(1, 8)
        m, n = rng.randint(0, 64), rng.randint(0, 64)
        xs = tuple(rng.randrange(sigma) for _ in range(m))
        ys = tuple(rng.randrange(sigma) for _ in range(n))
        fast = lcs_kplus_length(xs, ys, k)
        ref = naive_lcs_kplus(xs, ys, k)
        instances.append((xs, ys, k, fast, ref))
    return instances, time.perf_counter() - t0


@pytest.fixture(scope="module")
def op_batch():
    rng = random.Random(SEED + 1)
    t0 = time.perf_counter()
    instances = []
    for idx in range(300):
        hi = 4 if idx % 2 == 0 else 10**6  # alternate duplicate-heavy / distinct
        k = rng.randint(2, 6)
        m, n = rng.randint(0, 48), rng.randint(0, 48)
        xs = tuple(rng.randint(1, hi) for _ in range(m))
        ys = tuple(rng.randint(1, hi) for _ in range(n))
        fast = op_lcs_kplus_length(xs, ys, k)
        ref = naive_op_lcs_kplus(xs, ys, k)
        instances.append((xs, ys, k, fast, ref))
    return instances, time.perf_counter() - t0


# --- criteria ---------------------------------------------------------------


def test_criterion_01_exact_paper_goldens():
    cases = [
        (("acdbacbc", "aacdabca", 2), 5),
        (("ATTCGTATCG", "ATTGCTATGC", 2), 6),
        (("ATTCGTATCG", "AATCCCTCAA", 2), 4),
        (("acdbacbc", "aacdabca", 1), 6),
    ]
    ok = True
    for args, want in cases:
        got = lcs_kplus_length(*args)
        elapsed = _best_of(lambda a=args: lcs_kplus_length(*a))
        ok = ok and got == want and elapsed < 1e-3
    _report(1, ok, "exact goldens (5/6/4/6), each < 1 ms")


def test_criterion_02_op_paper_golden():
    x = (14, 84, 82, 31, 74, 68, 87, 11, 20, 32)
    y = (21, 64, 2, 83, 73, 51, 5, 29, 7, 71)
    got = op_lcs_kplus_length(x, y, 3)
    elapsed = _best_of(lambda: op_lcs_kplus_length(x, y, 3))
    _report(2, got == 7 and elapsed < 1e-3, "op golden (7), < 1 ms")


def test_criterion_03_exact_oracle_equivalence(exact_batch):
    instances, elapsed = exact_batch
    mismatches = sum(1 for *_, fast, ref in instances if fast != ref)
    ok = len(instances) >= 500 and mismatches == 0 and elapsed < 30
    _report(3, ok, f"exact ≡ naive on {len(instances)} pairs, "
                   f"{mismatches} mismatches, {elapsed:.1f}s (< 30s)")


def test_criterion_04_op_oracle_equivalence(op_batch):
    instances, elapsed = op_batch
    mismatches = sum(1 for *_, fast, ref in instances if fast != ref)
    ok = len(instances) >= 300 and mismatches == 0 and elapsed < 60
    _report(4, ok, f"op ≡ naive on {len(instances)} pairs, "
                   f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_05_oplce_correctness():
    rng = random.Random(SEED + 2)
    mismatches = 0
    pairs = 0
    for idx in range(100):
        hi = 5 if idx % 2 == 0 else 10**6
        n1, n2 = rng.randint(1, 64), rng.randint(1, 64)
        a = tuple(rng.randint(1, hi) for _ in range(n1))
        b = tuple(rng.randint(1, hi) for _ in range(n2))
        table = build_oplce_table(a, b)
        pairs += 1
        for i1 in range(1, n1 + 1):
            for i2 in range(1, n2 + 1):
                if table.query(i1, i2) != naive_oplce(a, b, i1, i2):
                    mismatches += 1
    s1 = (32, 40, 4, 16, 27, 41)
    s2 = (28, 32, 12, 20, 25, 26)
    t = build_oplce_table(s1, s2)
    golden = t.query(1, 1) == 5 and t.query(3, 3) == 4
    ok = pairs >= 100 and mismatches == 0 and golden
    _report(5, ok, f"opLCE ≡ naive on {pairs} pairs ({mismatches} mismatches), "
                   f"goldens 5/4 {'ok' if golden else 'BAD'}")


def test_criterion_06_z_correctness():
    rng = random.Random(SEED + 3)
    mismatches = 0
    count = 0
    for idx in range(100):
        hi = 4 if idx % 2 == 0 else 10**6
        n = rng.randint(1, 48)
        s = tuple(rng.randint(1, hi) for _ in range(n))
        count += 1
        for i in range(1, n + 1):
            if z_table_for_suffix(s, i) != naive_z(s, i):
                mismatches += 1
    _report(6, count >= 100 and mismatches == 0,
            f"Z ≡ naive on every suffix of {count} sequences ({mismatches} mismatches)")


def test_criterion_07_rmq_stress():
    # goldens first
    h = TwoDMinHeap()
    pm = PlusMinusOneRmq(h.depth)
    for v in (4, 6, 5, 7, 3, 4, 5, 3):
        h.append(v)
    goldens = (rmq_positions(h, pm, 2, 4) == 3 and rmq_positions(h, pm, 5, 7) == 5)

    rng = random.Random(SEED + 4)
    ops = 0
    failures = 0
    euler_ok = True
    while ops < 100_000:
        q = DiagonalMaxQueue(capacity=rng.choice([None, 8, 64]))
        mirror = []
        for _ in range(rng.randint(10, 150)):
            if not mirror or rng.random() < 0.55:
                v = rng.randint(-1000, 1000)
                q.prepend(v)
                mirror.insert(0, v)
                if len(q.heap.euler) > 2 * q.count + 1:
                    euler_ok = False
            else:
                a = rng.randint(1, len(mirror))
                b = rng.randint(a, len(mirror))
                val, pos = q.rmq_front(a, b)
                if val != max(mirror[a - 1 : b]) or mirror[pos - 1] != val:
                    failures += 1
            ops += 1
    ok = goldens and failures == 0 and euler_ok and ops >= 100_000
    _report(7, ok, f"RMQ stress {ops} ops, {failures} failures, goldens "
                   f"{'ok' if goldens else 'BAD'}, euler bound {'ok' if euler_ok else 'BAD'}")


def test_criterion_08_traceback_validity(exact_batch, op_batch):
    bad = 0
    for xs, ys, k, fast, _ in exact_batch[0]:
        a = traceback(compute_tables(xs, ys, k), xs, ys, k)
        if a.total != fast or not validate_alignment(xs, ys, Params(k=k), a):
            bad += 1
    for xs, ys, k, fast, _ in op_batch[0]:
        state = op_lcs_kplus_state(xs, ys, k)
        a = op_traceback(state)
        if a.total != fast or not validate_alignment(xs, ys, Params(k=k, mode="op"), a):
            bad += 1
    total = len(exact_batch[0]) + len(op_batch[0])
    _report(8, bad == 0, f"tracebacks valid on {total} instances ({bad} bad)")


def test_criterion_09_space_variant_consistency(exact_batch):
    bad = sum(
        1
        for xs, ys, k, fast, _ in exact_batch[0]
        if fast != int(compute_tables(xs, ys, k).lengths[-1, -1])
    )
    _report(9, bad == 0, f"windowed ≡ full-table on {len(exact_batch[0])} instances ({bad} bad)")


def test_criterion_10_scaling(tmp_path):
    t0 = time.perf_counter()
    ratios = {}
    for mode, sigma in (("exact", 4), ("op", 1000)):
        out = tmp_path / f"bench_{mode}.csv"
        code = cli_main(
            ["bench", "--mode", mode, "--n", "2000,4000", "--k", "3",
             "--sigma", str(sigma), "--seed", str(SEED), "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = {int(r["n"]): float(r["seconds"]) for r in csv.DictReader(fh)}
        ratios[mode] = rows[4000] / rows[2000]
    total = time.perf_counter() - t0
    ok = all(3.0 <= r <= 6.0 for r in ratios.values()) and total < 300
    _report(10, ok, "scaling 2000→4000: "
            + ", ".join(f"{m} ×{r:.2f}" for m, r in ratios.items())
            + f" (need [3, 6]), bench {total:.0f}s (< 300s)")


def test_criterion_11_counterexample_regression():
    a = (32, 40, 4, 16, 27)
    b = (28, 32, 12, 20, 25)
    base = order_isomorphic(a, b)
    a1, b1 = a + (41,), b + (26,)
    a2, b2 = a + (15,), b + (22,)
    first = not order_isomorphic(a1, b1) and order_isomorphic(a1[2:], b1[2:])
    second = not order_isomorphic(a2, b2) and order_isomorphic(a2[4:], b2[4:])
    _report(11, base and first and second,
            "op suffix-extension counterexamples behave as published")
