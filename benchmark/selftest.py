"""Self-test of the benchmark's own checking code.

    python3 benchmark/selftest.py        # or: python3 -m pytest benchmark/selftest.py

The validator must accept a correct witness and reject each kind of corrupted
one; the CLI output parser must reject malformed output; and the metric
names and units the benchmark prints must be the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from validate import order_isomorphic, parse_cli_witness, witness_problems  # noqa: E402

X = np.array([14, 84, 82, 31, 74, 68, 87, 11, 20, 32])
Y = np.array([21, 64, 2, 83, 73, 51, 5, 29, 7, 71])
GOOD = [(1, 3, 4), (5, 8, 3)]  # op witness of length 7 at k=3
RISING, STEEP = np.arange(10), 3 * np.arange(10) + 7  # every window pair is order-isomorphic


def _only(problems: list, word: str) -> None:
    """Exactly one problem was found, and it is the planted one."""
    assert len(problems) == 1 and word in problems[0], problems


def test_valid_op_witness_passes():
    assert witness_problems(X, Y, 3, "op", 7, GOOD) == []


def test_valid_exact_witness_passes():
    x, y = np.frombuffer(b"acdbacbc", np.uint8), np.frombuffer(b"aacdabca", np.uint8)
    assert witness_problems(x, y, 2, "exact", 5, [(1, 2, 3), (7, 6, 2)]) == []


def test_rejects_overlapping_chunks():
    assert witness_problems(RISING, STEEP, 3, "op", 7, [(1, 1, 4), (6, 6, 3)]) == []
    _only(witness_problems(RISING, STEEP, 3, "op", 7, [(1, 1, 4), (4, 6, 3)]), "overlaps")
    _only(witness_problems(RISING, STEEP, 3, "op", 7, [(1, 5, 4), (6, 2, 3)]), "overlaps")


def test_rejects_non_isomorphic_chunk():
    # 14 84 82 rises then falls; 21 64 2 rises then falls below the start
    assert not order_isomorphic(X[0:3], Y[0:3])
    _only(witness_problems(X, Y, 3, "op", 3, [(1, 1, 3)]), "not order-isomorphic")


def test_rejects_wrong_total():
    _only(witness_problems(X, Y, 3, "op", 8, GOOD), "sum to 7")


def test_rejects_chunk_shorter_than_k():
    _only(witness_problems(X, Y, 4, "op", 7, GOOD), "< k=4")


def test_rejects_out_of_range_and_unequal_exact_chunk():
    x, y = np.frombuffer(b"abcd", np.uint8), np.frombuffer(b"abce", np.uint8)
    _only(witness_problems(x, y, 2, "exact", 4, [(1, 1, 4)]), "differ")
    assert "out of range" in witness_problems(x, y, 2, "exact", 2, [(3, 4, 2)])[0]


def test_order_isomorphism_respects_ties():
    assert order_isomorphic(np.array([1, 1, 2]), np.array([5, 5, 9]))
    assert not order_isomorphic(np.array([1, 1, 2]), np.array([5, 6, 9]))


def test_parser_round_trip_and_rejects_malformed_output():
    text = '7\n{"total":7,"chunks":[{"x":1,"y":3,"len":4},{"x":5,"y":8,"len":3}]}\n'
    assert parse_cli_witness(text) == (7, 7, GOOD)
    for bad in ("7\n", '7\n{"total":7}\n', '7\n{"total":7,"chunks":[{"x":1}]}\n', "x\n{}\n"):
        try:
            parse_cli_witness(bad)
        except ValueError:  # json.JSONDecodeError is a ValueError too
            continue
        raise AssertionError(f"accepted malformed output {bad!r}")


def test_metrics_match_benchmark_json():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
