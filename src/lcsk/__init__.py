"""Chunked longest common subsequence, exact and order-preserving.

LCS_{k+} constrains a common subsequence to be a concatenation of common
substrings ("chunks") each of length at least k; the op variant matches
chunks up to order-isomorphism instead of equality.  Both run in O(mn).
"""

from .core import ChunkAlignment, Params, validate_alignment
from .exact import (
    DpTables,
    chunk_max_table,
    compute_tables,
    lcs_kplus_length,
    match_run_table,
    traceback,
)
from .op_lcs import OpDpState, op_lcs_kplus_length, op_lcs_kplus_state, op_traceback
from .order_iso import (
    OpLceTable,
    PrevNextTables,
    SortedPositions,
    build_oplce_table,
    order_isomorphic,
    prev_next_for_suffix,
    sort_positions,
    z_table_for_suffix,
)
from .rmq import DiagonalMaxQueue, PlusMinusOneRmq, TwoDMinHeap, rmq_positions

__version__ = "0.1.0"

__all__ = [
    "ChunkAlignment",
    "DiagonalMaxQueue",
    "DpTables",
    "OpDpState",
    "OpLceTable",
    "Params",
    "PlusMinusOneRmq",
    "PrevNextTables",
    "SortedPositions",
    "TwoDMinHeap",
    "build_oplce_table",
    "chunk_max_table",
    "compute_tables",
    "lcs_kplus_length",
    "match_run_table",
    "op_lcs_kplus_length",
    "op_lcs_kplus_state",
    "op_traceback",
    "order_isomorphic",
    "prev_next_for_suffix",
    "rmq_positions",
    "sort_positions",
    "traceback",
    "validate_alignment",
    "z_table_for_suffix",
]
