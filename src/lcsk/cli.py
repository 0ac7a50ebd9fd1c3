"""Command-line front end: exact, op, and bench subcommands.

Input formats: exact mode reads each sequence as raw bytes (one trailing
newline stripped); op mode reads comma- or whitespace-separated signed
integers.  Default output is the bare length; --chunks appends one line of
alignment JSON.  Exit codes: 0 success, 1 I/O or parse error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .core import check_k
from .exact import compute_tables, lcs_kplus_length, match_run_table, traceback
from .op_lcs import op_lcs_kplus_length, op_lcs_kplus_state, op_traceback

_DUMP_LIMIT = 64
_TOKEN = re.compile(r"[^\s,]+")


class _ParseFailure(Exception):
    """Input file did not parse; message carries file:line:column."""


def _read_exact_file(path: str) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    if data.endswith(b"\r\n"):
        data = data[:-2]
    elif data.endswith(b"\n") or data.endswith(b"\r"):
        data = data[:-1]
    return tuple(data)


def _read_op_file(path: str) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN.finditer(line):
            tok = match.group()
            try:
                values.append(int(tok))
            except ValueError:
                raise _ParseFailure(
                    f"{path}:{lineno}:{match.start() + 1}: not an integer: {tok!r}"
                ) from None
    return tuple(values)


def _grid(title: str, table, xs, ys, symbol) -> str:
    """Render one DP table with sequence labels on the axes."""
    m, n = table.shape[0] - 1, table.shape[1] - 1
    width = max(2, max(len(str(int(v))) for v in table.flat))
    width = max(width, max((len(symbol(v)) for v in list(xs) + list(ys)), default=1))
    header = [" " * width, "-".rjust(width)] + [symbol(v).rjust(width) for v in ys]
    lines = [title + ":", " ".join(header)]
    for i in range(m + 1):
        label = "-" if i == 0 else symbol(xs[i - 1])
        cells = [str(int(table[i, j])).rjust(width) for j in range(n + 1)]
        lines.append(" ".join([label.rjust(width)] + cells))
    return "\n".join(lines)


def _bad_k(ks, mode: str) -> bool:
    """Print check_k's message for the first invalid k in ks; True if there is one."""
    try:
        for k in ks:
            check_k(k, mode)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return True
    return False


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_exact(ns: argparse.Namespace) -> int:
    if _bad_k([ns.k], "exact"):
        return 2
    if ns.low_mem and (ns.chunks or ns.dump_tables):
        print("--low-mem cannot produce --chunks/--dump-tables (no tables kept)", file=sys.stderr)
        return 2
    if ns.quiet and (ns.chunks or ns.dump_tables):
        print("--quiet conflicts with --chunks/--dump-tables", file=sys.stderr)
        return 2
    xs = _read_exact_file(ns.file_x)
    ys = _read_exact_file(ns.file_y)
    if ns.dump_tables and max(len(xs), len(ys)) > _DUMP_LIMIT:
        print(f"--dump-tables needs inputs of length <= {_DUMP_LIMIT}", file=sys.stderr)
        return 2
    def sym(v):  # printable bytes render as characters, the rest as numbers
        return chr(v) if 33 <= v <= 126 else str(v)
    lines = []
    if not (ns.chunks or ns.dump_tables):
        length = lcs_kplus_length(xs, ys, ns.k)
        lines.append(str(length))
    else:
        tables = compute_tables(xs, ys, ns.k)
        lines.append(str(int(tables.lengths[-1, -1])))
        if ns.chunks:
            alignment = traceback(tables, xs, ys, ns.k)
            lines.append(json.dumps(alignment.to_json(), separators=(",", ":")))
        if ns.dump_tables:
            lines.append(_grid("C", tables.lengths, xs, ys, sym))
            lines.append(_grid("L", match_run_table(xs, ys), xs, ys, sym))
            lines.append(_grid("M", tables.chunk_max, xs, ys, sym))
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def cmd_op(ns: argparse.Namespace) -> int:
    if _bad_k([ns.k], "op"):
        return 2
    if ns.quiet and (ns.chunks or ns.dump_tables):
        print("--quiet conflicts with --chunks/--dump-tables", file=sys.stderr)
        return 2
    xs = _read_op_file(ns.file_x)
    ys = _read_op_file(ns.file_y)
    if ns.dump_tables and max(len(xs), len(ys)) > _DUMP_LIMIT:
        print(f"--dump-tables needs inputs of length <= {_DUMP_LIMIT}", file=sys.stderr)
        return 2
    lines = []
    if ns.chunks or ns.dump_tables:
        state = op_lcs_kplus_state(xs, ys, ns.k)
        lines.append(str(state.length))
        if ns.chunks:
            alignment = op_traceback(state)
            lines.append(json.dumps(alignment.to_json(), separators=(",", ":")))
        if ns.dump_tables:
            lines.append(_grid("C", state.lengths, xs, ys, str))
    else:
        lines.append(str(op_lcs_kplus_length(xs, ys, ns.k)))
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    from . import bench  # keep CLI startup light

    if not ns.n or not ns.k_list or ns.sigma < 1:
        print("bench needs non-empty --n/--k lists and --sigma >= 1", file=sys.stderr)
        return 2
    if any(v < 0 for v in ns.n):
        print("bench sizes must be >= 0", file=sys.stderr)
        return 2
    if _bad_k(ns.k_list, ns.mode):
        return 2
    rows = bench.run_cells(ns.mode, ns.n, ns.k_list, ns.sigma, ns.seed)
    if ns.out:
        with open(ns.out, "w") as fh:
            bench.write_csv(rows, fh)
    else:
        bench.write_csv(rows, sys.stdout)
    return 0


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsk", description="Chunked LCS (exact and order-preserving variants)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="LCS_k+ of two byte-sequence files")
    p_exact.add_argument("file_x")
    p_exact.add_argument("file_y")
    p_exact.add_argument("--k", type=int, required=True, help="minimum chunk length")
    p_exact.add_argument("--chunks", action="store_true", help="also print alignment JSON")
    p_exact.add_argument("--low-mem", action="store_true", help="O(k*min(m,n)) memory path")
    p_exact.add_argument("--dump-tables", action="store_true", help="print C/L/M grids")
    p_exact.add_argument("--quiet", action="store_true", help="bare length only")
    p_exact.add_argument("--out", help="write output to a file instead of stdout")
    p_exact.set_defaults(func=cmd_exact)

    p_op = sub.add_parser("op", help="op-LCS_k+ of two integer-sequence files")
    p_op.add_argument("file_x")
    p_op.add_argument("file_y")
    p_op.add_argument("--k", type=int, required=True, help="minimum chunk length (>= 2)")
    p_op.add_argument("--chunks", action="store_true", help="also print alignment JSON")
    p_op.add_argument("--dump-tables", action="store_true", help="print the score grid")
    p_op.add_argument("--quiet", action="store_true", help="bare length only")
    p_op.add_argument("--out", help="write output to a file instead of stdout")
    p_op.set_defaults(func=cmd_op)

    p_bench = sub.add_parser("bench", help="time solver cells, emit CSV")
    p_bench.add_argument("--mode", choices=("exact", "op"), required=True)
    p_bench.add_argument("--n", type=_int_list, required=True, help="sizes, e.g. 1000,2000")
    p_bench.add_argument("--k", dest="k_list", type=_int_list, required=True, help="k values")
    p_bench.add_argument("--sigma", type=int, default=4, help="alphabet size / value range")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="write CSV to a file instead of stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except _ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"input is not valid text: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
