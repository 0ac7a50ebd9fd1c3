"""Command-line front end: exact, op, and bench subcommands.

One body, cmd_solve, serves exact and op through each mode's core.Mode
record; the file reader and the --dump-tables grids differ by mode.

Input formats: exact mode reads each sequence as raw bytes (one trailing
LF, CRLF or CR stripped); op mode reads comma- or whitespace-separated signed
integers.  Default output is the bare length; --chunks appends one line of
alignment JSON.  Exit codes: 0 success, 1 I/O or parse error, 2 usage
error or a score table that cannot be allocated.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys

from . import exact, op_lcs
from .core import check_k

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
    try:
        return tuple(map(int, text.replace(",", " ").split()))
    except ValueError:
        pass  # the token loop below finds the bad token and its position
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


def _out(path):
    """The --out file, or stdout."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# per command: the mode, its file reader, how --dump-tables prints a symbol
# (printable bytes as characters) and which grids it prints
_COMMANDS = {
    "exact": (exact.MODE, _read_exact_file, lambda v: chr(v) if 33 <= v <= 126 else str(v),
              lambda t, xs, ys, k: (("C", t.lengths), ("L", exact.match_run_table(xs, ys)),
                                    ("M", exact.chunk_max_table(xs, ys, k)))),
    "op": (op_lcs.MODE, _read_op_file, str, lambda state, xs, ys, k: (("C", state.lengths),)),
}


def cmd_solve(ns: argparse.Namespace) -> int:
    mode, read, symbol, grids = _COMMANDS[ns.command]
    if _bad_k([ns.k], ns.command):
        return 2
    witness = ns.chunks or ns.dump_tables
    if ns.low_mem and witness:
        print("--low-mem cannot produce --chunks/--dump-tables (no tables kept)", file=sys.stderr)
        return 2
    if ns.quiet and witness:
        print("--quiet conflicts with --chunks/--dump-tables", file=sys.stderr)
        return 2
    xs, ys = read(ns.file_x), read(ns.file_y)
    if ns.dump_tables and max(len(xs), len(ys)) > _DUMP_LIMIT:
        print(f"--dump-tables needs inputs of length <= {_DUMP_LIMIT}", file=sys.stderr)
        return 2
    if ns.chunks:
        alignment = mode.align(xs, ys, ns.k)
        lines = [str(alignment.total), json.dumps(alignment.to_json(), separators=(",", ":"))]
    else:
        lines = [str(mode.solve(xs, ys, ns.k))]
    if ns.dump_tables:  # inputs of at most _DUMP_LIMIT symbols: the table again is cheap
        state = mode.solve(xs, ys, ns.k, witness=True)
        lines += [_grid(*grid, xs, ys, symbol) for grid in grids(state, xs, ys, ns.k)]
    with _out(ns.out) as fh:
        fh.write("\n".join(lines) + "\n")
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
    with _out(ns.out) as fh:
        bench.write_csv(rows, fh)
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

    for name, what, k_help, grids_help in (
        ("exact", "LCS_k+ of two byte-sequence files", "minimum chunk length", "print C/L/M grids"),
        ("op", "op-LCS_k+ of two integer-sequence files", "minimum chunk length (>= 2)",
         "print the score grid"),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("file_x")
        p.add_argument("file_y")
        p.add_argument("--k", type=int, required=True, help=k_help)
        p.add_argument("--chunks", action="store_true", help="also print alignment JSON")
        if name == "exact":
            p.add_argument("--low-mem", action="store_true",
                           help="length only, no table; the r chunk-end cells pick the route:"
                           " a point DP in O(m+n) memory plus k+1 rows of cells when r is"
                           " small, else the O(k*(m+n))-memory row loop")
        p.add_argument("--dump-tables", action="store_true", help=grids_help)
        p.add_argument("--quiet", action="store_true", help="bare length only")
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.set_defaults(func=cmd_solve, low_mem=False)

    p_bench = sub.add_parser("bench", help="time solver cells, emit CSV")
    p_bench.add_argument("--mode", choices=("exact", "op"), required=True)
    p_bench.add_argument("--n", type=_int_list, required=True, help="sizes, e.g. 1000,2000")
    p_bench.add_argument("--k", dest="k_list", type=_int_list, required=True, help="k values")
    p_bench.add_argument("--sigma", type=int, default=4, help="alphabet size / value range")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="write CSV to a file instead of stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


# built on the first call of main, not at import, and reused after that
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
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
    except MemoryError as exc:  # a score table too big for this machine
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
