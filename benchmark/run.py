"""lcsk benchmark: one workload per run, one thread, every answer checked.

    python3 benchmark/run.py --workload exact-dna --seed 1 --seconds 35 --trace 0

A run sets up (imports ``lcsk`` from ``src/``, generates the inputs from the
seed, writes the input files, warms up), checks small pairs against the
brute-force oracles, then issues whole rounds of length requests (library
calls) and witness requests (``lcsk.cli.main`` with ``--chunks``) until
``--seconds`` have passed, checking every answer.  Each request sits between
two runs of a fixed reference kernel (``calibrate.py``), and throughput is
counted per reference run.  With ``--trace 0`` the set-up is repeated after
every round and its median reported, and peak memory is measured in an
untimed pass before the end-to-end metrics are printed; with ``--trace 1``
the time is split between alternating untraced and traced rounds, the spans
are written and the per-layer metrics printed.  The last stdout line is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import tracemalloc
import traceback as tb
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from calibrate import reference_seconds
from spans import END, NAME, START, Tracer, instrument
from validate import parse_cli_witness, witness_problems
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmark" / "out"

END_TO_END = {
    "setup_s": "s",
    "length_cells_per_ref": "cells/ref",
    "witness_cells_per_ref": "cells/ref",
    "length_peak_bytes_per_cell": "B/cell",
    "witness_peak_bytes_per_cell": "B/cell",
}

PER_LAYER = {
    "exact.length_s": "s/round",
    "exact.match_run_s": "s/round",
    "exact.tables_s": "s/round",
    "exact.traceback_s": "s/round",
    "exact.table_bytes": "B/round",
    "exact.cells": "cells/round",
    "order_iso.lce_s": "s/round",
    "order_iso.lce_table_bytes": "B/round",
    "rmq.prepend_calls": "count/round",
    "rmq.query_calls": "count/round",
    "rmq.self_s": "s/round",
    "op_lcs.sweep_s": "s/round",
    "op_lcs.traceback_s": "s/round",
    "op_lcs.window_queries": "count/round",
    "op_lcs.cells": "cells/round",
    "cli.self_s": "s/round",
    "cli.input_bytes": "B/round",
    "trace.solve_s": "s/round",
    "trace.accounted": "ratio",
    "trace.overhead": "ratio",
}

# layer self-time metric -> the span names whose self times it sums
LAYER_SPANS = {
    "exact.length_s": ("exact.lcs_kplus_length",),
    "exact.match_run_s": ("exact.match_run_table",),
    "exact.tables_s": ("exact.compute_tables",),
    "exact.traceback_s": ("exact.traceback",),
    "order_iso.lce_s": ("order_iso.build_oplce_table",),
    "rmq.self_s": ("rmq",),
    "op_lcs.sweep_s": ("op_lcs.op_lcs_kplus_length", "op_lcs.op_lcs_kplus_state"),
    "op_lcs.traceback_s": ("op_lcs.op_traceback",),
    "cli.self_s": ("cli.main",),
}


class Ledger:
    """Counts requests and the ones that failed a check or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, fn):
        """Run ``fn`` (one request plus its checks, returning a list of
        problems) and record the outcome."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception:  # a crashing request is a failed request; keep going
            problems = ["raised:\n" + tb.format_exc()]
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {problems[0]}", file=sys.stderr)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": find_spec("numba") is not None,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "git": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_lcsk():
    """Import the package afresh, so each set-up repeat pays the import."""
    for name in [n for n in sys.modules if n == "lcsk" or n.startswith("lcsk.")]:
        del sys.modules[name]
    names = ("exact", "op_lcs", "order_iso", "rmq", "cli", "oracles")
    importlib.import_module("lcsk")
    return SimpleNamespace(**{n: importlib.import_module("lcsk." + n) for n in names})


def length_request(mods, mode: str, pair, k: int) -> int:
    if mode == "exact":
        return mods.exact.lcs_kplus_length(pair.x, pair.y, k)
    return mods.op_lcs.op_lcs_kplus_length(pair.x, pair.y, k)


def witness_request(mods, mode: str, files, k: int, out: Path) -> int:
    return mods.cli.main([mode, str(files[0]), str(files[1]), "--k", str(k), "--chunks", "--out", str(out)])


def write_pair(pair, directory: Path, tag: str):
    fx, fy = directory / f"{tag}x.txt", directory / f"{tag}y.txt"
    fx.write_bytes(pair.text_x)
    fy.write_bytes(pair.text_y)
    return fx, fy


def setup(workload, seed: int, work: Path):
    """Everything before the first timed request; returns its wall time too."""
    t0 = perf_counter()
    mods = import_lcsk()
    pool = workload.pool(seed)
    files = [write_pair(p, work, f"pool{i}") for i, p in enumerate(pool)]
    warm = workload.warmup_pair(seed)
    warm_files = write_pair(warm, work, "warm")
    length_request(mods, workload.mode, warm, workload.ks[0])
    witness_request(mods, workload.mode, warm_files, workload.ks[0], work / "warm.out")
    return perf_counter() - t0, mods, pool, files


def preflight(workload, mods, seed: int, pool, ledger: Ledger) -> dict:
    """Untimed checks against the oracles and algebraic properties.

    Returns the exact-mode length of every op pool pair at each k, the floor
    each op length request is checked against.
    """
    exact = workload.mode == "exact"
    oracles = mods.oracles
    for idx, p in enumerate(workload.small_pairs(seed)):
        ints = p.xa.tolist(), p.ya.tolist()
        for k in workload.small_ks:
            want = (oracles.naive_lcs_kplus if exact else oracles.naive_op_lcs_kplus)(p.x, p.y, k)

            def check_length(p=p, k=k, want=want):
                got = length_request(mods, workload.mode, p, k)
                return [] if got == want else [f"length {got}, oracle {want}"]

            def check_witness(p=p, k=k, want=want):
                if exact:
                    al = mods.exact.traceback(mods.exact.compute_tables(p.x, p.y, k), p.x, p.y, k)
                else:
                    al = mods.op_lcs.op_traceback(mods.op_lcs.op_lcs_kplus_state(p.x, p.y, k))
                problems = witness_problems(p.xa, p.ya, k, workload.mode, al.total, al.chunks)
                return problems + ([] if al.total == want else [f"witness {al.total}, oracle {want}"])

            def check_other_mode(ints=ints, k=k, want=want):
                """The same integers in the other mode: oracle agreement, op >= exact."""
                if exact:
                    ex, op = want, mods.op_lcs.op_lcs_kplus_length(*ints, k)
                    other, other_want = op, oracles.naive_op_lcs_kplus(*ints, k)
                else:
                    op, ex = want, mods.exact.lcs_kplus_length(*ints, k)
                    other, other_want = ex, oracles.naive_lcs_kplus(*ints, k)
                problems = [] if other == other_want else [f"other mode {other}, oracle {other_want}"]
                return problems + ([] if op >= ex else [f"op {op} < exact {ex}"])

            ledger.attempt(f"small{idx} length k={k}", check_length)
            ledger.attempt(f"small{idx} witness k={k}", check_witness)
            ledger.attempt(f"small{idx} other mode k={k}", check_other_mode)

    # prefixes of the first pool pair: the length never grows with k, and a
    # sequence scores its full length against an order-preserving image of
    # itself (the identity in exact mode, 3v+7 in op mode)
    n = workload.self_len
    x, y = pool[0].x[:n], pool[0].y[:n]
    head = SimpleNamespace(x=x, y=y)
    image = SimpleNamespace(x=x, y=x if exact else [3 * v + 7 for v in x])
    prev: list = []  # the prefix pair's length at each k so far
    for k in workload.small_ks:
        def check_prefix(k=k):
            got = length_request(mods, workload.mode, head, k)
            problems = [f"length {got} at k={k} above {prev[-1]}"] if prev and got > prev[-1] else []
            prev.append(got)
            return problems

        def check_image(k=k):
            score = length_request(mods, workload.mode, image, k)
            return [] if score == n else [f"against its own image: {score}, expected {n}"]

        ledger.attempt(f"prefix k={k}", check_prefix)
        ledger.attempt(f"image k={k}", check_image)

    floors = {}
    if not exact:
        for i, p in enumerate(pool):
            for k in workload.ks:
                def floor(i=i, p=p, k=k):
                    floors[i, k] = mods.exact.lcs_kplus_length(p.x, p.y, k)
                    return []
                ledger.attempt(f"pool{i} exact floor k={k}", floor)
    return floors


def measure(workload, mods, pool, files, floors, seconds: float, ledger: Ledger, work: Path,
            first: dict, tracer: Tracer | None = None, after_round=None):
    """Whole rounds until ``seconds`` have passed; ``after_round``, if given,
    runs between rounds.

    Every request runs between two runs of the reference kernel; returns
    the wall times of each request and the mean of the two reference runs
    around it, across rounds, and the number of rounds.
    """
    times: dict = {req: [] for req in workload.round()}
    refs: dict = {req: [] for req in workload.round()}
    ref_before = reference_seconds()
    rounds = 0
    out = work / "witness.out"
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        lengths: dict = {}
        for req in workload.round():
            pair = pool[req.pair]

            def run(req=req, pair=pair):
                key = (req.kind, req.pair, req.k)
                if tracer is not None:
                    tracer.request = len(tracer.spans)
                    span = tracer.open("bench." + req.kind)
                if req.kind == "witness" and out.exists():
                    out.unlink()
                t0 = perf_counter()
                try:
                    if req.kind == "length":
                        got = length_request(mods, workload.mode, pair, req.k)
                    else:
                        got = witness_request(mods, workload.mode, files[req.pair], req.k, out)
                finally:
                    dt = perf_counter() - t0
                    if tracer is not None:
                        tracer.close(span)
                times[req].append(dt)
                if req.kind == "length":
                    return check_length(workload, req, got, lengths, floors, first, key)
                return check_witness(workload, req, pair, got, out, lengths, first, key)

            ledger.attempt(f"round{rounds} {req}", run)
            ref_after = reference_seconds()
            if len(refs[req]) < len(times[req]):  # the request was timed
                refs[req].append((ref_before + ref_after) / 2)
            ref_before = ref_after
        rounds += 1
        if after_round is not None:
            after_round()
    return times, refs, rounds


def check_length(workload, req, got, lengths, floors, first, key) -> list:
    problems = []
    if first.setdefault(key, got) != got:
        problems.append(f"length {got}, earlier round gave {first[key]}")
    for k in workload.ks:
        if k < req.k and (req.pair, k) in lengths and got > lengths[req.pair, k]:
            problems.append(f"length {got} at k={req.k} above {lengths[req.pair, k]} at k={k}")
    if (req.pair, req.k) in floors and got < floors[req.pair, req.k]:
        problems.append(f"op length {got} below exact length {floors[req.pair, req.k]}")
    lengths[req.pair, req.k] = got
    return problems


def check_witness(workload, req, pair, code, out, lengths, first, key) -> list:
    if code != 0:
        return [f"lcsk exited with {code}"]
    length, total, chunks = parse_cli_witness(out.read_text())
    problems = witness_problems(pair.xa, pair.ya, req.k, workload.mode, total, chunks)
    if length != total:
        problems.append(f"length line {length}, JSON total {total}")
    if total != lengths.get((req.pair, req.k)):
        problems.append(f"witness total {total}, length request {lengths.get((req.pair, req.k))}")
    if first.setdefault(key, chunks) != chunks:
        problems.append("witness differs from an earlier round")
    return problems


def memory_pass(workload, mods, seed: int, ledger: Ledger, work: Path):
    """tracemalloc peak of one length and one witness request, per cell."""
    pair = workload.memory_pair(seed)
    files = write_pair(pair, work, "mem")
    k = workload.ks[len(workload.ks) // 2]
    out = work / "mem.out"
    peaks = {}
    tracemalloc.start()
    try:
        for kind in ("length", "witness"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            if kind == "length":
                got = length_request(mods, workload.mode, pair, k)
            else:
                code = witness_request(mods, workload.mode, files, k, out)
            peaks[kind] = (tracemalloc.get_traced_memory()[1] - base) / pair.cells
    finally:
        tracemalloc.stop()

    def check():
        if code != 0:
            return [f"lcsk exited with {code}"]
        length, total, chunks = parse_cli_witness(out.read_text())
        problems = witness_problems(pair.xa, pair.ya, k, workload.mode, total, chunks)
        return problems + ([] if length == total == got else [f"length {got}, witness {length}/{total}"])

    ledger.attempt("memory pair", check)
    return peaks


def median_seconds(times: dict, kind: str | None = None) -> float:
    """Sum over one round's requests (of one kind) of each one's median wall time."""
    return sum(statistics.median(t) for req, t in times.items() if t and kind in (None, req.kind))


def round_cells(pool, times: dict, kind: str) -> int:
    return sum(pool[req.pair].cells for req, t in times.items() if t and req.kind == kind)


def cells_per_ref(pool, times: dict, refs: dict, kind: str) -> float:
    """Cells of one round's requests of ``kind`` per run of the reference kernel.

    Each request's cost is the median over rounds of its wall time divided by
    the mean of the reference runs just before and after it, so a slow spell
    of the machine, which stretches both, largely cancels.
    """
    cost = sum(statistics.median(a / b for a, b in zip(t, refs[req]))
               for req, t in times.items() if t and req.kind == kind)
    return round_cells(pool, times, kind) / cost


def layer_metrics(workload, mods, pool, tracer: Tracer, rounds: int, traced: dict, untraced: dict) -> dict:
    selfs = tracer.self_times()
    solve = sum(s[END] - s[START] for s in tracer.spans if s[NAME].startswith("bench."))
    metrics = {name: sum(selfs.get(s, 0.0) for s in spans) / rounds for name, spans in LAYER_SPANS.items()}
    accounted = sum(metrics.values()) * rounds
    cells = sum(pool[r.pair].cells for r in workload.round())
    windows: dict = {}  # (pair, k) -> cells with i, j >= k whose op-LCE is >= k
    if workload.mode == "op":
        for r in workload.round():
            if (r.pair, r.k) not in windows:
                p, k = pool[r.pair], r.k
                lce = mods.order_iso.build_oplce_table(p.x[::-1], p.y[::-1]).values
                windows[r.pair, k] = int(np.count_nonzero(lce[1 : len(p.xa) - k + 2, 1 : len(p.ya) - k + 2] >= k))
    window = sum(windows.get((r.pair, r.k), 0) for r in workload.round())
    metrics.update({
        "exact.table_bytes": tracer.bytes.get("exact.table_bytes", 0) / rounds,
        "exact.cells": cells if workload.mode == "exact" else 0,
        "order_iso.lce_table_bytes": tracer.bytes.get("order_iso.lce_table_bytes", 0) / rounds,
        "rmq.prepend_calls": tracer.prepend_calls / rounds,
        "rmq.query_calls": tracer.query_calls / rounds,
        "op_lcs.window_queries": window,
        "op_lcs.cells": cells if workload.mode == "op" else 0,
        "cli.input_bytes": sum(len(pool[r.pair].text_x) + len(pool[r.pair].text_y)
                               for r in workload.round() if r.kind == "witness"),
        "trace.solve_s": solve / rounds,
        "trace.accounted": accounted / solve,
        "trace.overhead": median_seconds(traced) / median_seconds(untraced) - 1.0,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lcsk" / "__init__.py").is_file():
        print(f"benchmark: no lcsk sources at {src}; run it from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    print("# env " + json.dumps(environment()))

    ledger = Ledger()
    phases = {"start": perf_counter()}
    first_setup, mods, pool, files = setup(workload, args.seed, work)
    setup_times = [first_setup]
    phases["setup"] = perf_counter()
    floors = preflight(workload, mods, args.seed, pool, ledger)
    phases["checks"] = perf_counter()
    first: dict = {}
    common = (workload, mods, pool, files, floors)
    if args.trace:
        # untraced and traced rounds alternate, so both see the same load on
        # the machine and their ratio is the tracing overhead
        tracer = Tracer()
        untraced: dict = {req: [] for req in workload.round()}
        traced: dict = {req: [] for req in workload.round()}
        rounds = 0
        start = perf_counter()
        while rounds == 0 or perf_counter() - start < args.seconds:
            for req, t in measure(*common, 0, ledger, work, first)[0].items():
                untraced[req] += t
            with instrument(tracer, mods):
                for req, t in measure(*common, 0, ledger, work, first, tracer)[0].items():
                    traced[req] += t
            rounds += 1
        phases["measure"] = perf_counter()
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
        values = layer_metrics(workload, mods, pool, tracer, rounds, traced, untraced)
        units = PER_LAYER
    else:
        # set-up is repeated after every round, so its median samples the
        # machine over the whole run rather than one burst at the start
        def repeat_setup():
            setup_times.append(setup(workload, args.seed, work)[0])

        timed, refs, rounds = measure(*common, args.seconds, ledger, work, first, after_round=repeat_setup)
        phases["measure"] = perf_counter()
        for kind in ("length", "witness"):
            wall = round_cells(pool, timed, kind) / median_seconds(timed, kind)
            print(f"# {kind} wall-clock throughput (not a metric; machine-load dependent) = {wall:.6g} cells/s")
        print(f"# reference kernel median = {statistics.median(sum(refs.values(), [])):.6g} s")
        peaks = memory_pass(workload, mods, args.seed, ledger, work)
        phases["memory"] = perf_counter()
        values = {
            "setup_s": statistics.median(setup_times),
            "length_cells_per_ref": cells_per_ref(pool, timed, refs, "length"),
            "witness_cells_per_ref": cells_per_ref(pool, timed, refs, "witness"),
            "length_peak_bytes_per_cell": peaks["length"],
            "witness_peak_bytes_per_cell": peaks["witness"],
        }
        units = END_TO_END
    names = list(phases)
    spent = " ".join(f"{b}={phases[b] - phases[a]:.2f}s" for a, b in zip(names, names[1:]))
    print(f"# {workload.name} seed={args.seed} rounds={rounds} attempted={ledger.attempted} "
          f"failed={ledger.failed} {spent}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
