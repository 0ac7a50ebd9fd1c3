"""Spans recorded from outside the package, by wrapping its public functions.

``instrument`` replaces each traced function at the module attribute its
callers look it up through (``lcsk.cli.compute_tables``,
``lcsk.exact.match_run_table``, ...), and the two ``DiagonalMaxQueue``
methods on the class, then restores the originals.  Nothing under ``src/``
knows it is being traced.

A span is ``[id, name, start, end, parent, request, rmq_s]``.  The queue
methods run once or twice per op cell, far too often for a span each, so
their time is summed into the ``rmq_s`` field of the enclosing span and their
calls are counted on the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

import numpy as np

# (module, attribute) of every function that gets a span; the span is named
# after the module that defines the function, so lcsk.cli.compute_tables
# records "exact.compute_tables"
TRACED = (
    ("exact", "lcs_kplus_length"),
    ("exact", "match_run_table"),
    ("op_lcs", "op_lcs_kplus_length"),
    ("op_lcs", "build_oplce_table"),
    ("cli", "main"),
    ("cli", "lcs_kplus_length"),
    ("cli", "compute_tables"),
    ("cli", "traceback"),
    ("cli", "op_lcs_kplus_length"),
    ("cli", "op_lcs_kplus_state"),
    ("cli", "op_traceback"),
)

# results whose numpy arrays are summed into a per-layer byte count
SIZED = {"exact.compute_tables": "exact.table_bytes", "order_iso.build_oplce_table": "order_iso.lce_table_bytes"}

ID, NAME, START, END, PARENT, REQUEST, RMQ_S = range(7)


class Tracer:
    """Keeps spans and counters in memory; ``write`` saves them at the end."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = None
        self.prepend_calls = 0
        self.query_calls = 0
        self.bytes: dict = {}

    def open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        span = [len(self.spans), name, perf_counter(), None, parent, self.request, 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def self_times(self) -> dict:
        """Span name -> summed self time: duration minus child spans and rmq calls."""
        inner = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                inner[s[PARENT]] += s[END] - s[START]
        out: dict = {}
        for s in self.spans:
            own = s[END] - s[START] - inner[s[ID]] - s[RMQ_S]
            out[s[NAME]] = out.get(s[NAME], 0.0) + own
        out["rmq"] = sum(s[RMQ_S] for s in self.spans)
        return out

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "request": s[REQUEST], "rmq_s": s[RMQ_S],
                }) + "\n")


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _span_wrapper(tracer: Tracer, fn):
    name = fn.__module__.rpartition(".")[2] + "." + fn.__name__
    sized = SIZED.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if sized:
            tracer.bytes[sized] = tracer.bytes.get(sized, 0) + _array_bytes(result)
        return result

    return wrapper


def _queue_wrappers(tracer: Tracer, prepend, rmq_front):
    def traced_prepend(q, *args):
        t0 = perf_counter()
        prepend(q, *args)
        tracer.stack[-1][RMQ_S] += perf_counter() - t0
        tracer.prepend_calls += 1

    def traced_rmq_front(q, *args):
        t0 = perf_counter()
        result = rmq_front(q, *args)
        tracer.stack[-1][RMQ_S] += perf_counter() - t0
        tracer.query_calls += 1
        return result

    return traced_prepend, traced_rmq_front


@contextlib.contextmanager
def instrument(tracer: Tracer, mods):
    """Route the traced functions of ``mods`` through ``tracer`` while open.

    A function a later version of the package no longer has is skipped; its
    layer then reads 0.
    """
    saved = []
    try:
        for mod_name, attr in TRACED:
            mod = getattr(mods, mod_name)
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, _span_wrapper(tracer, fn))
        queue = getattr(mods.rmq, "DiagonalMaxQueue", None)
        if queue is not None:
            prepend, rmq_front = queue.prepend, queue.rmq_front
            saved += [(queue, "prepend", prepend), (queue, "rmq_front", rmq_front)]
            queue.prepend, queue.rmq_front = _queue_wrappers(tracer, prepend, rmq_front)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
