"""In-memory span tracer that wraps pacshift's public functions from outside.

The tracer replaces module attributes with timing wrappers, so the library
itself is unchanged. Each wrapped call records one span
``(span_id, parent_id, op_id, name, start, end)``; a few boundaries also
record counts (cells parsed, rows drawn, exceptions raised). Spans stay in
memory until the run writes them out.

A function is rebound under every module name its callers look it up by
(``harness`` imports ``psw_threshold`` by name, ``psc_threshold`` calls
``predsets.ps_threshold``, ...). The span name is the defining module and
function, so every call site of one function lands in one layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# Module -> names whose calls become spans.
SPANNED = {
    "pacshift.harness": (
        "sample_shifted",
        "weight_box",
        "bbse_point_weights",
        "estimate_confusion",
        "estimate_qhat",
        "ps_threshold",
        "psw_threshold",
        "psc_threshold",
        "psr_threshold",
        "wcp_threshold",
        "evaluate_set",
    ),
    "pacshift.predsets": ("binom_k", "ps_threshold", "psw_threshold"),
    "pacshift.weights": (
        "weight_box",
        "estimate_confusion",
        "estimate_qhat",
        "cp_bounds",
        "interval_gauss_elim",
    ),
    "pacshift.cli": ("read_scores", "weight_box", "psw_threshold"),
}

# Module -> names whose calls are only counted. cp_bounds makes K(K+1) of
# these; a span each would make the tracer a large share of cp_bounds.
COUNTED = {"pacshift.weights": ("cp_interval",)}


def _rows_drawn(tables):
    return "shift_sim.rows", sum(t.n for t in tables)


def _cells_parsed(table):
    return "cli.cells_parsed", table.n * (table.k + int(table.is_labeled))


# Span name -> function of the call's result giving (count name, amount).
RESULT_COUNTS = {
    "shift_sim.sample_shifted": _rows_drawn,
    "cli.read_scores": _cells_parsed,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans and counts while installed; uninstall restores the library."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def count(self, name: str, amount: int = 1):
        self.counts[(self.op_id, name)] += amount

    def _spanned(self, fn, name):
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{name}:{type(exc).__name__}")
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.op_id, name, start, end))
            if on_result is not None:
                self.count(*on_result(out))
            return out

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attrs in table.items():
                module = importlib.import_module(module_name)
                for attr in attrs:
                    fn = getattr(module, attr)
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, make(fn, span_name(fn)))

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def root(self, op_id, name: str):
        """The op's root span; the library is wrapped only inside it."""
        self.op_id = op_id
        sid = self._new_id()
        self._stack.append(sid)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans.append((sid, None, op_id, name, start, end))
            self.op_id = None

    def add(self, spans, counts, op_id):
        """Merge spans/counts recorded by another process under `op_id`."""
        offset = self._next_id
        for sid, parent, _, name, start, end in spans:
            self.spans.append(
                (sid + offset, None if parent is None else parent + offset, op_id, name, start, end)
            )
            self._next_id = max(self._next_id, sid + offset)
        for name, amount in counts.items():
            self.counts[(op_id, name)] += amount

    def export(self) -> dict:
        """Spans and counts of a single op, as JSON-ready lists."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": {name: n for (_, name), n in self.counts.items()},
        }


def self_times(spans) -> list[tuple]:
    """(op_id, name, parent_name, self seconds) per span.

    Self time is the span's duration minus the durations of its direct
    children; wrapped calls never overlap within one thread.
    """
    names = {s[0]: s[3] for s in spans}
    child_total: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_total[parent] += end - start
    return [
        (op, name, names.get(parent), (end - start) - child_total[sid])
        for sid, parent, op, name, start, end in spans
    ]
