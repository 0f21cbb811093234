"""Spans and counters at the boundaries of the program's modules.

``Tracer.install`` wraps every public function of the program's
modules, plus ``RatMatrix.__matmul__`` (as ``linalg.matmul``), and
rebinds each wrapped name in every module of the package that holds it,
so calls between modules go through the wrapper too.  ``uninstall``
restores the originals.

A span is ``[name, start, end, parent, outer]``: ``start``/``end`` bound
the call itself, ``outer`` also covers the wrapper's own bookkeeping.
A span's self time is its duration minus the ``outer`` of its children,
so the bookkeeping is charged to no layer.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "tableau", "involutivity", "guillemin", "moduli",
          "document", "cli")
PACKAGE = "involutive"
FIND_BASIS = "tableau.find_generic_basis"


def _max_bits(data) -> int:
    return max((max(abs(e.numerator).bit_length(), e.denominator.bit_length())
                for e in data), default=0)


def _rref(c, args, result):
    m = args["m"]
    c["linalg.rref.entries"] += m.rows * m.cols
    c["linalg.max_entry_bits"] = max(c["linalg.max_entry_bits"],
                                     _max_bits(m.entries()),
                                     _max_bits(result[0].entries()))


def _prolongation(c, args, result):
    c["involutivity.prolongation_dimension.entries"] += (result.rows
                                                         * result.cols)


def _endovolutive(c, args, result):
    c["involutivity.search_endovolutive_basis.found"] += result is not None


def _export(c, args, result):
    c["moduli.export_ideal.generators"] += len(result)


def _census(c, args, result):
    c["moduli.enumerate_census.assignments"] += result.total_assignments


def _sample(c, args, result):
    c["moduli.sample_involutive.kept"] += len(result)
    c["moduli.sample_involutive.drawn"] += args["count"]


# Counters recorded where the work happens: f(counters, arguments by
# name, result), called only when the call returns normally.
COUNTERS = {
    "linalg.rref": _rref,
    "involutivity.prolongation_matrix": _prolongation,
    "involutivity.search_endovolutive_basis": _endovolutive,
    "moduli.export_ideal": _export,
    "moduli.enumerate_census": _census,
    "moduli.sample_involutive": _sample,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = defaultdict(int)
        self._restore: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        count = COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None

        def wrapper(*args, **kwargs):
            t_pre = perf_counter()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                span[4] = span[2] - t_pre
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(counters, bound.arguments, result)
                span[4] = perf_counter() - t_pre
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, wrapped)
                            self._restore.append((holder, key, fn))
        matrix = sys.modules[f"{PACKAGE}.linalg"].RatMatrix
        original = matrix.__matmul__
        matrix.__matmul__ = self._wrap("linalg.matmul", original)
        self._restore.append((matrix, "__matmul__", original))

    def uninstall(self):
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    # -- recording ----------------------------------------------------------

    def run(self, fn):
        """Call ``fn`` under a root span named ``op``."""
        return self._wrap("op", fn)()

    def take(self):
        """Per-name self seconds and call counts of the recorded spans,
        rref calls under the generic-basis search, and the spans
        themselves; clears the span list."""
        spans = self.spans
        children = [0.0] * len(spans)
        under = [False] * len(spans)
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        elims = 0
        for idx, (name, start, end, parent, outer) in enumerate(spans):
            if parent >= 0:
                children[parent] += outer
                under[idx] = under[parent] or spans[parent][0] == FIND_BASIS
            if name == "linalg.rref" and under[idx]:
                elims += 1
        for idx, (name, start, end, parent, outer) in enumerate(spans):
            self_s[name] += end - start - children[idx]
            calls[name] += 1
        taken = list(spans)
        spans.clear()
        return self_s, calls, elims, taken
