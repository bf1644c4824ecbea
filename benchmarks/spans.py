"""Span tracing installed from outside the library.

``instrument`` replaces every public function of the six hookshift
modules, wherever a module holds a reference to it, and the arithmetic
methods of ExactPolynomial, with wrappers that time each call.  The
library's source is not touched.  Each call keeps a frame on a stack so
that a name's self time is its duration minus the time of the traced
calls it made.

Calls are aggregated per name (calls, seconds, self seconds).  Spans
(name, start, end, parent) are kept for the coarse calls in RECORDED and
for the harness's work units; the per-call spans of the hot leaf
functions would outweigh the work they measure, so those stay
aggregated.

A work unit is a maximal run of consecutive calls made directly by
``run_sweep`` that share an (identity, n) key: ``check_identity`` at a
partition of n, or a Schur call at degree n (keyed THM_1_2).  When this
was written that was the harness's own work unit at one worker.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("partitions", "polynomials", "identities", "schur", "harness", "cli")
POLY_METHODS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__neg__": "neg",
    "__call__": "evaluate",
    "shift": "shift",
}
RECORDED = frozenset({
    "cli.main",
    "harness.run_sweep",
    "harness.render_report",
    "schur.schur_lhs",
    "schur.schur_rhs",
    "schur.check_theorem_1_2",
    "schur.check_schur_recurrences",
    "schur.to_monomial",
})
RUN_SWEEP = "harness.run_sweep"
CACHED = ("partitions.hook_product", "identities.g_poly")


# the (identity, n) key of each call that does a work unit's checks
_UNIT_KEYS = {
    "identities.check_identity": lambda args: (args[0].value, args[1].size),
    "schur.to_monomial": lambda args: ("THM_1_2", args[0].degree),
    "schur.check_theorem_1_2": lambda args: ("THM_1_2", args[0]),
    "schur.check_schur_recurrences": lambda args: ("THM_1_2", args[0]),
    "schur.schur_lhs": lambda args: ("THM_1_2", args[0]),
    "schur.schur_rhs": lambda args: ("THM_1_2", args[0]),
}


class Tracer:
    """Per-name call statistics, coarse spans and work units of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # frame: [child seconds, name, id of the nearest recorded span]
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.spans: list[list] = []  # [name, start, end, parent span id]
        self.units: list[list] = []  # [key, start, end, parent span id]
        self.by_key: dict[tuple, float] = {}  # (identity, n) -> seconds in keyed calls
        self.checks: dict[str, list] = {}  # identity -> [seconds, checks]
        self.originals: dict[str, object] = {}

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            return self._wrap_generator(name, fn)
        stats = self.stat(name)
        stack, clock = self.stack, self.clock
        special = name in RECORDED or name in _UNIT_KEYS

        def traced(*args, **kwargs):
            parent_rec = stack[-1][2] if stack else None
            rec = self._open_span(name, parent_rec) if name in RECORDED else parent_rec
            frame = [0.0, name, rec]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if special:
                self._close(name, rec, args, result, start, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is timed as a call of ``name``;
        ``calls`` counts generators created."""
        stats = self.stat(name)
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            stats[0] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = [0.0, name, stack[-1][2] if stack else None]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dur = clock() - start
                    stack.pop()
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                yield item

        traced.__wrapped__ = fn
        return traced

    def _open_span(self, name: str, parent) -> int:
        self.spans.append([name, self.clock() - self.origin, None, parent])
        return len(self.spans) - 1

    def _close(self, name, rec, args, result, start, end):
        if name in RECORDED:
            self.spans[rec][2] = end - self.origin
        if name == "identities.check_identity":
            entry = self.checks.setdefault(args[0].value, [0.0, 0])
            entry[0] += end - start
            entry[1] += len(result)
        if not self.stack or self.stack[-1][1] != RUN_SWEEP or name not in _UNIT_KEYS:
            return
        key = _UNIT_KEYS[name](args)
        self.by_key[key] = self.by_key.get(key, 0.0) + (end - start)
        parent = self.stack[-1][2]
        last = self.units[-1] if self.units else None
        if last is not None and last[0] == key and last[3] == parent:
            last[2] = end - self.origin
        else:
            self.units.append([key, start - self.origin, end - self.origin, parent])

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of the cached functions so far; (0, 0) once a
        function has no cache."""
        out = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            out[name] = (info().hits, info().misses) if info else (0, 0)
        return out


def instrument(tracer: Tracer) -> None:
    """Route every call into a hookshift layer through ``tracer``."""
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"hookshift.{layer}")
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(inspect.unwrap(obj))
                or getattr(obj, "__module__", None) != mod.__name__
            ):
                continue
            name = f"{layer}.{attr}"
            tracer.originals[name] = obj
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "hookshift" and not mod_name.startswith("hookshift."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    poly = sys.modules["hookshift.polynomials"].ExactPolynomial
    by_function: dict[int, object] = {}
    for method, short in POLY_METHODS.items():
        fn = poly.__dict__.get(method)
        if fn is None:
            continue
        if id(fn) not in by_function:
            by_function[id(fn)] = tracer.wrap(f"polynomials.{short}", fn)
        setattr(poly, method, by_function[id(fn)])
