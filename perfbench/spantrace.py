"""Span tracing of copcd from outside the package.

`Tracer.installed()` wraps every public function defined in a copcd module
and puts the wrapper under every name a copcd module holds the function by,
so a name imported with `from .raster import load_raster` is traced where
its caller looks it up. Each call becomes a span (name, parent, start, end,
counts) kept in memory. A copcd module that holds `ThreadPoolExecutor` gets
a subclass that runs each task in a copy of the submitting context, so
spans opened in pool threads attach to the span that submitted them.
Leaving the context restores every original name.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "copcd"

_current = contextvars.ContextVar("perfbench_span", default=None)


class _ContextPool(ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _count_regions(args, result):
    return {"regions": result.count}


def _count_load(args, result):
    return {"bytes": result.data.nbytes}


def _count_tau(args, result):
    n = len(args[0])
    return {"n": n, "pairs": n * (n - 1) // 2}


def _count_em(args, result):
    _params, trace = result
    return {"iters": len(trace.rows) - 1, "converged": int(trace.status == "converged")}


# Work counts taken from a call's arguments and result, by span name.
COUNTERS = {
    "segmentation.slic": _count_regions,
    "segmentation.cosegment": _count_regions,
    "raster.load_raster": _count_load,
    "dependence.kendall_tau": _count_tau,
    "emfit.fit": _count_em,
}


class Span:
    """One traced call: ids, perf_counter interval, thread and work counts."""

    __slots__ = ("sid", "parent", "name", "start", "end", "thread", "counts")

    def __init__(self, sid, parent, name, start, end, thread, counts):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.counts = counts

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects the spans of calls into copcd made while it is installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        with self._lock:
            sid = next(self._ids)
        token = _current.set(sid)
        parent = token.old_value if token.old_value is not contextvars.Token.MISSING else None
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = time.perf_counter()
            _current.reset(token)
            counts = counter(args, result) if counter and result is not None else {}
            self._record(Span(sid, parent, name, start, end,
                              threading.get_ident(), counts))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and id(obj) not in wrappers):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        patched = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                new = wrappers.get(id(obj))
                if new is None and obj is ThreadPoolExecutor:
                    new = _ContextPool
                if new is not None:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, new)
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)
