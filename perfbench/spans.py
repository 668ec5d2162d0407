"""In-memory spans and the timing wrappers the traced run installs.

A hook names a module attribute that callers look up at call time, such as
``fdrelay.montecarlo.direct_channel_batch``. While hooks are installed each
call through that attribute records one span (name, start, end, parent span,
op id) and, optionally, counters taken from its arguments and result. Spans
stay in memory; the caller writes them out once at the end of a run.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int


class Tracer:
    """Span and counter registry of one process; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, k=1) -> None:
        self.counts[name] += k

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s, dur in zip(self.spans, list(own)):
            if s.parent >= 0:
                own[s.parent] -= dur
        return own


@dataclass(frozen=True)
class Hook:
    """Time calls through ``module.attr`` as spans named ``span``.

    ``count(tracer, bound_args, result)`` adds counters after each call;
    ``bound_args`` maps every parameter name, defaults included, to its
    value. With ``warnings_counter`` set, warnings raised inside the call
    are counted under that name and then re-issued unchanged.
    """

    module: str
    attr: str
    span: str
    count: Optional[Callable] = None
    warnings_counter: Optional[str] = None


def _wrap(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    signature = inspect.signature(fn) if hook.count else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(hook.span)
        try:
            if hook.warnings_counter:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook.warnings_counter:
            tracer.count(hook.warnings_counter, len(caught))
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if hook.count:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook.count(tracer, bound.arguments, result)
        return result

    return wrapper


@contextlib.contextmanager
def hooked(tracer: Tracer, hooks):
    """Install every hook whose target exists; restore all of them on exit.

    Yields the list of ``module.attr`` names that could not be hooked
    because the module or the attribute no longer exists.
    """
    installed = []
    missing = []
    try:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                missing.append(f"{hook.module}.{hook.attr}")
                continue
            original = getattr(module, hook.attr, None)
            if not callable(original):
                missing.append(f"{hook.module}.{hook.attr}")
                continue
            installed.append((module, hook.attr, original))
            setattr(module, hook.attr, _wrap(tracer, hook, original))
        yield missing
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)
