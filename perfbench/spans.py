"""Outside-in span tracing of ticketsim's layers.

The benchmark, not the program, records the spans: ``instrument`` replaces
each target function with a wrapper in every loaded ``ticketsim.*`` module
that holds a reference to it. Modules that import a function by name (as
``harness`` and ``market`` import the samplers) hold their own reference,
so wrapping only the defining module would miss those calls.

A span is (name, start, end, parent). Spans stay in memory and are written
out when the benchmark ends. A span's self time is its duration minus the
durations of its children; calls run on one thread, so children never
overlap. With ``memory=True`` every span also records its peak traced
memory above the level at its start, using ``tracemalloc.reset_peak`` at
each boundary so that nested spans each see their own peak. Targets'
``arg_hook``s (which count work inside a call) run only in that memory pass,
so the timing passes time the unmodified calls.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

MB = 1024.0 * 1024.0

# (bound arguments with defaults applied, return value) -> counts for the span
Counter = Callable[[dict, object], dict]
# bound arguments -> bound arguments to call with (used to count oracle terms)
ArgHook = Callable[[dict, "Span"], dict]


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    peak_bytes: Optional[int] = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A public function to wrap, and how to count its work."""

    module: str
    attr: str
    counter: Optional[Counter] = None
    arg_hook: Optional[ArgHook] = None

    @property
    def span_name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Records spans for one pass; not shared between passes."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counter_errors: list[str] = []
        self._open: list[int] = []
        self._levels: list[list[int]] = []  # per open span: [bytes at start, highest seen]

    def _enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name=name, start=0.0, parent=parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._levels:
                self._levels[-1][1] = max(self._levels[-1][1], peak)
            tracemalloc.reset_peak()
            self._levels.append([current, current])
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            start, highest = self._levels.pop()
            highest = max(highest, peak)
            span.peak_bytes = highest - start
            if self._levels:
                self._levels[-1][1] = max(self._levels[-1][1], highest)
            tracemalloc.reset_peak()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        name = target.span_name
        arg_hook = target.arg_hook if self.memory else None

        def traced(*args, **kwargs):
            bound = None
            if target.counter is not None or arg_hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            span = self._enter(name)
            try:
                if arg_hook is not None:
                    arguments = arg_hook(dict(bound.arguments), span)
                    result = fn(**arguments)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if target.counter is not None:
                try:
                    span.counts.update(target.counter(dict(bound.arguments), result))
                except Exception as exc:  # a counter must not break the program under test
                    self.counter_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    def self_seconds(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def to_records(self) -> list[dict]:
        own = self.self_seconds()
        return [
            {
                "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "self_ms": own[i] * 1000.0,
                **({"peak_mb": s.peak_bytes / MB} if s.peak_bytes is not None else {}),
                **s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


def _ticketsim_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ticketsim" or name.startswith("ticketsim."))]


@contextmanager
def instrument(tracer: Tracer, targets: list[Target]) -> Iterator[list[str]]:
    """Wrap every reference to each target; restore the originals on exit.

    Yields the span names of targets absent from the loaded program.
    """
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    missing = []
    for target in targets:
        module = sys.modules.get(target.module)
        fn = getattr(module, target.attr, None) if module is not None else None
        if fn is None:
            missing.append(target.span_name)
            continue
        wrappers[id(fn)] = (fn, tracer.wrap(target, fn))

    patched = []
    for module in _ticketsim_modules():
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield missing
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
