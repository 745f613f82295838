"""Timing shims around the `idealhash` modules' functions, installed from outside.

`Tracer.install()` replaces every public module-level function of each
layer (plus the named private coverage kernel `construct._exceed_mask`) with
a wrapper that records a span, and rebinds every reference other modules
imported by name, including function tuples such as `checks.ALL_CHECKS`.
`uninstall()` restores the originals.  Nothing under `src/` changes.

A span's self time is its duration minus the durations of its direct child
spans, so the self times inside one root span add up to the root's
duration.  Generator functions are timed per `next()`, which is where their
work happens.  An observer, keyed by span name, sees each call's arguments,
result and self time and may add counters to the span's statistics.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = (
    "cli",
    "hashspace",
    "oracle",
    "construct",
    "distributions",
    "bounds",
    "checks",
    "simulate",
    "combinatorics",
)
PRIVATE_SPANS = {"construct._exceed_mask"}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0  # values yielded, for generator functions
    extra: dict = field(default_factory=lambda: defaultdict(int))
    kept: list = field(default_factory=list)  # values an observer keeps for after the pass


class Tracer:
    """Collects spans into per-function statistics while installed."""

    def __init__(self, observers: dict | None = None) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.roots: list[tuple[str, float, float]] = []  # (name, duration, sum of self times)
        self._observers = observers or {}
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._root_self = 0.0
        self._saved: list[tuple[object, str, object]] = []

    @property
    def root_s(self) -> float:
        """Total duration of the root spans."""
        return sum(dt for _name, dt, _own in self.roots)

    # -- recording ---------------------------------------------------------

    def _close(self, name: str, frame: list[float], dt: float) -> float:
        st = self.stats[name]
        own = dt - frame[0]
        st.calls += 1
        st.total_s += dt
        st.self_s += own
        self._root_self += own
        if self._stack:
            self._stack[-1][0] += dt
        else:
            self.roots.append((name, dt, self._root_self))
            self._root_self = 0.0
        return own

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)
        stack, close = self._stack, self._close

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                st = self.stats[name]
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = time.perf_counter() - t0
                        stack.pop()
                        own = close(name, frame, dt)
                    st.items += 1
                    if observe:
                        observe(st, args, kwargs, item, own)
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                own = close(name, frame, dt)
            if observe:
                observe(self.stats[name], args, kwargs, result, own)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"idealhash.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and name not in PRIVATE_SPANS:
                    continue
                wrapped[id(obj)] = self._wrap(name, obj)
        for mod in [*modules.values(), importlib.import_module("idealhash")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    new = wrapped[id(obj)]
                elif isinstance(obj, tuple) and obj and any(id(x) in wrapped for x in obj):
                    new = tuple(wrapped.get(id(x), x) for x in obj)
                else:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
