"""In-memory span tracer that wraps public library functions from outside.

A wrapped function is replaced at every module binding that holds it
(``localmatch.matching.optimal_matching``, ``localmatch.certificates.
optimal_matching``, the package re-export, ...).  Python resolves module
globals at call time, so calls made inside the library, such as
``ratio_report`` calling ``optimal_matching``, are caught as well.

Each span records its name, start, end, parent, its busy time (time on the
tracer stack) and the busy time of its child spans, so self time is
``busy - child``.  A generator function gets one span whose busy time is
the time spent producing items, excluding the consumer's loop body.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional

Hook = Callable[[tuple, dict, object], dict]

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "busy", "child", "seg", "info")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.busy = 0.0
        self.child = 0.0
        self.info: dict = {}
        self.start = self.seg = self.end = _now()

    @property
    def self_s(self) -> float:
        return self.busy - self.child


class Tracer:
    """Spans kept in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._targets: list[tuple[str, str, Optional[Hook]]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def resume(self, span: Span) -> None:
        span.seg = _now()
        self._stack.append(span)

    def close(self, span: Span) -> None:
        t = _now()
        seg = t - span.seg
        span.busy += seg
        span.end = t
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += seg

    def dump(self, path: Path) -> None:
        """Write one JSON line per span: name, start, end, parent line
        (-1 for none), busy and self seconds."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                parent = index[id(span.parent)] if span.parent is not None else -1
                out.write(json.dumps([span.name, span.start, span.end, parent, span.busy, span.self_s]))
                out.write("\n")

    # -- wrapping ---------------------------------------------------------

    def target(self, module: str, name: str, hook: Optional[Hook] = None) -> None:
        """Register ``module.name`` for wrapping; ``hook(args, kwargs,
        result)`` returns extra span info, computed after the span closes."""
        self._targets.append((module, name, hook))

    def install(self) -> None:
        for module_name, name, hook in self._targets:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(f"{module_name.rsplit('.', 1)[-1]}.{name}", original, hook)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "localmatch":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, span_name: str, fn, hook: Optional[Hook]):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def produce(span: Span, it):
                while True:
                    tracer.resume(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = tracer.open(span_name)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if hook is not None:
                    span.info = hook(args, kwargs, None)
                return produce(span, it)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return wrapper
