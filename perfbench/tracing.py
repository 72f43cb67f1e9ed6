"""Span tracing for the benchmark's traced run.

The traced run wraps each layer's entry points from the benchmark's own
files (nothing under ``src/`` changes) and records one span per call:
its layer, name, start, end, thread and parent span.  Spans of one
request share the request's op index through a :mod:`contextvars`
variable, which ``asyncio.to_thread`` copies into the worker thread, so
the engine spans recorded there hang under the service span that
awaited them.

Spans are kept in memory and written out once, when the run ends.  A
layer's self time is its span's duration minus the part of that
interval its child spans cover; :func:`self_times` does that arithmetic
and is independent of which thread a span ran on.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping

#: ``(op index or None, span id)`` of the innermost open span.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_current_span", default=None
)


class Span:
    """One timed call.  ``op`` is the index of the request it served
    (None for set-up work); ``count`` and ``extra`` carry what the
    wrapper's ``after`` hook read off the call (pairs scored, rows,
    stage timings)."""

    __slots__ = (
        "sid", "parent", "op", "layer", "name", "start", "end", "thread",
        "count", "extra",
    )

    def __init__(self, sid, parent, op, layer, name, start, thread):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.thread = thread
        self.count = 0
        self.extra = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict:
        return {
            "sid": self.sid, "parent": self.parent, "op": self.op,
            "layer": self.layer, "name": self.name, "start": self.start,
            "end": self.end, "thread": self.thread, "count": self.count,
            "extra": self.extra,
        }


class Tracer:
    """An in-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: The client's open op span, adopted by the server task that
        #: handles its connection (one connection at a time).
        self.active: tuple | None = None

    # -- recording ---------------------------------------------------------

    def open(self, layer: str, name: str, op=None):
        """Open a span under the current one (or a root span for ``op``
        when ``op`` is given) and make it current."""
        current = _CURRENT.get()
        parent = None
        if op is None and current is not None:
            op, parent = current
        span = Span(
            next(self._ids), parent, op, layer, name, self.clock(),
            threading.get_ident(),
        )
        self.spans.append(span)
        return span, _CURRENT.set((op, span.sid))

    def close(self, span: Span, token) -> None:
        span.end = self.clock()
        _CURRENT.reset(token)

    def adopt(self, binding: tuple | None):
        """Make ``binding`` (an ``(op, span id)`` pair) the current span
        of this context; returns the token for :func:`release`."""
        return _CURRENT.set(binding)

    @staticmethod
    def release(token) -> None:
        _CURRENT.reset(token)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str, after, cold):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, token = tracer.open(layer, name)
                try:
                    result = await fn(*args, **kwargs)
                    if after is not None:
                        after(span, args, kwargs, result)
                    return result
                finally:
                    tracer.close(span, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cold is not None and not cold(args):
                return fn(*args, **kwargs)
            span, token = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                tracer.close(span, token)

        return traced

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        name: str | None = None,
        after: Callable | None = None,
        cold: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a method defined
        on the class ``owner``) with a span-recording wrapper.

        ``after(span, args, kwargs, result)`` runs on success to attach
        counts; ``cold(args)`` returning False skips the span (the call
        still runs).  :meth:`uninstall` restores every original.
        """
        raw = vars(owner)[attr]
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(
                self._wrap(raw.__func__, layer, label, after, cold)
            )
        else:
            replacement = self._wrap(raw, layer, label, after, cold)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def wrap_item(
        self, mapping: dict, key: str, layer: str, name: str,
        after: Callable | None = None,
    ) -> None:
        """Wrap one entry of a dispatch table (``ALGORITHMS``).  The
        wrapper keeps the entry's attributes (``kernel_access``), which
        the engine reads to plan kernel storage."""
        original = mapping[key]
        mapping[key] = self._wrap(original, layer, name, after, None)
        self._patches.append((mapping, key, original))

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` outright (restored by :meth:`uninstall`)."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()))
                fh.write("\n")


# -- analysis ---------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of its own
    interval that its children cover (children are clipped to the
    parent, overlapping children are counted once, and a child may run
    on another thread)."""
    spans = list(spans)
    children = children_of(spans)
    result = {}
    for span in spans:
        end = span.end if span.end is not None else span.start
        clipped = [
            (max(child.start, span.start), min(child.end, end))
            for child in children.get(span.sid, ())
            if child.end is not None
        ]
        result[span.sid] = (end - span.start) - covered_length(clipped)
    return result


def layer_self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Summed self time per layer."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.sid]
    return dict(totals)


def outermost(spans: Iterable[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in it, so a
    recursive call (``engine.run`` on a retrieved pool) counts once."""
    spans = list(spans)
    by_id: Mapping[int, Span] = {span.sid: span for span in spans}
    found = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Span id → the spans opened directly under it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def first_foreign_start(
    children: Mapping[int, list[Span]], root: Span
) -> float | None:
    """The earliest start among ``root``'s descendants that run on
    another thread than ``root`` (the engine call behind a thread hop),
    or None when every descendant stayed on ``root``'s thread.
    ``children`` is :func:`children_of` over the op's spans."""
    earliest = None
    stack = list(children.get(root.sid, ()))
    while stack:
        span = stack.pop()
        if span.thread != root.thread:
            if earliest is None or span.start < earliest:
                earliest = span.start
            continue
        stack.extend(children.get(span.sid, ()))
    return earliest
