"""Span tracing from outside the program.

The traced run wraps public functions of ``repro`` (class methods,
classmethods and module functions) with timing shims; nothing inside
``src/repro`` knows it is being traced.  Each call records one span:
its id, its parent span (the innermost traced call still open on the
same thread), name, layer, start, end, thread and an optional work
size.  The serving layer also records one ``serving.queue_wait`` span
per request, from the request's scheduled send time to the start of the
flush that scored it, tagged with the request id.

Spans are appended under a lock (flushes run on the engine's worker
thread while the load generator submits from another) and stay in
memory until :meth:`Tracer.dump` writes them out at the end of a run.
A span's *self time* is its duration minus the part covered by child
spans on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "Span"]


class Span:
    __slots__ = ("span_id", "parent", "name", "layer", "start", "end",
                 "thread", "request", "work")

    def __init__(self, span_id, parent, name, layer, start, end, thread,
                 request=None, work=None) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.thread = thread
        self.request = request
        self.work = work

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Installs timing wrappers, collects spans, computes self times."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        #: ``id(ticket) -> (request id, scheduled send time, ticket)``,
        #: filled by the load generator so flush wrappers can emit
        #: queue-wait spans.
        self.tickets: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, layer: str, start: float, end: float,
               parent: Optional[int] = None, request=None, work=None) -> None:
        """Record a span that no wrapped call delimits (queue waits)."""
        self._append(Span(next(self._ids), parent, name, layer, start, end,
                          threading.get_ident(), request, work))

    def bind_ticket(self, ticket, request_id: int, scheduled_at: float) -> None:
        # The ticket rides along so its id cannot be reused by a later one.
        self.tickets[id(ticket)] = (request_id, scheduled_at, ticket)

    def wrap(self, fn: Callable, name: str, layer: str,
             work: Optional[Callable] = None,
             on_enter: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``work(args, result)`` returns the span's work size;
        ``on_enter(args, span_id, start)`` runs as the span opens.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            if on_enter is not None:
                on_enter(args, span_id, start)
            done, result = False, None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                size = work(args, result) if work is not None and done else None
                tracer._append(Span(span_id, parent, name, layer, start, end,
                                    threading.get_ident(), None, size))

        return traced

    # ------------------------------------------------------------------
    # Installing / removing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, layer: str,
              work: Optional[Callable] = None,
              on_enter: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (function, classmethod or module
        function) with a traced version until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(original.__func__, name, layer, work, on_enter)
            )
        else:
            replacement = self.wrap(original, name, layer, work, on_enter)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[int, float]:
        """``span_id -> duration minus same-thread child coverage``."""
        by_id = {span.span_id: span for span in self.spans}
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is None or parent.thread != span.thread:
                continue
            overlap = min(span.end, parent.end) - max(span.start, parent.start)
            covered[parent.span_id] += max(overlap, 0.0)
        return {
            span.span_id: max(span.seconds - covered[span.span_id], 0.0)
            for span in self.spans
        }

    def layer_self_seconds(self) -> Dict[str, float]:
        """Total self time per layer (queue waits excluded)."""
        own = self.self_seconds()
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name != "serving.queue_wait":
                out[span.layer] += own[span.span_id]
        return dict(out)

    def outermost(self, layer: str) -> List[Span]:
        """Spans of ``layer`` whose parent is not in the same layer."""
        by_id = {span.span_id: span for span in self.spans}
        out = []
        for span in self.spans:
            if span.layer != layer:
                continue
            parent = by_id.get(span.parent)
            if parent is None or parent.layer != layer:
                out.append(span)
        return out

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")
