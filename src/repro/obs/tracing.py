"""Request tracing: lightweight nested spans over an injected clock.

A :class:`Tracer` produces :class:`Span` objects forming the hierarchy
the paper's timing discussion implies::

    request
    ├── session-acquire
    │   ├── tcp-connect
    │   └── tls-handshake
    └── exchange
        ├── send
        └── recv

Spans work on any clock — the simulator's virtual time or a monotonic
wall clock — because the tracer never calls ``time`` itself; the
:class:`~repro.core.context.Context` wires its own clock in. Parentage
is explicit (``span.child(...)``) on the request path, with an implicit
current-span stack for ``with tracer.span(...):`` convenience. The
stack is per-tracer, not per-task: under concurrent simulator tasks
(``bounded_gather`` lanes: ``get_many``, multistream) prefer explicit
parents or ``root=True`` spans.

Finished spans land in a bounded ring buffer. The collector encodes
them as wire records (:func:`~repro.obs.collector.encode_span`), the
analyzer renders them as a waterfall, and
:func:`~repro.obs.events.request_events` folds them into request
rows.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed operation; ends at most once, children attach by id."""

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end_time",
        "attrs",
        "remote",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, object],
        remote: bool = False,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end_time: Optional[float] = None
        self.attrs = attrs
        self.remote = remote

    def child(self, name: str, **attrs) -> "Span":
        """Start a child span explicitly parented to this one."""
        return self.tracer.start(name, parent=self, **attrs)

    def set(self, **attrs) -> "Span":
        """Attach attributes (last write wins); returns self."""
        self.attrs.update(attrs)
        return self

    def end(self, **attrs) -> None:
        """Finish the span (idempotent); extra attrs are attached."""
        if attrs:
            self.attrs.update(attrs)
        if self.end_time is None:
            self.tracer._finish(self)

    @property
    def ended(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()

    def __repr__(self) -> str:
        state = (
            f"{self.duration:.6f}s" if self.ended else "open"
        )
        return f"<Span {self.name} id={self.span_id} {state}>"


class _NullSpan:
    """The no-op span a disabled tracer hands out."""

    __slots__ = ()
    name = "null"
    trace_id = span_id = 0
    parent_id = None
    start = 0.0
    end_time: Optional[float] = None
    attrs: Dict[str, object] = {}
    ended = False
    duration = None
    remote = False

    def child(self, name: str, **attrs) -> "_NullSpan":
        return self

    def set(self, **attrs) -> "_NullSpan":
        return self

    def end(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


#: Shared no-op span (what ``Tracer(enabled=False).start`` returns).
NULL_SPAN = _NullSpan()


class Tracer:
    """Produces spans and retains the finished ones (bounded).

    ``clock`` is any zero-argument callable returning seconds; the
    Context injects the runtime clock so simulated traces carry
    simulated timestamps. ``enabled=False`` makes ``start`` return the
    shared :data:`NULL_SPAN` — the instrumented request path stays
    branch-free while recording nothing.

    ``node`` names the process this tracer runs in for cluster-wide
    collection: IDs are minted inside a per-node namespace (the CRC32
    of the name shifted above the sequence bits), so spans from
    different nodes never collide when assembled into one trace tree.
    Without a node the namespace is zero and IDs are the plain small
    integers they always were. ``sink`` is an optional callable invoked
    with each span as it finishes (see
    :class:`~repro.obs.collector.TelemetrySink`).
    """

    def __init__(
        self,
        clock=None,
        capacity: int = 10_000,
        enabled=True,
        node: Optional[str] = None,
        sink=None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.node = node
        self.sink = sink
        namespace = (
            zlib.crc32(node.encode("utf-8")) & 0xFFFFFFFF if node else 0
        )
        self._span_ns = namespace << 32
        self._trace_ns = namespace << 64
        self._finished: Deque[Span] = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1

    # -- span production ------------------------------------------------------

    def start(
        self,
        name: str,
        parent: Optional[Span] = None,
        root: bool = False,
        remote=None,
        **attrs,
    ) -> Span:
        """Begin a span; default parent is the current innermost span.

        ``root=True`` forces a new trace (use it for spans started from
        concurrently interleaved simulator tasks). ``remote`` (a
        :class:`~repro.obs.propagation.TraceContext`) joins a trace
        propagated from another process: the span adopts the remote
        trace ID and parents to the remote span ID, ignoring the local
        stack — this is how server-side spans continue a client's
        story.
        """
        if not self.enabled:
            return NULL_SPAN
        joined_remote = remote is not None
        if joined_remote:
            trace_id = remote.trace_id
            parent_id = remote.span_id
        else:
            if parent is None and not root and self._stack:
                parent = self._stack[-1]
            if isinstance(parent, _NullSpan):
                parent = None
            if parent is None:
                trace_id = self._trace_ns | self._next_trace_id
                self._next_trace_id += 1
                parent_id = None
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
        span = Span(
            tracer=self,
            name=name,
            trace_id=trace_id,
            span_id=self._span_ns | self._next_span_id,
            parent_id=parent_id,
            start=self.clock(),
            attrs=dict(attrs),
            remote=joined_remote,
        )
        self._next_span_id += 1
        self._stack.append(span)
        return span

    def span(self, name: str, **attrs) -> Span:
        """Context-manager sugar: ``with tracer.span("step"): ...``."""
        return self.start(name, **attrs)

    def _finish(self, span: Span) -> None:
        span.end_time = self.clock()
        try:
            self._stack.remove(span)
        except ValueError:
            pass
        self._finished.append(span)
        if self.sink is not None:
            self.sink(span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost unfinished span, if any."""
        return self._stack[-1] if self._stack else None

    # -- read side ------------------------------------------------------------

    def finished(self) -> List[Span]:
        """Finished spans in end order."""
        return list(self._finished)

    def by_name(self, name: str) -> List[Span]:
        """Finished spans with the given name."""
        return [span for span in self._finished if span.name == name]

    def clear(self) -> None:
        self._finished.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._finished)
