"""The pipelined read-ahead transfer engine, one for both wires.

The paper attributes XRootD's WAN edge (Section 3) to read-ahead that
hides round trips which davix's *synchronous* vectored refills pay on
every batch: issue a vectored request, wait a full RTT, decode,
compute, repeat. This engine is that read-ahead for both protocols, as
ROOT runs one TTreeCache above ``TFile::ReadBuffers`` whichever file
plugin sits underneath. It keeps a sliding window of **speculative**
vector batches in flight — spawned onto the runtime (sim or threads)
via the same effect vocabulary as everything else — so while the
application consumes cluster *N*, clusters *N+1..N+w* are already on
the wire: one HTTP multi-range GET per batch under
:class:`~repro.core.file.DavFile`, one ``kXR_readv`` under
:class:`~repro.rootio.fetchers.XrootdFetcher`. The engine itself
names no protocol.

The window counts bytes and batches, and the batch count adapts to
the access pattern:

* sequential plan hits **grow** it (additive, from
  :data:`WINDOW_BATCHES` toward :data:`MAX_WINDOW_BATCHES`);
* off-plan access and failed speculative fetches **shrink** it
  (multiplicative, toward :data:`MIN_WINDOW_BATCHES`);
* ``window_bytes`` caps speculative bytes outstanding regardless of
  the batch count (soft-edged: an empty window always launches one
  batch, however large).

Speculative fetches trap their own failures and surface them at join
time as misses, which the owner resolves like any other read: a failed
prefetch never crashes the caller (or the simulation). Every launch
carries a ``speculative-fetch`` span parented under one
``transfer-engine`` span, so traces distinguish speculation from
demand; window state and hit rates export through ``engine.*``
metrics and the demanded-read stall time lands in the
``readahead-wait`` request phase.

Arm it through :class:`~repro.core.transfer.TransferConfig`
(``read_ahead=True``) or a first ``prefetch(segments)`` over HTTP, and
through ``XrootdFetcher(window_bytes=...)`` over XRootD.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import (
    Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.concurrency import Join, Spawn
from repro.core import vectored
from repro.core.vectored import plan_vector

__all__ = ["TransferEngine"]

#: One planned read: ``(offset, length)``.
Segment = Tuple[int, int]

#: Speculative batches in flight when the window opens.
WINDOW_BATCHES = 4
#: Floor the window halves to on errors and off-plan access.
MIN_WINDOW_BATCHES = 1
#: Ceiling the window grows to while speculation keeps hitting.
MAX_WINDOW_BATCHES = 16


class _SpecBatch:
    """One speculative multi-range request, in flight or resolved."""

    __slots__ = (
        "index",
        "ranges",
        "segments",
        "nbytes",
        "span",
        "task",
        "parts",
        "error",
        "resolved",
    )

    def __init__(self, index, ranges, segments, nbytes, span):
        self.index = index
        self.ranges = ranges
        #: Segments not yet served to the application, sorted.
        self.segments: List[Segment] = segments
        self.nbytes = nbytes
        self.span = span
        self.task = None
        self.parts = None
        self.error: Optional[Exception] = None
        self.resolved = False


class TransferEngine:
    """Sliding-window speculative prefetcher for one remote file.

    Its owner lends it a ``context`` (metrics, tracer, clock) and the
    effect sub-op ``fetch_batch(ranges, span)`` -> ``PartTable`` for
    one batch of ranges coalesced across ``gap``; ``cached(segment)``
    says a planned segment needs no wire; ``url`` names the file on
    the ``transfer-engine`` span.

    Feed it a consumption-ordered plan with :meth:`prefetch`; demanded
    reads route through :meth:`read_vec`, which serves plan hits from
    (or while awaiting) in-flight speculative batches and reports
    misses as ``None`` for the owner to resolve.
    Call :meth:`drain` when done so stragglers are joined and the
    engine span closes.
    """

    def __init__(
        self,
        context,
        fetch_batch: Callable,
        window_bytes: int,
        gap: int,
        url: str,
        cached: Optional[Callable[[Segment], bool]] = None,
    ):
        self.context = context
        self.fetch_batch = fetch_batch
        self.window_bytes = window_bytes
        self.gap = gap
        self.cached = cached
        self.url = url
        self._plan: Deque[Segment] = deque()
        self._planned: Set[Segment] = set()
        #: Planned segments served by the demand path before their
        #: speculative launch; skipped when the plan drains.
        self._dropped: Set[Segment] = set()
        self._by_segment: Dict[Segment, _SpecBatch] = {}
        self._inflight: List[_SpecBatch] = []
        #: Cancelled batches whose spawned tasks still need a Join
        #: (there is no kill primitive; cancellation is bookkeeping).
        self._discarded: List[_SpecBatch] = []
        #: Current batch limit, and the batches and bytes launched but
        #: not yet joined.
        self.window = WINDOW_BATCHES
        self._tasks = 0
        self._bytes = 0
        self._span = None
        self.stats: Dict[str, int] = {
            "launched": 0,
            "hits": 0,
            "misses": 0,
            "errors": 0,
            "cancelled": 0,
        }

    # -- plan feeding (pure) ------------------------------------------------

    def prefetch(self, segments: Sequence[Segment]) -> None:
        """Extend the read-ahead plan, in consumption order.

        Pure bookkeeping: launches happen lazily as reads pump the
        window, so feeding a plan costs nothing until I/O starts.
        """
        for offset, length in segments:
            segment = (int(offset), int(length))
            if segment in self._planned:
                continue
            self._planned.add(segment)
            self._plan.append(segment)

    @property
    def plan_depth(self) -> int:
        """Planned segments not yet launched."""
        return len(self._plan)

    # -- window management --------------------------------------------------

    def _engine_span(self):
        if self._span is None:
            self._span = self.context.tracer.start(
                "transfer-engine",
                url=self.url,
                window=self.window,
            )
        return self._span

    def _top_up(self):
        """Effect sub-op: launch speculative batches while the window
        has room and the plan has segments."""
        # Size batches so a full window fits the byte budget.
        batch_bytes_cap = max(1, self.window_bytes // self.window)
        # The byte cap is soft-edged: an empty window always has room.
        while (
            self._plan
            and self._tasks < self.window
            and (self._tasks == 0 or self._bytes < self.window_bytes)
        ):
            segments: List[Segment] = []
            nbytes = 0
            while self._plan and len(segments) < vectored.MAX_VECTOR_RANGES:
                segment = self._plan.popleft()
                if segment in self._dropped:
                    self._dropped.discard(segment)
                    continue
                if self.cached is not None and self.cached(segment):
                    # Already cached: never spend wire on it.
                    self._planned.discard(segment)
                    self.context.metrics.counter(
                        "engine.cache_skipped_segments_total"
                    ).inc()
                    continue
                segments.append(segment)
                nbytes += segment[1]
                if nbytes >= batch_bytes_cap:
                    break
            if not segments:
                continue
            # <= MAX_VECTOR_RANGES segments always plan to one batch.
            plan = plan_vector(
                segments,
                max_ranges=vectored.MAX_VECTOR_RANGES,
                gap=self.gap,
            )
            ranges = plan.batches[0]
            index = self.stats["launched"]
            self.stats["launched"] += 1
            span = self._engine_span().child(
                "speculative-fetch",
                batch=index,
                ranges=len(ranges),
                nbytes=nbytes,
            )
            batch = _SpecBatch(
                index=index,
                ranges=ranges,
                segments=sorted(segments),
                nbytes=nbytes,
                span=span,
            )
            task = yield Spawn(
                self._speculative(batch), name=f"speculative-{index}"
            )
            batch.task = task
            for segment in segments:
                self._by_segment[segment] = batch
            self._inflight.append(batch)
            self._tasks += 1
            self._bytes += nbytes
            metrics = self.context.metrics
            metrics.counter("engine.speculative_batches_total").inc()
            metrics.counter("engine.speculative_ranges_total").inc(
                len(ranges)
            )
            metrics.counter("engine.speculative_bytes_total").inc(nbytes)
            metrics.gauge("engine.window").set(self.window)

    def _speculative(self, batch: _SpecBatch):
        """The spawned fetch op. Never raises: a failure is returned as
        a value and re-surfaced at join time — an unjoined failing task
        would otherwise crash the whole simulation."""
        try:
            parts = yield from self.fetch_batch(batch.ranges, batch.span)
        except Exception as exc:  # trapped: surfaces via _resolve
            batch.span.end(error=repr(exc))
            return ("error", exc)
        batch.span.end(ok=True)
        return ("ok", parts)

    def _resolve(self, batch: _SpecBatch):
        """Effect sub-op: join one speculative batch (idempotent).

        The time a demanded read spends blocked here is the part of
        the prefetch the application failed to overlap — recorded as
        the ``readahead-wait`` phase.
        """
        if batch.resolved:
            return
        started = self.context.clock()
        outcome, value = yield Join(batch.task)
        waited = self.context.clock() - started
        batch.resolved = True
        self._tasks -= 1
        self._bytes -= batch.nbytes
        self.context.metrics.histogram(
            "request.phase_seconds", phase="readahead-wait"
        ).observe(waited)
        if outcome == "error":
            batch.error = value
            self.stats["errors"] += 1
            self.context.metrics.counter(
                "engine.speculative_errors_total"
            ).inc()
            self._resize(self.window // 2)
        else:
            batch.parts = value

    def _resize(self, limit: int) -> None:
        """Move the batch limit, clamped to the floor and the ceiling:
        ``window + 1`` grows it, ``window // 2`` shrinks it."""
        limit = max(MIN_WINDOW_BATCHES, min(MAX_WINDOW_BATCHES, limit))
        if limit == self.window:
            return
        grew = limit > self.window
        self.window = limit
        metrics = self.context.metrics
        metrics.counter(
            "engine.window_grow_total" if grew else "engine.window_shrink_total"
        ).inc()
        metrics.gauge("engine.window").set(limit)

    def _consume(self, segment: Segment, batch: _SpecBatch) -> None:
        pending = batch.segments
        index = bisect_left(pending, segment)
        if index < len(pending) and pending[index] == segment:
            del pending[index]
        if batch.parts is not None:
            # Often the only reference left to the part (a layout-only
            # scan keeps no payload), so free it unless still pending.
            batch.parts.release(*segment, pending)
        self._by_segment.pop(segment, None)
        self._planned.discard(segment)
        if batch.resolved and not batch.segments and batch in self._inflight:
            self._inflight.remove(batch)

    # -- demanded reads ------------------------------------------------------

    def _take(self, segment: Segment):
        """Effect sub-op: look one demanded segment up in the window
        -> ``(bytes or None, its batch or None, off-plan?)``, awaiting
        the batch if it is still in flight."""
        batch = self._by_segment.get(segment)
        if batch is None and segment in self._planned:
            # Planned but not yet launched: pump the window (a resolve
            # may have freed slots).
            yield from self._top_up()
            batch = self._by_segment.get(segment)
        if batch is None:
            if segment not in self._planned:
                return None, None, True
            # Deep in the plan, beyond the window: the caller demands
            # it now, so skip its speculative launch later.
            self._planned.discard(segment)
            self._dropped.add(segment)
            return None, None, False
        yield from self._resolve(batch)
        if batch.error is not None or not batch.parts.covers(*segment):
            return None, batch, False
        self.stats["hits"] += 1
        self.context.metrics.counter("engine.hits_total").inc()
        return batch.parts.read(*segment), batch, False

    def _missed(self, count: int, offplan: bool) -> None:
        """Count ``count`` misses; an off-plan read is the
        random-access signal, so the window shrinks."""
        self.stats["misses"] += count
        self.context.metrics.counter("engine.misses_total").inc(count)
        if offplan:
            self._resize(self.window // 2)

    def read_vec(self, reads: Sequence[Segment]):
        """Effect sub-op: vectored read through the engine.

        One entry per read: its bytes on a plan hit (served from a
        speculative batch, awaiting it if still in flight), ``None`` on
        a miss. With no plan armed the call's own reads become the plan
        — the pipelined-window dispatch mode; a ``pread`` is a one-read
        call. The window is topped up before each segment and once more
        after the grow or shrink, so the next batch already carries it.
        """
        if not reads:
            return []
        if not self._plan and not self._by_segment:
            self.prefetch(reads)
        results: List[Optional[bytes]] = [None] * len(reads)
        missed = 0
        offplan = False
        # Each segment's first index in ``reads``: a repeat is served
        # from the first's result, not mistaken for an off-plan read
        # once the first consumed it.
        first: Dict[Segment, int] = {}
        for index, segment in enumerate(reads):
            if segment in first:
                continue
            first[segment] = index
            yield from self._top_up()
            data, batch, stray = yield from self._take(segment)
            results[index] = data
            missed += data is None
            offplan = offplan or stray
            if batch is not None:
                self._consume(segment, batch)
        if missed:
            self._missed(missed, offplan)
        else:
            self._resize(self.window + 1)
        yield from self._top_up()
        return [results[first[segment]] for segment in reads]

    # -- shutdown -----------------------------------------------------------

    def abandon(self) -> None:
        """Drop the plan and cancel every in-flight speculative batch.

        Called when the consumption plan it was speculating for is
        abandoned (the owner closing the file, or a replacing
        ``prefetch()``)
        — instead of letting the in-flight batches drain uselessly
        into demanded reads, their window slots free immediately and
        they count in ``engine.cancelled_batches_total``. Pure
        bookkeeping: there is no task-kill primitive, so the spawned
        fetches are parked on ``_discarded`` and joined (results
        ignored) by the next :meth:`drain`.
        """
        self._plan.clear()
        self._planned.clear()
        self._dropped.clear()
        self._by_segment.clear()
        cancelled = 0
        unused = 0
        for batch in self._inflight:
            if batch.resolved:
                unused += len(batch.segments)
            else:
                self._tasks -= 1
                self._bytes -= batch.nbytes
                cancelled += 1
                self._discarded.append(batch)
            batch.segments.clear()
        self._inflight.clear()
        if cancelled:
            self.stats["cancelled"] += cancelled
            self.context.metrics.counter(
                "engine.cancelled_batches_total"
            ).inc(cancelled)
        if unused:
            self.context.metrics.counter(
                "engine.unused_segments_total"
            ).inc(unused)

    def drain(self):
        """Effect sub-op: join every in-flight batch and close the
        engine span. Always call before tearing down the runtime —
        speculative tasks (cancelled ones included) must not outlive
        their session pool."""
        unused = 0
        for batch in list(self._inflight):
            yield from self._resolve(batch)
            unused += len(batch.segments)
            batch.parts = None
            for segment in list(batch.segments):
                self._consume(segment, batch)
        self._inflight.clear()
        self._by_segment.clear()
        for batch in self._discarded:
            # Cancelled: the window slot was already settled by
            # abandon(); join the task and drop whatever it fetched.
            if not batch.resolved:
                yield Join(batch.task)
                batch.resolved = True
        self._discarded.clear()
        if unused:
            self.context.metrics.counter(
                "engine.unused_segments_total"
            ).inc(unused)
        if self._span is not None:
            self._span.end(
                launched=self.stats["launched"],
                hits=self.stats["hits"],
                misses=self.stats["misses"],
                errors=self.stats["errors"],
                cancelled=self.stats["cancelled"],
                window=self.window,
                unused_segments=unused,
            )
            self._span = None
