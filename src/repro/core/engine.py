"""The pipelined read-ahead transfer engine.

The paper attributes XRootD's WAN edge (Section 3) to read-ahead that
hides round trips which davix's *synchronous* vectored refills pay on
every batch: issue a multi-range request, wait a full RTT, decode,
compute, repeat. This engine closes that gap on the HTTP side. It
keeps a sliding window of **speculative** vector batches in flight —
spawned onto the runtime (sim or threads) via the same effect
vocabulary as everything else — so while the application consumes
cluster *N*, clusters *N+1..N+w* are already on the wire, and the
multipart bodies decode incrementally as their chunks arrive
(:class:`~repro.http.multipart.MultipartStream`).

The window adapts to the access pattern, mirroring
``repro.xrootd.readahead.ReadAheadWindow``:

* sequential plan hits **grow** it (additive, toward
  ``max_window_batches``);
* off-plan access and failed speculative fetches **shrink** it
  (multiplicative, toward ``min_window_batches``);
* ``window_bytes`` caps speculative bytes outstanding regardless of
  the batch count.

Speculative fetches trap their own failures and surface them at join
time — a failed prefetch silently falls back to the demanded path, it
never crashes the caller (or the simulation). Every launch carries a
``speculative-fetch`` span parented under one ``transfer-engine``
span, so traces distinguish speculation from demand; window state and
hit rates export through ``engine.*`` metrics and the demanded-read
stall time lands in the ``readahead-wait`` request phase.

Arm it through :class:`~repro.core.transfer.TransferConfig`
(``read_ahead=True``) or explicitly via ``DavFile.prefetch(segments)``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.concurrency import Join, Spawn, TaskWindow
from repro.core.transfer import TransferConfig
from repro.core.vectored import plan_vector

__all__ = ["TransferEngine"]

#: One planned read: ``(offset, length)``.
Segment = Tuple[int, int]


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
        "cancelled",
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
        self.cancelled = False


class TransferEngine:
    """Sliding-window speculative prefetcher for one :class:`DavFile`.

    Feed it a consumption-ordered plan with :meth:`prefetch`; demanded
    reads route through :meth:`read_vec` / :meth:`read_single`, which
    serve plan hits from (or while awaiting) in-flight speculative
    batches and fall back to the file's demand path on misses. Call
    :meth:`drain` when done so stragglers are joined and the engine
    span closes.
    """

    def __init__(self, file, config: TransferConfig):
        self.file = file
        self.config = config
        self.context = file.context
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
        self._window = TaskWindow(
            limit=config.window_batches,
            floor=config.min_window_batches,
            ceiling=config.max_window_batches,
            max_bytes=config.window_bytes,
        )
        self._span = None
        self._launched = 0
        self.stats: Dict[str, int] = {
            "launched": 0,
            "hits": 0,
            "misses": 0,
            "errors": 0,
            "grown": 0,
            "shrunk": 0,
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
    def window_batches(self) -> int:
        """Current adaptive window size (speculative batches)."""
        return self._window.limit

    @property
    def plan_depth(self) -> int:
        """Planned segments not yet launched."""
        return len(self._plan)

    # -- window management --------------------------------------------------

    def _segment_cached(self, segment: Segment) -> bool:
        """Is this planned segment already served by the page cache?"""
        cache = getattr(self.file, "_pagecache", None)
        if cache is None:
            return False
        return cache.read(self.file._cache_key, *segment) is not None

    def _engine_span(self):
        if self._span is None:
            self._span = self.context.tracer.start(
                "transfer-engine",
                url=str(self.file.url),
                window=self._window.limit,
            )
        return self._span

    def _top_up(self):
        """Effect sub-op: launch speculative batches while the window
        has room and the plan has segments."""
        params = self.file.params
        # Size batches so a full window fits the byte budget.
        batch_bytes_cap = max(
            1, self.config.window_bytes // max(1, self._window.limit)
        )
        while self._plan and self._window.has_room():
            segments: List[Segment] = []
            nbytes = 0
            while self._plan and len(segments) < params.max_vector_ranges:
                segment = self._plan.popleft()
                if segment in self._dropped:
                    self._dropped.discard(segment)
                    continue
                if self._segment_cached(segment):
                    # Already in the page cache: never spend wire on it.
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
            # <= max_vector_ranges segments always plan to one batch.
            plan = plan_vector(
                segments,
                max_ranges=params.max_vector_ranges,
                gap=params.vector_gap,
            )
            ranges = plan.batches[0]
            index = self._launched
            self._launched += 1
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
            self._window.launched(nbytes)
            self.stats["launched"] += 1
            metrics = self.context.metrics
            metrics.counter("engine.speculative_batches_total").inc()
            metrics.counter("engine.speculative_ranges_total").inc(
                len(ranges)
            )
            metrics.counter("engine.speculative_bytes_total").inc(nbytes)
            metrics.gauge("engine.window").set(self._window.limit)

    def _speculative(self, batch: _SpecBatch):
        """The spawned fetch op. Never raises: a failure is returned as
        a value and re-surfaced at join time — an unjoined failing task
        would otherwise crash the whole simulation."""
        try:
            parts = yield from self.file._fetch_batch_covered(
                batch.ranges, batch.span
            )
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
        self._window.settled(batch.nbytes)
        self.context.metrics.histogram(
            "request.phase_seconds", phase="readahead-wait"
        ).observe(waited)
        if outcome == "error":
            batch.error = value
            self.stats["errors"] += 1
            self.context.metrics.counter(
                "engine.speculative_errors_total"
            ).inc()
            self._shrink()
        else:
            batch.parts = value

    def _grow(self) -> None:
        if self._window.grow():
            self.stats["grown"] += 1
            self.context.metrics.counter("engine.window_grow_total").inc()
            self.context.metrics.gauge("engine.window").set(
                self._window.limit
            )

    def _shrink(self) -> None:
        if self._window.shrink():
            self.stats["shrunk"] += 1
            self.context.metrics.counter("engine.window_shrink_total").inc()
            self.context.metrics.gauge("engine.window").set(
                self._window.limit
            )

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

    def read_vec(self, reads: Sequence[Segment]):
        """Effect sub-op: vectored read through the engine.

        Plan hits are served from speculative batches (awaiting any
        still in flight); misses fall back to the file's demanded
        vectored path in one batch. With no plan armed the call's own
        reads become the plan — the pipelined-window dispatch mode.
        """
        if not reads:
            return []
        if not self._plan and not self._by_segment:
            self.prefetch(reads)
        yield from self._top_up()

        metrics = self.context.metrics
        results: List[Optional[bytes]] = [None] * len(reads)
        demanded: List[Tuple[int, Segment]] = []
        # A segment's first index in ``reads``, and the later ones that
        # repeat it: a repeat is served from the first's result, not
        # mistaken for an off-plan read once the first consumed it.
        first: Dict[Segment, int] = {}
        repeats: List[Tuple[int, int]] = []
        offplan = False
        for index, segment in enumerate(reads):
            if segment in first:
                repeats.append((index, first[segment]))
                continue
            first[segment] = index
            batch = self._by_segment.get(segment)
            if batch is None and segment in self._planned:
                # Planned but not yet launched: pump the window (the
                # resolve loop above may have freed slots).
                yield from self._top_up()
                batch = self._by_segment.get(segment)
            if batch is None:
                demanded.append((index, segment))
                if segment in self._planned:
                    # Deep in the plan, beyond the window: demand it
                    # now and skip its speculative launch later.
                    self._planned.discard(segment)
                    self._dropped.add(segment)
                else:
                    offplan = True
                continue
            yield from self._resolve(batch)
            offset, length = segment
            if batch.error is None and batch.parts.covers(offset, length):
                results[index] = batch.parts.read(offset, length)
                self.stats["hits"] += 1
                metrics.counter("engine.hits_total").inc()
            else:
                demanded.append((index, segment))
            self._consume(segment, batch)
            yield from self._top_up()

        if demanded:
            self.stats["misses"] += len(demanded)
            metrics.counter("engine.misses_total").inc(len(demanded))
            if offplan:
                self._shrink()
            pieces = yield from self.file._pread_vec_demand(
                [segment for _, segment in demanded],
                self.config.max_inflight,
            )
            for (index, _), piece in zip(demanded, pieces):
                results[index] = piece
        else:
            self._grow()
        for index, source in repeats:
            results[index] = results[source]
        yield from self._top_up()
        return results

    def read_single(self, offset: int, length: int):
        """Effect sub-op: serve one positional read from the window.

        Returns the bytes on a plan hit, ``None`` on a miss (the
        caller demand-fetches). An off-plan read is the random-access
        signal: the window shrinks.
        """
        segment = (int(offset), int(length))
        yield from self._top_up()
        batch = self._by_segment.get(segment)
        if batch is None and segment in self._planned:
            yield from self._top_up()
            batch = self._by_segment.get(segment)
        if batch is None:
            self.stats["misses"] += 1
            self.context.metrics.counter("engine.misses_total").inc()
            if segment in self._planned:
                self._planned.discard(segment)
                self._dropped.add(segment)
            else:
                self._shrink()
            return None
        yield from self._resolve(batch)
        data = None
        if batch.error is None and batch.parts.covers(*segment):
            data = batch.parts.read(*segment)
            self.stats["hits"] += 1
            self.context.metrics.counter("engine.hits_total").inc()
            self._grow()
        else:
            self.stats["misses"] += 1
            self.context.metrics.counter("engine.misses_total").inc()
        self._consume(segment, batch)
        yield from self._top_up()
        return data

    # -- shutdown -----------------------------------------------------------

    def abandon(self) -> None:
        """Drop the plan and cancel every in-flight speculative batch.

        Called when the consumption plan it was speculating for is
        abandoned (``DavFile.close()``, or a replacing ``prefetch()``)
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
                batch.cancelled = True
                self._window.settled(batch.nbytes)
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
                window=self._window.limit,
                unused_segments=unused,
            )
            self._span = None
