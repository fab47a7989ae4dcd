"""Structured-concurrency helpers built from the effect vocabulary.

:func:`bounded_gather` is the shared fan-out primitive: run N effect
sub-operations with at most ``limit`` in flight, collect every outcome
in submission order, and only then surface failures. It is the only
code that spawns and joins transfer lanes: the pool dispatcher
(``DavixClient.get_many``, paper Fig. 2), the parallel vectored-read
path, multi-stream downloads and third-party-copy streams — one
scheduling policy, every runtime (deterministic on the simulator, OS
threads on sockets).

:class:`TaskWindow` is its open-ended sibling: bookkeeping for a
*sliding* window of spawned tasks whose results are consumed out of
order and refilled as they drain — the shape of the transfer engine's
speculative read-ahead (:mod:`repro.core.engine`), where gather's
submit-all/collect-all contract does not fit.

:class:`AcceptLoop` is the servers' one accept loop: a task per
connection, every one of them ended by :meth:`AcceptLoop.stop`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.concurrency.effects import Accept, Join, Spawn
from repro.concurrency.runtime import Runtime, TaskHandle
from repro.errors import NetworkError

__all__ = ["AcceptLoop", "Outcome", "TaskWindow", "bounded_gather"]


class AcceptLoop:
    """A listening port; ``handler(channel)`` is the effect op serving
    one connection, whatever the protocol. Tasks are named
    ``<name>-server`` (the loop) and ``<name>-conn``. A connection is
    kept with its task until the next accept after that task ends."""

    def __init__(
        self,
        runtime: Runtime,
        handler: Callable[[Any], Generator],
        name: str,
        port: int = 0,
        host: Optional[str] = None,
    ):
        self.runtime = runtime
        self.handler = handler
        self.name = name
        self.port = port
        self.host = host
        self.listener = None
        self._task: Optional[TaskHandle] = None
        self._live: Dict[Any, TaskHandle] = {}

    def start(self) -> "AcceptLoop":
        """Open the listener and spawn the accept loop."""
        self.listener = self.runtime.listen(self.port, self.host)
        self.port = self.listener.port
        self._task = self.runtime.spawn(
            self._accept(self.listener), name=f"{self.name}-server"
        )
        return self

    def _accept(self, listener):
        while True:
            try:
                channel = yield Accept(listener)
            except NetworkError:
                return  # listener closed
            self._live = {c: t for c, t in self._live.items() if t.alive}
            self._live[channel] = yield Spawn(
                self.handler(channel), name=f"{self.name}-conn"
            )

    def stop(self) -> None:
        """Close the listener and stop every connection reading: a
        handler mid-request still sends its response, an idle one reads
        EOF and closes. On sockets this returns once every task has
        ended; the simulator ends them on its next run."""
        if self.listener is None:
            return
        self.listener.close()
        self.runtime.settle(self._task)
        live, self._live = self._live, {}
        for channel in live:
            channel.shutdown_read()
        for task in live.values():
            self.runtime.settle(task)


class TaskWindow:
    """Budget bookkeeping for a sliding window of spawned tasks.

    Tracks how many tasks (and how many bytes of expected payload) are
    spawned but not yet settled; :meth:`has_room` gates new spawns on
    both budgets. The window is *elastic*: :meth:`resize` moves the
    task-count bound between ``floor`` and ``ceiling``, which is how an
    adaptive prefetcher grows on sequential hits and shrinks on errors
    or random access. Spawning and joining stay with the caller — this
    class only answers "may another task launch right now?".
    """

    __slots__ = ("limit", "floor", "ceiling", "max_bytes", "tasks", "bytes")

    def __init__(
        self,
        limit: int,
        floor: int = 1,
        ceiling: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        if floor < 1:
            raise ValueError("floor must be >= 1")
        ceiling = limit if ceiling is None else ceiling
        if not floor <= limit <= ceiling:
            raise ValueError("window limit must satisfy floor <= limit <= ceiling")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.limit = limit
        self.floor = floor
        self.ceiling = ceiling
        self.max_bytes = max_bytes
        self.tasks = 0
        self.bytes = 0

    def has_room(self) -> bool:
        """May another task launch under the current budgets?

        The byte budget is soft-edged: a window that is empty always
        has room, so one oversized task can still make progress.
        """
        if self.tasks >= self.limit:
            return False
        if self.max_bytes is None or self.tasks == 0:
            return True
        return self.bytes < self.max_bytes

    def launched(self, nbytes: int = 0) -> None:
        """Record one spawned task carrying ``nbytes`` of payload."""
        self.tasks += 1
        self.bytes += nbytes

    def settled(self, nbytes: int = 0) -> None:
        """Record one task joined (its payload leaves the window)."""
        self.tasks -= 1
        self.bytes -= nbytes

    def grow(self, step: int = 1) -> bool:
        """Widen the window by ``step`` toward the ceiling."""
        widened = min(self.ceiling, self.limit + step)
        changed = widened != self.limit
        self.limit = widened
        return changed

    def shrink(self) -> bool:
        """Halve the window toward the floor (multiplicative decrease)."""
        narrowed = max(self.floor, self.limit // 2)
        changed = narrowed != self.limit
        self.limit = narrowed
        return changed

    def resize(self, limit: int) -> None:
        """Set the window bound directly (clamped to floor..ceiling)."""
        self.limit = max(self.floor, min(self.ceiling, limit))

    def __repr__(self) -> str:
        return (
            f"<TaskWindow {self.tasks}/{self.limit} tasks "
            f"{self.bytes} bytes>"
        )


class Outcome:
    """Result of one gathered operation: a value or an exception."""

    __slots__ = ("index", "value", "error")

    def __init__(self, index: int, value=None, error=None):
        self.index = index
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self):
        """The value, re-raising the operation's exception if it failed."""
        if self.error is not None:
            raise self.error
        return self.value

    def __repr__(self) -> str:
        state = f"error={self.error!r}" if self.error else f"value={self.value!r}"
        return f"<Outcome #{self.index} {state}>"


def bounded_gather(
    thunks: Sequence[Callable[[], Generator]],
    limit: int,
    name: str = "gather",
    on_start: Optional[Callable[[], None]] = None,
    on_finish: Optional[Callable[[], None]] = None,
):
    """Effect sub-op: run operation thunks with ``limit`` in flight.

    Each thunk is a zero-argument callable returning a fresh effect
    generator. ``min(limit, len(thunks))`` worker lanes are spawned;
    each lane drains the shared queue, so a slow operation only holds
    its own lane. Exceptions are captured per operation and returned in
    the :class:`Outcome` list (submission order) — callers decide
    whether to raise. ``on_start``/``on_finish`` are invoked around
    every operation (in-flight gauges hook in here).
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    results: List[Optional[Outcome]] = [None] * len(thunks)
    queue = deque(enumerate(thunks))

    def lane():
        while True:
            try:
                index, thunk = queue.popleft()
            except IndexError:
                return
            if on_start is not None:
                on_start()
            try:
                value = yield from thunk()
            except Exception as exc:  # captured per operation
                results[index] = Outcome(index, error=exc)
            else:
                results[index] = Outcome(index, value=value)
            finally:
                if on_finish is not None:
                    on_finish()

    width = min(limit, len(thunks))
    tasks = []
    for lane_index in range(width):
        task = yield Spawn(lane(), name=f"{name}-{lane_index}")
        tasks.append(task)
    for task in tasks:
        yield Join(task)
    return results
