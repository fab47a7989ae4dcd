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
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, List, Optional, Sequence

from repro.concurrency.effects import Join, Spawn

__all__ = ["Outcome", "TaskWindow", "bounded_gather"]


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
