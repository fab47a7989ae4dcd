"""Higher-level synchronisation helpers built on the kernel.

These are the coordination primitives the protocol clients use inside
the simulator: a broadcast :class:`Signal`, a one-shot :class:`Gate`,
and a :class:`Mailbox` with close semantics (an EOF-aware FIFO).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, Event

__all__ = ["Signal", "Gate", "Mailbox", "EOF"]

#: Sentinel delivered by :class:`Mailbox` once closed and drained.
EOF = object()


class Signal:
    """Broadcast signal: every waiter outstanding at ``fire`` time wakes."""

    def __init__(self, env: Environment):
        self.env = env
        self._waiters: Deque[Event] = deque()

    def wait(self) -> Event:
        """Return an event that fires at the next :meth:`fire` call."""
        event = Event(self.env)
        self._waiters.append(event)
        return event

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        woken = len(self._waiters)
        while self._waiters:
            self._waiters.popleft().succeed(value)
        return woken


class Gate:
    """One-shot latch: ``wait`` fires immediately once ``open`` was called."""

    def __init__(self, env: Environment):
        self.env = env
        self._opened = False
        self._value: Any = None
        self._failure: Optional[BaseException] = None
        self._waiters: Deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._opened

    def open(self, value: Any = None) -> None:
        """Open the gate, releasing current and future waiters."""
        if self._opened:
            raise SimulationError("gate already open")
        self._opened = True
        self._value = value
        while self._waiters:
            self._waiters.popleft().succeed(value)

    def fail(self, exc: BaseException) -> None:
        """Open the gate with a failure; waiters receive the exception."""
        if self._opened:
            raise SimulationError("gate already open")
        self._opened = True
        self._failure = exc
        while self._waiters:
            event = self._waiters.popleft()
            event.fail(exc)
            event._defused = True

    def wait(self) -> Event:
        event = Event(self.env)
        if self._opened:
            if self._failure is not None:
                event.fail(self._failure)
                event._defused = True
            else:
                event.succeed(self._value)
        else:
            self._waiters.append(event)
        return event


class Mailbox:
    """FIFO of items with close semantics.

    After :meth:`close`, queued items are still delivered; once drained,
    every ``get`` resolves immediately with :data:`EOF`.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        if self._closed:
            raise SimulationError("put() on closed mailbox")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        elif self._closed:
            event.succeed(EOF)
        else:
            self._getters.append(event)
        return event

    def withdraw(self, event: Event) -> None:
        """Forget a pending :meth:`get` nobody waits on any more, so
        that it cannot swallow the next item."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass  # already served

    def close(self) -> None:
        """Close the mailbox; pending getters receive :data:`EOF`."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            self._getters.popleft().succeed(EOF)
