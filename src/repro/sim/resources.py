"""Shared-resource primitives for the simulation kernel.

Provides the two resource types the network model needs:

* :class:`Resource` — a counted resource with a FIFO wait queue (used to
  model link occupancy and server worker slots).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (used for mailboxes such as TCP receive buffers and accept queues).
* :class:`Container` — a continuous-level reservoir with blocking
  ``get``/``put`` (used for window/credit accounting).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.sim.core import Environment, Event

__all__ = ["Resource", "Request", "Store", "Container"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ...  # holding one slot
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._grant_or_enqueue(self)

    def release(self) -> None:
        """Give the slot back (or withdraw from the queue if not granted)."""
        self.resource._release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Resource:
    """Counted resource with ``capacity`` slots and a FIFO queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one slot; the returned event fires when granted."""
        return Request(self)

    def _grant_or_enqueue(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._queue.append(req)

    def _release(self, req: Request) -> None:
        if req in self._users:
            self._users.remove(req)
            if self._queue:
                nxt = self._queue.popleft()
                self._users.append(nxt)
                nxt.succeed()
        else:
            try:
                self._queue.remove(req)
            except ValueError:
                pass  # released twice; harmless


class Store:
    """Unbounded FIFO store of items with blocking ``get``."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Add an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None


class Container:
    """Continuous reservoir holding a ``level`` between 0 and ``capacity``.

    ``get(amount)`` blocks until the level allows it; ``put(amount)``
    blocks until capacity allows it. Pending gets are served FIFO.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if init < 0 or init > capacity:
            raise ValueError("init must lie within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[tuple] = deque()  # (event, amount)
        self._putters: Deque[tuple] = deque()

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires once it fits under ``capacity``."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        event = Event(self.env)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires once the level covers it."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        event = Event(self.env)
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed()
                    progressed = True
