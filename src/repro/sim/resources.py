"""Shared-resource primitive for the simulation kernel.

:class:`Resource` is a counted resource with a FIFO wait queue (used to
model link occupancy). Mailboxes with blocking ``get`` live in
:mod:`repro.sim.sync`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.sim.core import Environment, Event

__all__ = ["Resource", "Request"]


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
