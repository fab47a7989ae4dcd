"""Promises: one-shot result slots usable from both runtimes.

A promise is created with the ``MakePromise`` effect and awaited with
``Await``; any code (including plain synchronous callbacks, e.g. a
protocol demultiplexer) may ``resolve``/``reject`` it. This is what lets
the XRootD client run one reader task that fans responses out to many
outstanding requests — the protocol's stream multiplexing.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

__all__ = ["SimPromise", "ThreadPromise", "EffectLock"]


class SimPromise:
    """Promise backed by a simulation Gate."""

    def __init__(self, gate):
        #: A :class:`repro.sim.Gate`, handed in by ``SimRuntime`` so that
        #: this module, which the socket runtime needs for
        #: :class:`ThreadPromise`, imports no simulator.
        self._gate = gate

    @property
    def done(self) -> bool:
        return self._gate.is_open

    def resolve(self, value: Any = None) -> None:
        if not self._gate.is_open:
            self._gate.open(value)

    def reject(self, exc: BaseException) -> None:
        if not self._gate.is_open:
            self._gate.fail(exc)

    def _wait_event(self):
        return self._gate.wait()


class ThreadPromise:
    """Promise backed by a threading.Event."""

    def __init__(self):
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, value: Any = None) -> None:
        if not self._event.is_set():
            self._value = value
            self._event.set()

    def reject(self, exc: BaseException) -> None:
        if not self._event.is_set():
            self._error = exc
            self._event.set()

    def _wait(self, timeout: Optional[float]) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError
        if self._error is not None:
            raise self._error
        return self._value


class EffectLock:
    """FIFO mutex built from promises (portable across runtimes).

    Usage inside an operation::

        ticket = yield from lock.acquire()
        try:
            ...
        finally:
            lock.release(ticket)
    """

    def __init__(self):
        self._tail = None
        self._guard = threading.Lock()

    def acquire(self):
        """Effect sub-op: returns a ticket once the lock is held."""
        from repro.concurrency.effects import Await, MakePromise

        ticket = yield MakePromise()
        with self._guard:
            previous, self._tail = self._tail, ticket
        if previous is not None:
            yield Await(previous)
        return ticket

    def release(self, ticket) -> None:
        """Release the lock, waking the next waiter (if any)."""
        with self._guard:
            if self._tail is ticket:
                self._tail = None
        ticket.resolve()
