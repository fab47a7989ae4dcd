"""Discrete-event simulation kernel.

A small, dependency-free kernel in the style of SimPy: an
:class:`Environment` owns a time-ordered event heap; :class:`Process`
wraps a generator that ``yield``\\ s :class:`Event` objects and is resumed
when they fire.

The kernel is deliberately deterministic: events scheduled for the same
simulated time fire in scheduling order (a monotonically increasing
sequence number breaks ties), so every simulation run with the same seed
produces identical timings.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import ProcessInterrupt, SimulationError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
]

#: Sentinel stored in :attr:`Event._value` while the event is untriggered.
_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    triggers it and schedules its callbacks to run at the current
    simulation time. Processes wait on events by yielding them.
    """

    # ``_scheduled`` is True once the event's callbacks have been
    # scheduled; ``_defused`` once a failure value was retrieved
    # (suppresses the "unhandled failure" check).
    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_scheduled", "_defused",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False

    # -- state -------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the exception for failed events)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if self._scheduled:
            raise SimulationError(f"{self!r} scheduled twice")
        self._scheduled = True
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception as its value."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition -------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, env._eid, self))

    def cancel(self) -> None:
        """Disarm a timer nobody waits on: it will not fire, and from
        now on it reaches nothing. A no-op once it has fired.

        The heap entry stays until cancelled entries outnumber live
        ones, then the heap is rebuilt without them; pop order is a
        total order on ``(time, seq)``, so that cannot reorder anything.
        """
        if self.callbacks is None:
            return
        self.callbacks = None
        env = self.env
        queue = env._queue
        env._cancelled += 1
        if env._cancelled * 2 > len(queue):
            queue[:] = [
                entry for entry in queue if entry[2].callbacks is not None
            ]
            heapify(queue)
            env._cancelled = 0

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self)


class Process(Event):
    """Wraps a generator; the process *is* an event that fires on return.

    The generator yields :class:`Event` instances; the process resumes
    with the event's value (``event.value`` is sent into the generator,
    or raised into it if the event failed).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError(f"not a generator: {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`ProcessInterrupt` inside the process.

        The process is rescheduled immediately; the event it was waiting
        for keeps running but its eventual value is discarded.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is None:
            raise SimulationError("process not waiting (initialising)")
        # Detach from the current target so its trigger no longer resumes us.
        if self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event = Event(self.env)
        interrupt_event.callbacks.append(self._resume)
        interrupt_event.fail(ProcessInterrupt(cause))
        interrupt_event._defused = True
        self._target = None

    # -- internal ----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        try:
            if event._ok:
                step = self._generator.send(event._value)
            else:
                event._defused = True
                step = self._generator.throw(event._value)
        except StopIteration as exc:
            self._target = None
            self.env._active_process = None
            self.succeed(exc.value)
            return
        except BaseException as exc:
            self._target = None
            self.env._active_process = None
            self.fail(exc)
            return
        self.env._active_process = None

        if not isinstance(step, Event):
            raise SimulationError(
                f"process yielded a non-event: {step!r} "
                f"(from {self._generator!r})"
            )
        self._target = step
        if step.callbacks is not None:
            step.callbacks.append(self._resume)
        else:
            # Already processed: resume immediately via a proxy event.
            proxy = Event(self.env)
            proxy.callbacks.append(self._resume)
            proxy.trigger(step)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", repr(self._generator))
        return f"<Process {name} alive={self.is_alive}>"


class Condition(Event):
    """Fires when ``evaluate(events, n_done)`` becomes true.

    The value is an ordered dict-like mapping of the *triggered* events to
    their values, preserving the order events were passed in.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")

        if not self._events:
            self.succeed(self._collect())
            return

        for event in self._events:
            if self._value is not _PENDING:
                break  # decided by an already-processed event
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict:
        # An event only counts once *processed* — Timeouts carry their value
        # from construction, so `triggered` alone would include pending ones.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect())
        else:
            return
        # Decided: let go of the events still pending, or each of them
        # keeps this condition, and with it every collected value,
        # alive until it fires.
        for other in self._events:
            if other.callbacks is not None and self._check in other.callbacks:
                other.callbacks.remove(self._check)


class AllOf(Condition):
    """Fires once every event in the set has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda events, count: count == len(events), events)


class AnyOf(Condition):
    """Fires as soon as any event in the set fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda events, count: count >= 1, events)


class Environment:
    """Execution environment: clock plus event heap."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = 0
        #: Cancelled timers still in the heap.
        self._cancelled = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._eid += 1
        heappush(self._queue, (self._now + delay, self._eid, event))

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until
        it fires, returning its value).
        """
        stop_at = None
        stop_event = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is not None:
                stop_event.callbacks.append(self._stop_callback)
            elif stop_event.triggered:
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self._now})"
                )

        queue = self._queue
        horizon = float("inf") if stop_at is None else stop_at
        try:
            while queue:
                if queue[0][0] > horizon:
                    self._now = stop_at
                    return None
                when, _, event = heappop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    # A cancelled timer: not even the clock moves.
                    self._cancelled -= 1
                    continue
                self._now = when
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before `until` fired"
                )
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value
        if stop_at is not None:
            self._now = stop_at
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event._defused = True
        raise event._value
