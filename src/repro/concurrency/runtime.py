"""Runtime interface shared by the simulator and socket interpreters."""

from __future__ import annotations

from typing import Any, Generator, Optional

__all__ = ["Runtime", "TaskHandle"]


class TaskHandle:
    """Opaque handle to a spawned operation.

    The concrete runtime stores what it needs in ``impl`` (a kernel
    process or a thread + result slot). Join via the
    :class:`~repro.concurrency.effects.Join` effect, or
    :meth:`Runtime.join` from outside any operation.
    """

    __slots__ = ("impl", "name")

    def __init__(self, impl: Any, name: str = ""):
        self.impl = impl
        self.name = name

    @property
    def alive(self) -> bool:
        """True until the operation has returned or raised."""
        return self.impl.is_alive

    def __repr__(self) -> str:
        label = f" {self.name}" if self.name else ""
        return f"<TaskHandle{label}>"


class Runtime:
    """Executes effect generators; see :mod:`repro.concurrency.effects`.

    Sub-classes provide:

    * :meth:`run` — execute an operation to completion, returning its
      value (drives the whole world in the simulator; runs inline on the
      calling thread for sockets);
    * :meth:`spawn` — start an operation concurrently;
    * :meth:`join` — wait for a spawned task from *outside* operations;
    * :meth:`settle` — the same for a task already told to end, except
      that the simulator never runs for it;
    * :meth:`listen` — open a listener handle usable with ``Accept``;
    * :meth:`now` — current time in seconds.
    """

    def run(self, op: Generator) -> Any:
        raise NotImplementedError

    def spawn(self, op: Generator, name: str = "") -> TaskHandle:
        raise NotImplementedError

    def join(self, task: TaskHandle) -> Any:
        raise NotImplementedError

    def settle(self, task: TaskHandle) -> None:
        raise NotImplementedError

    def listen(self, port: int, host: Optional[str] = None) -> Any:
        raise NotImplementedError

    def now(self) -> float:
        raise NotImplementedError
