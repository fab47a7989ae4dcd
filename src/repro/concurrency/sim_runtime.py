"""Effect interpreter over the discrete-event network model.

A :class:`SimRuntime` is bound to one simulated host: every ``Connect``
originates from that host, every ``listen`` opens a port on it. Spawned
operations become kernel processes; ``Sleep`` advances simulated time.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.concurrency import effects as fx
from repro.concurrency.runtime import Runtime, TaskHandle
from repro.errors import ProcessInterrupt, TransferTimeout
from repro.net.network import Network
from repro.sim import Environment, Event, Gate

__all__ = ["SimRuntime"]


class SimRuntime(Runtime):
    """Run effect generators on a simulated host.

    Parameters
    ----------
    network:
        The simulated network this host lives in.
    host:
        Name of the host the runtime is bound to.
    """

    def __init__(self, network: Network, host: str):
        self.network = network
        self.env: Environment = network.env
        self.host = host
        network.host(host)  # validate early

    # -- Runtime interface ----------------------------------------------------

    def run(self, op: Generator) -> Any:
        """Drive the *whole simulation* until ``op`` completes."""
        return self.env.run(until=self.env.process(self._interpret(op)))

    def spawn(self, op: Generator, name: str = "") -> TaskHandle:
        return TaskHandle(self.env.process(self._interpret(op)), name)

    def join(self, task: TaskHandle) -> Any:
        """Wait (by running the simulation) for a spawned task."""
        return self.env.run(until=task.impl)

    def settle(self, task: TaskHandle) -> None:
        """Nothing to wait for: the task ends when the simulation next
        runs, and the clock does not move now."""

    def listen(self, port: int, host: Optional[str] = None) -> Any:
        return self.network.listen(host or self.host, port)

    def now(self) -> float:
        return self.env.now

    # -- interpreter ---------------------------------------------------------

    def _interpret(self, gen: Generator):
        """Kernel process translating effects into simulator events."""
        result: Any = None
        failure: Optional[BaseException] = None
        while True:
            try:
                if failure is not None:
                    step = gen.throw(failure)
                else:
                    step = gen.send(result)
            except StopIteration as stop:
                return stop.value
            result, failure = None, None
            try:
                result = yield from self._perform(step)
            except Exception as exc:  # deliver into the operation
                failure = exc

    def _perform(self, step: fx.Effect):
        env = self.env
        if isinstance(step, fx.Sleep):
            if step.seconds > 0:
                yield env.timeout(step.seconds)
            return None
        if isinstance(step, fx.Now):
            return env.now
        if isinstance(step, fx.Connect):
            side = yield self.network.connect(
                self.host, step.endpoint, step.options
            )
            return side
        if isinstance(step, fx.Send):
            yield step.channel.send(step.data)
            return None
        if isinstance(step, fx.Recv):
            channel, size = step.channel, step.max_bytes
            if step.exactly is not None and step.exactly < size:
                size = step.exactly
            data = yield from self._wait(
                channel.recv(size), step.timeout, channel
            )
            return data
        if isinstance(step, fx.Close):
            step.channel.close()
            return None
        if isinstance(step, fx.Abort):
            step.channel.abort()
            return None
        if isinstance(step, fx.Spawn):
            return TaskHandle(
                env.process(self._interpret(step.op)), step.name
            )
        if isinstance(step, fx.Join):
            value = yield step.task.impl
            return value
        if isinstance(step, fx.Accept):
            side = yield step.listener.accept()
            return side
        if isinstance(step, fx.MakePromise):
            from repro.concurrency.promise import SimPromise

            return SimPromise(Gate(env))
        if isinstance(step, fx.Await):
            value = yield from self._wait(
                step.promise._wait_event(), step.timeout
            )
            return value
        raise TypeError(f"unknown effect {step!r}")

    def _wait(self, event: Event, timeout: Optional[float], channel=None):
        """Wait on ``event`` itself, for at most ``timeout`` seconds.

        The deadline is a timer whose only callback interrupts this
        process; it is cancelled the moment the wait ends, so a stale
        timer pins nothing (above all not the received burst) until its
        deadline. ``channel`` is given for a receive: the getter an
        expired wait leaves behind is withdrawn from it.
        """
        if timeout is None:
            value = yield event
            return value
        process = self.env.active_process
        timer = self.env.timeout(timeout)
        # An event that has its value is about to resume the process.
        timer.callbacks.append(
            lambda _t: event.triggered or process.interrupt(timer)
        )
        try:
            value = yield event
            return value
        except ProcessInterrupt as interrupt:
            if interrupt.cause is not timer:
                raise
            what = "promise await"
            if channel is not None:
                channel.cancel_recv(event)
                what = f"recv on {channel.local}"
            raise TransferTimeout(
                f"{what} timed out after {timeout}s"
            ) from None
        finally:
            timer.cancel()
