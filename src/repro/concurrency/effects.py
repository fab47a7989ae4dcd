"""Effect vocabulary for transport-agnostic protocol code.

Protocol logic (the davix client, the storage server, the XRootD
baseline) is written as generators that ``yield`` *effects* — plain
descriptions of I/O they need — and receive the result back. Two
interpreters execute them:

* :class:`~repro.concurrency.sim_runtime.SimRuntime` maps effects onto
  the discrete-event network model (benchmarks, latency studies);
* :class:`~repro.concurrency.thread_runtime.ThreadRuntime` maps them
  onto blocking sockets and OS threads (real deployments, integration
  tests).

This is the sans-io pattern applied one level up: the protocol code is
written once and never knows which world it runs in. Sub-operations
compose with ``result = yield from sub_op(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence, Tuple, Union

__all__ = [
    "Effect",
    "Sleep",
    "Now",
    "Connect",
    "Send",
    "Recv",
    "Close",
    "Abort",
    "Spawn",
    "Join",
    "Accept",
]


class Effect:
    """Base class for all effects (dispatch marker)."""

    __slots__ = ()


@dataclass(frozen=True)
class Sleep(Effect):
    """Suspend for ``seconds`` (simulated or wall-clock).

    Protocol code also uses this to model CPU work (decompression,
    per-event analysis) so compute time advances the simulated clock.
    """

    seconds: float


@dataclass(frozen=True)
class Now(Effect):
    """Resolve to the current time (simulated seconds or ``monotonic``)."""


@dataclass(frozen=True)
class Connect(Effect):
    """Open a TCP connection to ``endpoint``; resolves to a channel.

    ``options`` is a :class:`~repro.net.options.TcpOptions` (None = the
    defaults); the socket runtime uses only its ``connect_timeout``.
    Raises :class:`~repro.errors.ConnectError` on failure.
    """

    endpoint: Tuple[str, int]
    options: Any = None


@dataclass(frozen=True)
class Send(Effect):
    """Write ``data`` to ``channel``; resolves once on the wire.

    ``data`` is one buffer or a sequence of buffers — a gather write:
    the pieces reach the peer back to back, as their join would, and
    are never joined on the way.
    """

    channel: Any
    data: Union[bytes, Sequence[bytes]]


@dataclass(frozen=True)
class Recv(Effect):
    """Read up to ``max_bytes``; resolves to bytes (``b""`` = EOF).

    Raises :class:`~repro.errors.ConnectionClosed` on reset and
    :class:`~repro.errors.TransferTimeout` when ``timeout`` expires.
    """

    channel: Any
    max_bytes: int = 65536
    timeout: Optional[float] = None


@dataclass(frozen=True)
class Close(Effect):
    """Flush and close ``channel``; it must not be used afterwards.

    Queued data still reaches the peer (graceful close).
    """

    channel: Any


@dataclass(frozen=True)
class Abort(Effect):
    """Reset ``channel`` immediately; queued data is lost."""

    channel: Any


@dataclass(frozen=True)
class Spawn(Effect):
    """Start ``op`` (an effect generator) concurrently -> task handle."""

    op: Generator
    name: str = ""


@dataclass(frozen=True)
class Join(Effect):
    """Wait for a spawned task; resolves to its return value.

    Re-raises the task's exception if it failed.
    """

    task: Any


@dataclass(frozen=True)
class Accept(Effect):
    """Wait for an inbound connection on a listener handle."""

    listener: Any


@dataclass(frozen=True)
class MakePromise(Effect):
    """Create a promise: a one-shot result slot.

    The resolved value is a runtime-specific promise object with
    ``resolve(value)`` / ``reject(exc)`` methods callable from *any*
    context (including synchronous callbacks).
    """


@dataclass(frozen=True)
class Await(Effect):
    """Wait for a promise; resolves to its value (or re-raises).

    Raises :class:`~repro.errors.TransferTimeout` if ``timeout``
    (seconds) elapses first.
    """

    promise: Any
    timeout: Optional[float] = None
