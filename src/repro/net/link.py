"""Link and wire primitives for the network model.

A :class:`LinkSpec` describes a network path (one-way latency, bottleneck
bandwidth, jitter, loss). A :class:`Wire` is a directional transmission
resource attached to a host (its uplink or downlink); transmissions
serialise on wires, which is how concurrent connections share bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, Resource

__all__ = ["LinkSpec", "Wire"]


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a network path between two hosts.

    Parameters
    ----------
    latency:
        One-way propagation delay in seconds.
    bandwidth:
        Bottleneck capacity in **bytes per second**.
    jitter:
        Upper bound of a uniform, per-connection latency offset (seconds).
        Applied once per connection so in-order delivery is preserved.
    loss_rate:
        Probability that a transmitted burst experiences a loss episode
        (retransmission delay + multiplicative cwnd decrease).
    """

    latency: float
    bandwidth: float
    jitter: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")

    @property
    def rtt(self) -> float:
        """Round-trip time in seconds (2x one-way latency)."""
        return 2.0 * self.latency

    def bdp(self) -> float:
        """Bandwidth-delay product in bytes."""
        return self.bandwidth * self.rtt


class Wire:
    """A directional transmission resource on one host.

    Holding the wire for ``size / rate`` seconds models serialisation
    delay; FIFO queueing at burst granularity approximates fair sharing
    between the connections crossing it.
    """

    def __init__(self, env: Environment, bandwidth: float, name: str = ""):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        self.env = env
        self.bandwidth = bandwidth
        self.name = name
        self._resource = Resource(env, capacity=1)
        #: Total bytes that have crossed this wire.
        self.bytes_carried = 0
        #: Total seconds the wire has been busy (for utilisation stats).
        self.busy_time = 0.0

    def acquire(self):
        """Claim the wire; returns a :class:`~repro.sim.resources.Request`.

        A burst claims each wire of its path in turn and holds it for
        its serialisation time at that wire's rate (see
        :mod:`repro.net.tcp`).
        """
        return self._resource.request()

    def record(self, size: int, duration: float) -> None:
        """Account a completed transmission for utilisation statistics."""
        self.bytes_carried += size
        self.busy_time += duration

    @property
    def queue_length(self) -> int:
        """Transmissions currently waiting for the wire."""
        return self._resource.queue_length

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the wire was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:
        return f"<Wire {self.name} {self.bandwidth:.0f} B/s>"
