"""Flow-level TCP model over the discrete-event kernel.

The model reproduces the TCP behaviours the paper's analysis depends on:

* three-way-handshake cost (one RTT before the first byte can be sent);
* **slow start** from a small initial window — the reason HTTP/1.0-style
  connection-per-request is slow (Section 2.2 of the paper);
* congestion-window growth that *persists across requests on a kept-alive
  connection* — the benefit davix's session recycling harvests;
* optional **Nagle** interaction (Section 2.2 cites pipelining/Nagle side
  effects) and idle-window reset (RFC 5681 §4.1);
* bandwidth sharing: a burst occupies the sender's uplink and the
  receiver's downlink wires for its serialisation time, so concurrent
  connections queue at burst granularity.

It is a *flow* model: data moves in bursts bounded by the congestion
window, not packets; loss is modelled as an episode (retransmission delay
plus multiplicative decrease), not per-segment.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bytequeue import ByteQueue
from repro.errors import ConnectionClosed
from repro.net.link import LinkSpec, Wire
from repro.net.options import TcpOptions
from repro.sim import EOF, Environment, Event, Mailbox, Signal

__all__ = ["TcpOptions", "TcpConnection", "ConnectionSide"]


class _HalfStream:
    """One direction of a TCP connection (sender + peer's receive side)."""

    def __init__(
        self,
        env: Environment,
        spec: LinkSpec,
        path_wires,
        options: TcpOptions,
        jitter_offset: float,
        rng,
        name: str,
    ):
        self.env = env
        self.spec = spec
        #: Wires a burst traverses in order (store-and-forward: each is
        #: held for the burst's serialisation time at that wire's rate).
        self.path_wires = tuple(path_wires)
        self.options = options
        self.jitter_offset = jitter_offset
        self.rng = rng
        self.name = name

        self.cwnd: float = float(
            min(options.initial_window, options.max_window)
        )
        self.ssthresh: float = float(options.effective_ssthresh)
        self.inflight = 0
        self.bytes_sent = 0
        self.loss_episodes = 0
        self.last_activity = env.now

        #: Application writes awaiting transmission.
        self._queue = ByteQueue()
        self._closing = False
        self.aborted = False

        self._wake = Signal(env)
        self._acked = Signal(env)
        self._transit = 0  # bursts still crossing the path
        self._transit_done = Signal(env)

        self.rx = Mailbox(env)
        self.reset = False  # set on abort; EOF then means "reset", not FIN
        self._last_delivery_at = env.now

        self._process = env.process(self._sender())

    # -- application-facing ------------------------------------------------

    def send(self, data) -> Event:
        """Queue ``data``; fires once accepted into the send buffer.

        ``data`` is one buffer or a sequence of buffers (a gather
        write). A sequence is queued whole before the sender process
        can wake, so it is cut into exactly the bursts its join would
        be. Mirrors ``socket.sendall`` semantics: acceptance, not
        delivery. Actual transmission is paced by the congestion
        window; the send buffer is unbounded in the model (the
        application cannot out-run simulated time).
        """
        event = Event(self.env)
        if self.aborted or self._closing:
            reason = "connection reset" if self.aborted else "already closed"
            event.fail(ConnectionClosed(f"{self.name}: {reason}"))
            event._defused = True
            return event
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = (data,)
        queued = len(self._queue)
        for piece in data:
            self._queue.append(piece)
        size = len(self._queue) - queued
        if size:
            self._wake.fire()
        event.succeed(size)
        return event

    def close(self) -> None:
        """Half-close: queued data is still delivered, then EOF."""
        if self._closing or self.aborted:
            return
        self._closing = True
        self._wake.fire()

    def abort(self) -> None:
        """Hard reset: pending data is discarded, receiver sees a reset."""
        if self.aborted:
            return
        self.aborted = True
        self.reset = True
        self._queue.clear()
        if not self.rx.closed:
            self.rx.close()
        self._wake.fire()
        self._acked.fire()

    # -- sender process ------------------------------------------------------

    def _sender(self):
        env = self.env
        opts = self.options
        while True:
            if self.aborted:
                return
            if not self._queue:
                if self._closing:
                    # FIN must trail the last data: wait for in-flight
                    # bursts to schedule their deliveries first.
                    while self._transit > 0:
                        yield self._transit_done.wait()
                    self._schedule_eof()
                    return
                yield self._wake.wait()
                continue

            # RFC 5681 4.1: restart from the initial window after idle.
            if (
                opts.idle_reset
                and self.inflight == 0
                and env.now - self.last_activity > opts.idle_timeout
            ):
                self.cwnd = float(
                    min(opts.initial_window, opts.max_window)
                )

            while self.inflight >= self.cwnd and not self.aborted:
                yield self._acked.wait()
            if self.aborted:
                return
            if not self._queue:
                continue

            window = max(int(self.cwnd) - self.inflight, opts.mss)
            pending = len(self._queue)
            limit = min(window, opts.chunk_cap, pending)
            if (
                opts.nagle
                and pending < opts.mss
                and self.inflight > 0
            ):
                # Nagle: hold sub-MSS data while anything is unacked.
                yield self._acked.wait()
                continue
            # One burst: a slice of one write, or one join across several.
            chunk = self._queue.take(limit)
            self.inflight += limit
            self.last_activity = env.now
            lost = (
                self.spec.loss_rate > 0
                and self.rng.random() < self.spec.loss_rate
            )
            _Burst(self, chunk, lost)
            # Yield so the application can queue its next write before
            # the next burst is cut.
            yield env.timeout(0)

    def _deliver(self, delivery: Event) -> None:
        if self.aborted or self.rx.closed:
            return
        self.rx.put(delivery._value)

    def _schedule_eof(self) -> None:
        delay = self.spec.latency + self.jitter_offset
        deliver_at = max(
            self.env.now + delay, self._last_delivery_at + 1e-12
        )
        fin = self.env.timeout(deliver_at - self.env.now)
        fin.callbacks.append(lambda _evt: self._deliver_eof())

    def _deliver_eof(self) -> None:
        if not self.rx.closed:
            self.rx.close()

    def _on_ack(self, size: int, lost: bool) -> None:
        self.inflight = max(0, self.inflight - size)
        if lost:
            # Multiplicative decrease (NewReno-ish fast recovery).
            self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.options.mss)
            self.cwnd = self.ssthresh
        elif self.cwnd < self.ssthresh:
            self.cwnd += size  # slow start: one MSS per acked MSS
        else:
            self.cwnd += self.options.mss * size / self.cwnd  # AIMD
        self.cwnd = min(self.cwnd, float(self.options.max_window))
        self.last_activity = self.env.now
        self._acked.fire()


class _Burst:
    """One burst's journey: wires, propagation, delivery, ack.

    A chain of callbacks on the wire claims and timeouts themselves,
    not a kernel process: consecutive bursts pipeline across the wires
    (burst n+1 occupies the uplink while burst n crosses the backbone)
    and per-wire FIFO keeps deliveries in order. The first wire is
    claimed when the burst is cut.
    """

    __slots__ = ("half", "chunk", "lost", "hop", "claim", "duration")

    def __init__(self, half: "_HalfStream", chunk: bytes, lost: bool):
        self.half = half
        self.chunk = chunk
        self.lost = lost
        self.hop = 0
        self.duration = 0.0
        half._transit += 1
        self._enter_wire()

    def _enter_wire(self) -> None:
        wires = self.half.path_wires
        if self.hop == len(wires):
            self._arrive()
            return
        self.claim = wires[self.hop].acquire()
        self.claim.callbacks.append(self._hold_wire)

    def _hold_wire(self, _claim: Event) -> None:
        # Store-and-forward across the path: each wire is occupied for
        # the burst's serialisation time at *its own* rate, so a slow
        # path does not block a fast receiver's other flows.
        half = self.half
        self.duration = len(self.chunk) / half.path_wires[self.hop].bandwidth
        half.env.timeout(self.duration).callbacks.append(self._leave_wire)

    def _leave_wire(self, _held: Event) -> None:
        self.claim.release()
        self.half.path_wires[self.hop].record(len(self.chunk), self.duration)
        self.hop += 1
        self._enter_wire()

    def _arrive(self) -> None:
        half = self.half
        env = half.env
        size = len(self.chunk)
        half.bytes_sent += size

        delay = half.spec.latency + half.jitter_offset
        if self.lost:
            # Loss episode: the burst is retransmitted after an RTO.
            delay += half.options.rto + self.duration
            half.loss_episodes += 1

        deliver_at = max(env.now + delay, half._last_delivery_at + 1e-12)
        half._last_delivery_at = deliver_at
        delivery = env.timeout(deliver_at - env.now, self.chunk)
        delivery.callbacks.append(half._deliver)
        ack = env.timeout(deliver_at - env.now + half.spec.latency)
        ack.callbacks.append(
            lambda _evt, n=size, was_lost=self.lost: half._on_ack(n, was_lost)
        )
        half._transit -= 1
        half._transit_done.fire()


class ConnectionSide:
    """One endpoint's view of a TCP connection.

    ``send``/``recv``/``close``/``abort`` mirror a socket; all blocking
    operations return kernel events.
    """

    def __init__(
        self,
        conn: "TcpConnection",
        out_half: _HalfStream,
        in_half: _HalfStream,
        local: str,
        remote: Tuple[str, int],
    ):
        self._conn = conn
        self._out = out_half
        self._in = in_half
        self.local = local
        self.remote = remote
        self._leftover = ByteQueue()

    # -- properties ----------------------------------------------------------

    @property
    def connection(self) -> "TcpConnection":
        return self._conn

    @property
    def rtt(self) -> float:
        """Base round-trip time of the path (excluding jitter)."""
        return self._out.spec.rtt

    @property
    def cwnd(self) -> float:
        """Current congestion window of the sending direction (bytes)."""
        return self._out.cwnd

    @property
    def bytes_sent(self) -> int:
        return self._out.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._in.bytes_sent  # what the peer sent is what we received

    @property
    def closed(self) -> bool:
        return self._out.aborted or self._out._closing

    # -- I/O -------------------------------------------------------------------

    def send(self, data) -> Event:
        """Queue one buffer, or a sequence of buffers as one gather
        write; fires when the data has been put on the wire."""
        return self._out.send(data)

    def recv(self, max_bytes: int = 65536) -> Event:
        """Fires with up to ``max_bytes``; ``b""`` signals clean EOF.

        A reset connection fails the event with :class:`ConnectionClosed`.
        """
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        if self._leftover:
            return Event(self._out.env).succeed(
                self._leftover.read(max_bytes)
            )
        # The mailbox's own event, one hop from burst to waiter: its
        # first callback turns the mailbox item into what recv promises
        # before any waiter's callback sees the value.
        event = self._in.rx.get()
        event.callbacks.append(lambda evt: self._on_rx(evt, max_bytes))
        return event

    def _on_rx(self, event: Event, max_bytes: int) -> None:
        item = event._value
        if item is EOF:
            if self._in.reset:
                event._ok = False
                event._value = ConnectionClosed(f"{self.local}: reset by peer")
            else:
                event._value = b""
            return
        if len(item) > max_bytes:
            self._leftover.append(item)
            item = self._leftover.read(max_bytes)
        event._value = bytes(item)

    def cancel_recv(self, event: Event) -> None:
        """Withdraw a :meth:`recv` nobody waits on any more, so that it
        cannot swallow the next burst."""
        self._in.rx.withdraw(event)

    def close(self) -> None:
        """Graceful close of our sending half (FIN after queued data)."""
        self._out.close()

    def shutdown_read(self) -> None:
        """Stop receiving: what already arrived is still read, then EOF;
        later bursts are dropped. Sending still works."""
        if not self._in.rx.closed:
            self._in.rx.close()

    def abort(self) -> None:
        """Reset both directions immediately."""
        self._conn.abort()


class TcpConnection:
    """A bidirectional TCP connection between two simulated hosts."""

    def __init__(
        self,
        env: Environment,
        spec: LinkSpec,
        client: str,
        server: str,
        server_port: int,
        client_wires: Tuple[Wire, Wire],
        server_wires: Tuple[Wire, Wire],
        options: TcpOptions,
        rng,
        route_wires: Optional[Tuple[Wire, Wire]] = None,
    ):
        self.env = env
        self.spec = spec
        self.options = options
        self.client = client
        self.server = server
        self.server_port = server_port
        self.established_at = env.now

        jitter = rng.uniform(0, spec.jitter) if spec.jitter else 0.0
        client_up, client_down = client_wires
        server_up, server_down = server_wires
        route_c2s, route_s2c = route_wires or (None, None)
        path_c2s = [
            wire
            for wire in (client_up, route_c2s, server_down)
            if wire is not None
        ]
        path_s2c = [
            wire
            for wire in (server_up, route_s2c, client_down)
            if wire is not None
        ]
        self._c2s = _HalfStream(
            env, spec, path_c2s, options, jitter, rng,
            f"{client}->{server}",
        )
        self._s2c = _HalfStream(
            env, spec, path_s2c, options, jitter, rng,
            f"{server}->{client}",
        )
        self.client_side = ConnectionSide(
            self, self._c2s, self._s2c, client, (server, server_port)
        )
        self.server_side = ConnectionSide(
            self, self._s2c, self._c2s, server, (client, 0)
        )

    def abort(self) -> None:
        """Reset the connection in both directions."""
        self._c2s.abort()
        self._s2c.abort()

    @property
    def aborted(self) -> bool:
        return self._c2s.aborted and self._s2c.aborted

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.client}->{self.server}:{self.server_port}>"
        )
