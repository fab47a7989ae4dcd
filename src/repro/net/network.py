"""Simulated network: hosts, routes, listeners and connection setup.

A :class:`Network` owns named :class:`Host`\\ s and directional
:class:`~repro.net.link.LinkSpec` routes between them. ``connect``
performs the TCP three-way handshake (one RTT before the connect event
fires; the server's accept queue sees the connection after half an RTT)
and yields a :class:`~repro.net.tcp.ConnectionSide`.

Failure semantics mirror real sockets:

* connecting to a **down host** times out after ``connect_timeout``;
* connecting to a **port with no listener** is refused after one RTT;
* taking a host down aborts every established connection it terminates.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ConnectError, NetworkError
from repro.net.link import LinkSpec, Wire
from repro.net.tcp import ConnectionSide, TcpConnection, TcpOptions
from repro.sim import EOF, Environment, Event, Mailbox

__all__ = ["Host", "Listener", "Network"]


class Host:
    """A named machine with directional access wires and counters."""

    def __init__(
        self, env: Environment, name: str, access_bandwidth: float
    ):
        self.env = env
        self.name = name
        self.up = True
        self.uplink = Wire(env, access_bandwidth, f"{name}.up")
        self.downlink = Wire(env, access_bandwidth, f"{name}.down")
        self.listeners: Dict[int, "Listener"] = {}
        self.connections: List[TcpConnection] = []
        #: Monotone counters for load reporting.
        self.counters: Dict[str, int] = {
            "connections_accepted": 0,
            "connections_initiated": 0,
        }

    @property
    def wires(self) -> Tuple[Wire, Wire]:
        return (self.uplink, self.downlink)

    def fail(self) -> None:
        """Take the host down, resetting every established connection."""
        self.up = False
        for conn in self.connections:
            conn.abort()

    def recover(self) -> None:
        """Bring the host back up."""
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Host {self.name} {state}>"


class Listener:
    """A listening port; ``accept()`` yields server-side connections."""

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self._accept_queue = Mailbox(host.env)
        self.closed = False

    def accept(self) -> Event:
        """Event firing with the next server-side :class:`ConnectionSide`.

        Fails with :class:`NetworkError` once the listener is closed and
        drained.
        """
        event = Event(self.host.env)
        inner = self._accept_queue.get()
        inner.callbacks.append(lambda evt: self._on_accept(event, evt.value))
        return event

    def _on_accept(self, event: Event, item) -> None:
        if item is EOF:
            event.fail(NetworkError(f"listener {self.port} closed"))
            event._defused = True
        else:
            event.succeed(item)

    def _enqueue(self, side: ConnectionSide) -> None:
        if not self.closed:
            self._accept_queue.put(side)

    def close(self) -> None:
        self.closed = True
        if not self._accept_queue.closed:
            self._accept_queue.close()

    @property
    def backlog(self) -> int:
        """Connections accepted by the stack but not yet ``accept()``-ed."""
        return len(self._accept_queue)


class Network:
    """Topology container and connection factory."""

    def __init__(self, env: Environment, seed: int = 0):
        self.env = env
        self.rng = random.Random(seed)
        self.hosts: Dict[str, Host] = {}
        self._routes: Dict[Tuple[str, str], LinkSpec] = {}
        #: Shared backbone capacity per directional route.
        self._route_wires: Dict[Tuple[str, str], Wire] = {}
        self.default_route: Optional[LinkSpec] = None

    # -- topology ------------------------------------------------------------

    def add_host(
        self, name: str, access_bandwidth: float = 1.25e9
    ) -> Host:
        """Add a host (default access wire: 10 Gb/s, i.e. rarely binding)."""
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self.env, name, access_bandwidth)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def set_route(
        self, a: str, b: str, spec: LinkSpec, symmetric: bool = True
    ) -> None:
        """Install the path spec between hosts ``a`` and ``b``."""
        self.host(a)
        self.host(b)
        self._routes[(a, b)] = spec
        if symmetric:
            self._routes[(b, a)] = spec

    def route(self, src: str, dst: str) -> LinkSpec:
        spec = self._routes.get((src, dst)) or self.default_route
        if spec is None:
            raise NetworkError(f"no route {src} -> {dst}")
        return spec

    def route_wire(self, src: str, dst: str) -> Wire:
        """The shared backbone wire for the directional route."""
        key = (src, dst)
        wire = self._route_wires.get(key)
        if wire is None:
            spec = self.route(src, dst)
            wire = Wire(self.env, spec.bandwidth, f"{src}->{dst}")
            self._route_wires[key] = wire
        return wire

    # -- sockets ---------------------------------------------------------------

    def listen(self, host_name: str, port: int) -> Listener:
        """Open a listening port on ``host_name``."""
        host = self.host(host_name)
        if port in host.listeners and not host.listeners[port].closed:
            raise NetworkError(f"{host_name}:{port} already listening")
        listener = Listener(host, port)
        host.listeners[port] = listener
        return listener

    def connect(
        self,
        src_name: str,
        endpoint: Tuple[str, int],
        options: Optional[TcpOptions] = None,
    ) -> Event:
        """Open a connection; fires with the client-side after one RTT.

        Failure modes: :class:`ConnectError` after ``connect_timeout``
        for a down host, after one RTT for a missing listener.
        """
        options = options or TcpOptions()
        src = self.host(src_name)
        dst_name, port = endpoint
        dst = self.host(dst_name)
        spec = self.route(src_name, dst_name)
        event = Event(self.env)

        if not src.up:
            event.fail(ConnectError(f"source host {src_name} is down"))
            event._defused = True
            return event

        if not dst.up:
            # No SYN-ACK ever comes back: connect times out.
            timer = self.env.timeout(options.connect_timeout)
            timer.callbacks.append(
                lambda _evt: self._fail_connect(
                    event,
                    ConnectError(
                        f"connect to {dst_name}:{port} timed out "
                        f"(host down)"
                    ),
                )
            )
            return event

        listener = dst.listeners.get(port)
        if listener is None or listener.closed:
            # RST comes back after one round trip.
            timer = self.env.timeout(spec.rtt)
            timer.callbacks.append(
                lambda _evt: self._fail_connect(
                    event,
                    ConnectError(f"connection refused: {dst_name}:{port}"),
                )
            )
            return event

        conn = TcpConnection(
            self.env,
            spec,
            client=src_name,
            server=dst_name,
            server_port=port,
            client_wires=src.wires,
            server_wires=dst.wires,
            options=options,
            rng=self.rng,
            route_wires=(
                self.route_wire(src_name, dst_name),
                self.route_wire(dst_name, src_name),
            ),
        )
        src.connections.append(conn)
        dst.connections.append(conn)
        src.counters["connections_initiated"] += 1

        syn = self.env.timeout(spec.latency)
        syn.callbacks.append(
            lambda _evt: self._deliver_syn(dst, listener, conn)
        )
        synack = self.env.timeout(spec.rtt)
        synack.callbacks.append(
            lambda _evt: self._complete_connect(event, dst, conn)
        )
        return event

    @staticmethod
    def _fail_connect(event: Event, exc: ConnectError) -> None:
        event.fail(exc)

    @staticmethod
    def _deliver_syn(
        dst: Host, listener: Listener, conn: TcpConnection
    ) -> None:
        if dst.up and not listener.closed:
            dst.counters["connections_accepted"] += 1
            listener._enqueue(conn.server_side)

    @staticmethod
    def _complete_connect(
        event: Event, dst: Host, conn: TcpConnection
    ) -> None:
        if not dst.up:
            conn.abort()
            event.fail(ConnectError(f"host {dst.name} went down"))
            return
        event.succeed(conn.client_side)
