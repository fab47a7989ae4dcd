"""Per-request phase profiling: where one request's time goes.

The paper's Figure 2 (keep-alive amortising connection setup) and
Figure 3 (vectored reads collapsing range round trips) are claims about
*phases* of a request, not its total. Every request therefore records a
breakdown of its seconds over these phases:

============== =====================================================
cache-lookup    probing the client page cache (and, on the proxy,
                its page store) before any request leaves the process
queue-wait      entering the engine until a session is in hand
                (pool checkout, breaker/deadline checks, and — on
                retries — the backoff sleep before the next attempt)
connect         TCP connect of a fresh session (0 on a pool hit)
tls             TLS handshake of a fresh session (0 for plain http)
request-write   serialising and sending the request bytes
ttfb            request sent until the first response byte arrives
body-transfer   first response byte until the body completes
multipart-decode decoding a multipart/byteranges body into parts
                (recorded by the vectored-read layer)
readahead-wait  demanded read blocked on an in-flight speculative
                batch (recorded by the transfer engine; the portion
                of a prefetch the application did *not* overlap)
============== =====================================================

The mechanics are a :class:`PhaseRecorder`: the request path drops a
*mark* at each phase boundary and the interval since the previous mark
is attributed to the marked phase. Marks are cumulative across
redirects and retries, so the phases of one logical request always sum
to the enclosing ``request`` span's duration (exactly, on the
simulated clock). :meth:`PhaseRecorder.phases` is the breakdown the
span carries as its ``phases`` attribute.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = ["PHASES", "PhaseRecorder"]

#: Canonical phase order (label form, as used in metric labels).
PHASES = (
    "cache-lookup",
    "queue-wait",
    "connect",
    "tls",
    "request-write",
    "ttfb",
    "body-transfer",
    "multipart-decode",
    "readahead-wait",
)


class PhaseRecorder:
    """Accumulates phase marks against an injected clock.

    ``mark(phase)`` attributes the time since the previous mark (or
    since construction) to ``phase``; repeated marks of one phase add
    up, which is what makes redirect- and retry-crossing requests sum
    correctly. The recorder never calls ``time`` itself — the request
    engine hands in the context clock, so simulated requests profile in
    simulated seconds.
    """

    __slots__ = ("clock", "_last", "_elapsed")

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self._last = clock()
        self._elapsed: Dict[str, float] = {}

    def mark(self, phase: str) -> float:
        """Close the interval since the last mark into ``phase``."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        now = self.clock()
        delta = now - self._last
        self._last = now
        self._elapsed[phase] = self._elapsed.get(phase, 0.0) + delta
        return delta

    def phases(self) -> Dict[str, float]:
        """``phase -> seconds`` for every phase, in canonical order
        (0.0 for a phase never marked); the values sum to the
        enclosing span's duration."""
        return {phase: self._elapsed.get(phase, 0.0) for phase in PHASES}
