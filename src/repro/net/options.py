"""Tunable parameters of the TCP model, free of the model itself.

A client configures connections with :class:`TcpOptions` (``Context``,
``execute_request``, the analysis job) whether or not anything is
simulated, so the type lives in a leaf that imports no simulator;
:mod:`repro.net.tcp` imports it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TcpOptions:
    """Tunable parameters of the TCP model.

    Defaults follow a 2014-era Linux stack: MSS 1460, initial window of
    10 segments (RFC 6928), 4 MiB receive-window cap.
    ``connect_timeout`` bounds a connect on both runtimes; the other
    fields tune the simulated transport only.
    """

    mss: int = 1460
    initial_window_segments: int = 10
    max_window: int = 4 * 1024 * 1024
    ssthresh: Optional[int] = None  # None -> max_window (no loss assumed)
    nagle: bool = False  # davix sets TCP_NODELAY; toggle for the ablation
    idle_reset: bool = True  # RFC 5681: restart cwnd after idle
    idle_timeout: float = 1.0
    connect_timeout: float = 5.0
    chunk_cap: int = 65536  # burst granularity (events per transfer knob)
    rto: float = 0.2  # retransmission timeout for loss episodes

    @property
    def initial_window(self) -> int:
        return self.mss * self.initial_window_segments

    @property
    def effective_ssthresh(self) -> int:
        return self.max_window if self.ssthresh is None else self.ssthresh
