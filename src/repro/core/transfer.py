"""TransferConfig: the unified I/O-engine tuning bundle.

:class:`TransferConfig` is the single home for the client's
parallelism tuning (the scattered per-call knobs of earlier releases
are gone): one frozen bundle carried on
:class:`~repro.core.context.RequestParams` (``transfer=``): how many
requests a file operation may keep in flight, whether the pipelined
read-ahead engine (:mod:`repro.core.engine`) is armed, and the bounds
of its speculative sliding window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["TransferConfig"]


@dataclass(frozen=True)
class TransferConfig:
    """How a file's bytes move: parallelism and read-ahead in one place.

    ``max_inflight`` bounds the concurrent batches of one demanded
    vectored read (multistream downloads take their stream count from
    ``RequestParams.multistream_max_streams``); the window fields bound
    the *speculative* side — how many planned batches the transfer
    engine keeps in flight ahead of the application.
    """

    #: Concurrent in-flight requests per file operation (1 = the
    #: historical sequential dispatch).
    max_inflight: int = 1
    #: Arm the pipelined read-ahead engine: vectored reads route
    #: through a sliding window of speculative batches.
    read_ahead: bool = False
    #: Speculative batches in flight when the window opens.
    window_batches: int = 4
    #: Floor the window shrinks to on errors / off-plan access.
    min_window_batches: int = 1
    #: Ceiling the window grows to while speculation keeps hitting.
    max_window_batches: int = 16
    #: Cap on speculative bytes outstanding at once.
    window_bytes: int = 32 * 1024 * 1024
    #: Byte budget of the client page cache
    #: (:class:`~repro.core.pagecache.PageCache`); 0 disables it. The
    #: cache lives on the :class:`~repro.core.context.Context`, shared
    #: by every file, so repeated and overlapping reads of the same
    #: object never leave the process.
    page_cache_bytes: int = 0
    #: Page granularity of the client page cache.
    page_size: int = 64 * 1024

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.page_cache_bytes < 0:
            raise ValueError("page_cache_bytes must be >= 0")
        if self.page_size < 1:
            raise ValueError("page_size must be >= 1")
        if self.min_window_batches < 1:
            raise ValueError("min_window_batches must be >= 1")
        if not (
            self.min_window_batches
            <= self.window_batches
            <= self.max_window_batches
        ):
            raise ValueError(
                "window_batches must satisfy min <= initial <= max"
            )
        if self.window_bytes < 1:
            raise ValueError("window_bytes must be >= 1")

    def replace(self, **changes) -> "TransferConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
