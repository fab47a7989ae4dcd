"""Client-side block/page cache for remote-file reads.

The paper's case for HTTP (Section 2.2) is that it inherits the web's
caching infrastructure — but an analysis job re-reading the same
baskets still paid a round trip per read. This module is the missing
client tier: a byte-budget LRU of fixed-size **pages** per remote
object, consulted by :class:`~repro.core.file.DavFile` before any
request leaves the process. Reads that only touch cached pages are
served locally; partially cached reads fetch *only the missing
page-aligned spans* (coalesced into one multi-range request by the
caller); every insertion is validated against the object's ETag, so a
store update invalidates the stale pages instead of mixing versions.

One :class:`PageCache` is shared by every file of a
:class:`~repro.core.context.Context` (arm it with
``TransferConfig(page_cache_bytes=...)``); the range-aware caching
proxy (:mod:`repro.server.proxy`) reuses the same store server-side.

Pages are fixed-size (``page_size``); the only shorter page ever
stored is the object's tail, and only once the total size is known
(from a ``Content-Range`` total or a full-body response), so a cached
page always means "these bytes are the whole truth for this span".

The cache honours origin freshness: ``insert(..., ttl=...)`` carries
the response's ``Cache-Control`` verdict (``no-store``/``max-age=0``
-> never stored; ``max-age=N`` -> the object's pages expire N seconds
later on the cache's ``clock``). A response without a freshness
directive neither arms nor extends an expiry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

__all__ = ["PageCache", "DEFAULT_PAGE_SIZE", "MAX_NO_STORE_KEYS"]

#: Default page size: two 32 KiB ROOT baskets per page.
DEFAULT_PAGE_SIZE = 64 * 1024

#: No-store verdicts one cache remembers; past it the oldest is
#: forgotten (and counted in ``cache.no_store_forgotten_total``).
MAX_NO_STORE_KEYS = 4096

#: One ``(offset, length)`` byte span.
Span = Tuple[int, int]

#: ``cache.origin_bytes_saved``'s key in ``MetricsRegistry.resolved``.
_SAVED = ("counter", "cache.origin_bytes_saved")


class _Entry:
    """Cached state of one remote object (one ETag version)."""

    __slots__ = ("etag", "size", "pages", "expires_at")

    def __init__(self, etag: Optional[str] = None):
        self.etag = etag
        #: Total object size, once learned (Content-Range total or a
        #: full-body response). Gates tail-page storage and EOF clamping.
        self.size: Optional[int] = None
        #: page index -> page bytes (full ``page_size`` except the tail).
        self.pages: Dict[int, bytes] = {}
        #: Clock reading after which the pages are stale (origin
        #: ``max-age``); ``None`` = no freshness bound.
        self.expires_at: Optional[float] = None


class PageCache:
    """Byte-budget LRU of fixed-size pages, keyed by (url, page index).

    All methods are thread-safe (one coarse lock): on the thread
    runtime parallel vectored batches insert concurrently.

    ``lookup`` is the accounting entry point — it classifies each
    logical read as a hit, partial hit, or miss and feeds the
    ``cache.*`` metrics; ``read`` and ``missing_spans`` are the two
    halves of the same probe without accounting (used around a gap
    fill).
    """

    def __init__(
        self,
        budget_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        metrics=None,
        clock=None,
    ):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.budget_bytes = budget_bytes
        self.page_size = page_size
        self.metrics = metrics
        #: Freshness clock (seconds); TTLs are measured against it. The
        #: default never advances, so without a clock nothing expires.
        self.clock = clock or (lambda: 0.0)
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        #: Objects no response may be stored for (the one no-store
        #: table of both tiers), oldest verdict first: the read path
        #: and the proxy skip them; cleared the moment a response
        #: allows caching again. Bounded by :data:`MAX_NO_STORE_KEYS`.
        self._no_store: Dict[str, None] = {}
        #: (key, page index) -> page byte count, in LRU order.
        self._lru: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
        self._used = 0
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "partial_hits": 0,
            "insertions": 0,
            "evictions": 0,
            "evicted_bytes": 0,
            "invalidations": 0,
            "origin_bytes_saved": 0,
            "ttl_expirations": 0,
        }

    # -- metric plumbing ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(f"cache.{name}").inc(amount)

    def _mirror_gauges(self) -> None:
        if self.metrics is not None:
            resolved = self.metrics.resolved
            resolved[("gauge", "cache.used_bytes")].set(self._used)
            resolved[("gauge", "cache.pages")].set(len(self._lru))

    # -- introspection --------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently held (always <= ``budget_bytes``)."""
        return self._used

    @property
    def object_count(self) -> int:
        """Distinct objects with at least one cached page."""
        with self._lock:
            return sum(1 for e in self._entries.values() if e.pages)

    def __contains__(self, key: str) -> bool:
        """Does the cache hold an entry (pages, size or ETag) of ``key``?"""
        with self._lock:
            return key in self._entries

    def suppressed(self, key: str) -> bool:
        """Did the origin forbid caching ``key`` (no-store/max-age=0)?"""
        with self._lock:
            return key in self._no_store

    def suppress(self, key: str) -> None:
        """Forget ``key`` and store nothing of it until a response
        allows caching again.

        Past :data:`MAX_NO_STORE_KEYS` verdicts the oldest is
        forgotten, which is safe: the next fill of that key re-reads
        its ``Cache-Control`` and suppresses it again. The cost is
        that one request — the proxy labels it ``MISS``, not
        ``BYPASS`` — goes down the caching path first."""
        with self._lock:
            self._suppress_locked(key)

    def _suppress_locked(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._drop_locked(key, entry)
            self._mirror_gauges()
        self._no_store.pop(key, None)
        self._no_store[key] = None
        while len(self._no_store) > MAX_NO_STORE_KEYS:
            del self._no_store[next(iter(self._no_store))]
            self._count("no_store_forgotten_total")

    def etag(self, key: str) -> Optional[str]:
        """The ETag the cached pages of ``key`` belong to."""
        with self._lock:
            self._expire_locked(key)
            return getattr(self._entries.get(key), "etag", None)

    def known_size(self, key: str) -> Optional[int]:
        """The object's total size, if a response has revealed it."""
        with self._lock:
            self._expire_locked(key)
            return getattr(self._entries.get(key), "size", None)

    # -- version control ------------------------------------------------------

    def observe(self, key: str, etag: Optional[str]) -> bool:
        """Validate ``etag`` against the cached version of ``key``.

        A changed ETag drops every cached page of the object (stale
        pages must never be served) and rebases the entry on the new
        version. Returns ``False`` exactly when that invalidation
        happened. ``etag=None`` (server sent none) never invalidates.
        """
        with self._lock:
            return self._observe_locked(key, etag)

    def _observe_locked(self, key: str, etag: Optional[str]) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = _Entry(etag)
            return True
        if etag is None or entry.etag is None:
            if entry.etag is None:
                entry.etag = etag
            return True
        if entry.etag == etag:
            return True
        self._drop_locked(key, entry)
        self._entries[key] = _Entry(etag)
        self.stats["invalidations"] += 1
        self._count("invalidations")
        self._mirror_gauges()
        return False

    def invalidate(self, key: str) -> None:
        """Drop every cached page (and the size/etag) of ``key``."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._drop_locked(key, entry)
                self.stats["invalidations"] += 1
                self._count("invalidations")
                self._mirror_gauges()

    def _drop_locked(self, key: str, entry: _Entry) -> None:
        for index, page in entry.pages.items():
            self._lru.pop((key, index), None)
            self._used -= len(page)
        entry.pages.clear()

    def _expire_locked(self, key: str) -> None:
        """Drop ``key`` entirely once its origin TTL has passed."""
        entry = self._entries.get(key)
        if entry is None or entry.expires_at is None:
            return
        if self.clock() < entry.expires_at:
            return
        self._drop_locked(key, entry)
        del self._entries[key]
        self.stats["ttl_expirations"] += 1
        self._count("ttl_expirations")
        self._mirror_gauges()

    # -- read side ------------------------------------------------------------

    def _probe_locked(
        self, key: str, offset: int, length: int, touch: bool = True
    ) -> Tuple[Optional[bytes], List[Span]]:
        """One TTL check and one walk of a read's pages: ``(data,
        missing)``.

        ``data`` is the read's bytes when every page is cached (clamped
        at EOF once the size is known: a POSIX short read), else
        ``None``; ``missing`` merges the uncached page-aligned spans.
        With ``touch`` the pages before the first gap move to the
        LRU's hot end.
        """
        entry = self._entries.get(key)
        if entry is not None and entry.expires_at is not None:
            self._expire_locked(key)
            entry = self._entries.get(key)
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        if length == 0:
            return (None if entry is None else b""), []
        size = pages = None
        if entry is not None:
            size, pages = entry.size, entry.pages
        end = offset + length
        if size is not None:
            if offset >= size:
                return b"", []
            end = min(end, size)
        page_size = self.page_size
        first = offset // page_size
        last = (end - 1) // page_size
        spans: List[Span] = []
        for index in range(first, last + 1):
            page_start = index * page_size
            want = page_size
            if size is not None:
                want = min(page_size, size - page_start)
            page = pages.get(index) if pages else None
            if page is not None and len(page) >= want:
                if touch and not spans:
                    self._lru.move_to_end((key, index))
            elif spans and spans[-1][0] + spans[-1][1] == page_start:
                spans[-1] = (spans[-1][0], spans[-1][1] + want)
            else:
                spans.append((page_start, want))
        if spans:
            return None, spans
        base = first * page_size
        if first == last:
            return pages[first][offset - base : end - base], spans
        blob = b"".join(map(pages.__getitem__, range(first, last + 1)))
        return blob[offset - base : end - base], spans

    def read(self, key: str, offset: int, length: int) -> Optional[bytes]:
        """The bytes of ``[offset, offset+length)`` if fully cached.

        Returns ``None`` on any gap. When the object's size is known
        the read clamps at EOF (POSIX short read), so a fully cached
        tail answers over-long reads too. No hit/miss accounting.
        """
        with self._lock:
            return self._probe_locked(key, offset, length)[0]

    def missing_spans(
        self, key: str, offset: int, length: int
    ) -> List[Span]:
        """Page-aligned spans of ``[offset, offset+length)`` not cached.

        Adjacent missing pages merge into one span (the caller packs
        the spans into a single coalesced multi-range request). Spans
        clamp to the object size when known; an empty list means the
        read is fully cached (or past EOF).
        """
        with self._lock:
            return self._probe_locked(key, offset, length, touch=False)[1]

    def lookup(
        self, key: str, offset: int, length: int
    ) -> Tuple[Optional[bytes], List[Span]]:
        """Accounting probe: ``(data, missing_spans)`` for one read.

        One lock, one TTL check and one walk of the pages classify the
        read — full hit (data, no spans), partial hit (no data, spans
        smaller than the read's aligned span), miss — and feed
        ``stats`` and ``cache.{hit,miss,partial_hit,origin_bytes_saved}``.
        """
        with self._lock:
            data, missing = self._probe_locked(key, offset, length)
            if data is not None:
                stat, series, saved = "hits", "cache.hit", length
            else:
                # Every missing span overlaps the read by at least a byte.
                end = offset + length
                saved = length
                for span_offset, span_length in missing:
                    saved -= min(end, span_offset + span_length) - max(
                        offset, span_offset
                    )
                stat, series = "partial_hits", "cache.partial_hit"
                if not saved:
                    stat, series = "misses", "cache.miss"
            self.stats[stat] += 1
            self.stats["origin_bytes_saved"] += saved
            if self.metrics is not None:
                resolved = self.metrics.resolved
                resolved[("counter", series)].inc()
                if saved:
                    resolved[_SAVED].inc(saved)
            return data, missing

    # -- write side -----------------------------------------------------------

    def insert(
        self,
        key: str,
        etag: Optional[str],
        offset: int,
        data,
        total: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> None:
        """Cache the pages fully covered by ``data`` at ``offset``.

        ``data`` may be ``bytes`` or a ``memoryview`` (only the stored
        page slices are materialised). ``total`` is the object's full
        size when the response revealed it (Content-Range total / full
        body) — required before the tail page can be stored. A
        mismatching ``etag`` first invalidates the stale pages
        (:meth:`observe`), then stores under the new version.

        ``ttl`` is the origin's freshness verdict for this response:
        ``None`` = no directive (cache, no expiry change); ``<= 0`` =
        never store (``no-store``/``max-age=0``); ``> 0`` = store and
        expire that many clock-seconds from now.
        """
        with self._lock:
            if self.budget_bytes <= 0:
                return
            if ttl is not None and ttl <= 0:
                # The origin forbids caching this object: drop what we
                # hold and remember the verdict for the read path.
                self._suppress_locked(key)
                return
            self._no_store.pop(key, None)
            self._expire_locked(key)
            self._observe_locked(key, etag)
            entry = self._entries[key]
            if total is not None:
                if entry.size is not None and entry.size != int(total):
                    # Same-etag size change: treat as a new version.
                    self._drop_locked(key, entry)
                entry.size = int(total)
            n = len(data)
            if n == 0:
                return
            end = offset + n
            first = -(-offset // self.page_size)  # first aligned page
            page_size = self.page_size
            for index in range(first, (end // page_size) + 1):
                page_start = index * page_size
                want = page_size
                if entry.size is not None:
                    want = min(page_size, entry.size - page_start)
                if want <= 0 or page_start + want > end:
                    break
                if index in entry.pages:
                    self._lru.move_to_end((key, index))
                    continue
                if want > self.budget_bytes:
                    continue
                piece = bytes(data[page_start - offset : page_start - offset + want])
                entry.pages[index] = piece
                self._lru[(key, index)] = want
                self._used += want
                self.stats["insertions"] += 1
            if ttl is not None:
                entry.expires_at = self.clock() + ttl
            self._evict_locked()
            self._mirror_gauges()

    def _evict_locked(self) -> None:
        evicted = 0
        while self._used > self.budget_bytes and self._lru:
            (key, index), nbytes = self._lru.popitem(last=False)
            entry = self._entries.get(key)
            if entry is not None:
                entry.pages.pop(index, None)
                if not entry.pages:
                    del self._entries[key]  # its last page: forget it
            self._used -= nbytes
            self.stats["evictions"] += 1
            self.stats["evicted_bytes"] += nbytes
            evicted += nbytes
        self._count("evicted_bytes", evicted)

    def __repr__(self) -> str:
        return (
            f"<PageCache {self._used}/{self.budget_bytes}B "
            f"pages={len(self._lru)} objects={len(self._entries)}>"
        )
