"""The one receive buffer under every decoder.

:class:`ByteQueue` keeps what it is given as the buffers it arrived in
and consumes them from the front: nothing is staged, a payload that
lies inside one buffer is one slice of it and a payload across several
is one join. The HTTP parser, the multipart decoder, the simulated TCP
send queue and XRootD's binary deframer (one :class:`Deframer`) all
sit on it, so the per-byte cost of receiving is the same code under
both protocols the benchmarks compare.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, List, Optional, Tuple

__all__ = ["ByteQueue", "Deframer"]


class ByteQueue:
    """Buffers as they arrived, plus one consumed-prefix offset.

    ``len()`` is the number of unconsumed bytes. Everything handed out
    is ``bytes`` (or, from :meth:`cut`, a view of ``bytes`` the queue
    owns), so no result aliases memory the caller can still change.
    """

    __slots__ = ("_buffers", "_offset", "_size")

    def __init__(self):
        self._buffers: Deque[bytes] = deque()
        self._offset = 0  # consumed prefix of self._buffers[0]
        self._size = 0  # unconsumed bytes over all of them

    def __len__(self) -> int:
        return self._size

    def append(self, data) -> None:
        """Queue one buffer; a ``bytes`` is kept as the object it is,
        anything else is copied, once."""
        if type(data) is not bytes:
            data = bytes(data)
        if data:
            self._buffers.append(data)
            self._size += len(data)

    def clear(self) -> None:
        self._buffers.clear()
        self._offset = 0
        self._size = 0

    def front(self) -> Tuple[bytes, int]:
        """The head buffer and its consumed offset (``(b"", 0)`` when
        empty), to scan in place and :meth:`cut` what was used."""
        if not self._size:
            return b"", 0
        return self._buffers[0], self._offset

    def cut(self, count: int) -> List[bytes]:
        """Consume ``count`` (<= ``len()``) bytes as the buffers they
        lie in: one used up whole is handed over as it is, a part of
        one as a view. Nothing is copied."""
        if count > self._size:
            raise ValueError(f"cut of {count} bytes from {self._size}")
        buffers = self._buffers
        start = self._offset
        self._size -= count
        pieces = []
        while count:
            head = buffers[0]
            rest = len(head) - start
            if rest > count:
                pieces.append(memoryview(head)[start : start + count])
                start += count
                break
            pieces.append(memoryview(head)[start:] if start else head)
            buffers.popleft()
            start = 0
            count -= rest
        self._offset = start
        return pieces

    def read(self, limit: int) -> bytes:
        """Consume up to ``limit`` bytes without crossing a buffer
        boundary, so never a join: a plain slice of the head buffer,
        or the buffer itself when all of it is asked for. ``b""`` when
        the queue is empty."""
        if not self._size:
            return b""
        head = self._buffers[0]
        start = self._offset
        end = start + limit
        if end < len(head):
            self._offset = end
            self._size -= limit
            return head[start:end]
        self._buffers.popleft()
        self._offset = 0
        self._size -= len(head) - start
        return head[start:] if start else head

    def take(self, count: int) -> bytes:
        """Consume ``count`` (<= ``len()``) bytes as one ``bytes``: a
        :meth:`read`, so a plain slice, when they lie inside the head
        buffer (walking the buffers for that case too halves the
        small-message rate), else one join of a :meth:`cut`."""
        if self._size and count <= len(self._buffers[0]) - self._offset:
            return self.read(count)
        return b"".join(self.cut(count))

    def unpack(self, layout: struct.Struct) -> Optional[tuple]:
        """Consume and unpack one ``layout``; ``None`` (and nothing
        consumed) while fewer than ``layout.size`` bytes are queued."""
        size = layout.size
        if self._size < size:
            return None
        start = self._offset
        if len(self._buffers[0]) - start > size:
            self._offset = start + size
            self._size -= size
            return layout.unpack_from(self._buffers[0], start)
        # It uses the head buffer up, or straddles buffers.
        return layout.unpack(self.take(size))

    def find(self, token: bytes) -> int:
        """Offset of ``token`` from the front of the queue, or -1.

        Only when the head buffer does not hold it are the queued
        buffers joined into one (they stay joined, so a token that
        arrives in many small buffers is not re-joined from scratch).
        """
        if not self._size:
            return -1
        at = self._buffers[0].find(token, self._offset)
        if at >= 0:
            return at - self._offset
        if len(self._buffers) == 1:
            return -1
        joined = b"".join(self.cut(self._size))
        self.append(joined)
        return joined.find(token)


class Deframer:
    """Incremental reader of ``header + payload`` frames.

    ``header`` is the fixed-size layout whose *last* field is the
    payload length; a length above ``max_payload`` raises ``error``,
    on that call and on every later one. Frames come out as the
    header's other fields followed by the payload.
    """

    def __init__(self, header: struct.Struct, max_payload: int, error):
        self._queue = ByteQueue()
        self._layout = header
        self._max_payload = max_payload
        self._error = error
        self._header = None  # of the frame whose payload is awaited

    def feed(self, data: bytes) -> None:
        self._queue.append(data)

    def _next(self, consume) -> Optional[tuple]:
        """The next frame once all of it is queued, its payload taken
        off the queue by ``consume(length)``."""
        header = self._header
        if header is None:
            header = self._header = self._queue.unpack(self._layout)
            if header is None:
                return None
        length = header[-1]
        if length > self._max_payload:
            raise self._error(
                f"frame payload of {length} B exceeds {self._max_payload}"
            )
        if len(self._queue) < length:
            return None
        self._header = None
        return header[:-1] + (consume(length),)

    def next_frame(self) -> Optional[tuple]:
        """Pop ``(*fields, payload)``, or ``None`` until a frame is
        complete; the payload is one slice or one join."""
        return self._next(self._queue.take)

    def next_pieces(self) -> Optional[tuple]:
        """:meth:`next_frame` with the payload left as the list of
        buffers it arrived in (whole buffers and views)."""
        return self._next(self._queue.cut)
