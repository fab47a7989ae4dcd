"""In-memory object store backing the storage servers.

Two content representations share one interface:
:class:`BytesContent` holds real bytes, and :class:`ZeroContent` stands
in for a large object whose byte values do not matter.

:func:`service_time` is the one cost model of a store read: the HTTP
and the XRootD server both charge it, so a protocol comparison over one
store differs only in its wire.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "Content",
    "BytesContent",
    "ZeroContent",
    "StoredObject",
    "ObjectStore",
    "StoreError",
    "SERVICE_OVERHEAD",
    "DISK_BANDWIDTH",
    "service_time",
]


#: Per-request fixed service overhead in seconds (CPU + queueing).
SERVICE_OVERHEAD = 0.0005
#: Storage backend streaming rate in bytes/second (disk array).
DISK_BANDWIDTH = 400e6


def service_time(
    nbytes: int,
    overhead: float = SERVICE_OVERHEAD,
    bandwidth: float = DISK_BANDWIDTH,
    after: float = 0.0,
) -> float:
    """Seconds a server spends on a request that serves ``nbytes``,
    counted on from ``after`` seconds it has spent already."""
    return after + overhead + nbytes / bandwidth


class StoreError(ReproError):
    """Object-store level failure (missing object, conflict, ...)."""


class Content:
    """Abstract object content: sized, randomly addressable bytes."""

    size: int

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def read_all(self) -> bytes:
        return self.read(0, self.size)

    def view(self, offset: int, length: int):
        """:meth:`read`, or a view where the content is held as one
        buffer: to send, not to keep or change."""
        return self.read(offset, length)

    def adler32(self) -> str:
        """WLCG-style adler32 checksum, zero-padded hex."""
        digest = 1
        for chunk in self.iter_chunks():
            digest = zlib.adler32(chunk, digest)
        return f"{digest & 0xFFFFFFFF:08x}"

    def md5(self) -> str:
        digest = hashlib.md5()
        for chunk in self.iter_chunks():
            digest.update(chunk)
        return digest.hexdigest()

    def iter_chunks(self, chunk_size: int = 1 << 20) -> Iterator[bytes]:
        offset = 0
        while offset < self.size:
            take = min(chunk_size, self.size - offset)
            yield self.read(offset, take)
            offset += take


class BytesContent(Content):
    """Content held as the ``bytes`` or ``bytearray`` it is given.

    A request body (one receive's ``bytes``, or the ``bytearray`` its
    pieces were copied into) becomes the stored object without a copy;
    any other bytes-like is copied into ``bytes``. Reads are ``bytes``
    either way; a :meth:`view` is a slice of the held buffer, no copy.
    """

    def __init__(self, data: bytes):
        self._data = data if type(data) is bytearray else bytes(data)
        self.size = len(self._data)

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        data = self._data
        if type(data) is bytes:
            return data[offset : offset + length]
        return bytes(memoryview(data)[offset : offset + length])

    def view(self, offset: int, length: int) -> memoryview:
        return memoryview(self._data)[offset : offset + length]


class ZeroContent(Content):
    """All-zero content of arbitrary size.

    The cheapest possible payload source: used by the large-scale
    benchmarks where timing (sizes, offsets, request counts) matters
    but byte values do not.
    """

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be >= 0")
        self.size = size

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        end = min(offset + length, self.size)
        return bytes(max(0, end - offset))


class StoredObject:
    """An object plus its HTTP-visible metadata."""

    _etag_counter = 0

    def __init__(
        self,
        path: str,
        content: Content,
        content_type: str = "application/octet-stream",
        mtime: float = 0.0,
        version: Optional[int] = None,
    ):
        self.path = path
        self.content = content
        self.content_type = content_type
        self.mtime = mtime
        if version is None:
            # Standalone construction: fall back to a process-global
            # counter. Stores pass their own version so two identically
            # seeded runs mint identical ETags (chaos-run determinism).
            StoredObject._etag_counter += 1
            version = StoredObject._etag_counter
        self.etag = f'"obj-{version}-{content.size}"'
        self._checksums: Dict[str, str] = {}

    @property
    def size(self) -> int:
        return self.content.size

    def checksum(self, algo: str = "adler32") -> str:
        """Checksum of the full content, computed once and cached."""
        algo = algo.lower()
        if algo not in self._checksums:
            if algo == "adler32":
                self._checksums[algo] = self.content.adler32()
            elif algo == "md5":
                self._checksums[algo] = self.content.md5()
            else:
                raise StoreError(f"unsupported checksum algo {algo!r}")
        return self._checksums[algo]


def _normalise(path: str) -> str:
    if not path.startswith("/"):
        path = "/" + path
    while "//" in path:
        path = path.replace("//", "/")
    if len(path) > 1 and path.endswith("/"):
        path = path[:-1]
    return path


class ObjectStore:
    """Hierarchical object store; :meth:`put` adopts its buffer.

    Parent collections are implicit. An adopted ``bytes`` or
    ``bytearray`` becomes the object's content without a copy: the
    caller hands it over and must not change it after.
    """

    def __init__(self, clock=None):
        self._objects: Dict[str, StoredObject] = {}
        self._collections = {"/"}
        #: Callable returning "now" for mtimes (injected so simulated
        #: servers stamp simulated time).
        self.clock = clock or (lambda: 0.0)
        self.bytes_read = 0
        self.bytes_written = 0
        self._version = 0

    # -- write path -------------------------------------------------------------

    def put(
        self,
        path: str,
        content,
        content_type: str = "application/octet-stream",
    ) -> StoredObject:
        """Create or replace the object at ``path``.

        ``content`` may be raw bytes or any :class:`Content`; ``bytes``
        or a ``bytearray`` is adopted, not copied (:class:`BytesContent`).
        """
        path = _normalise(path)
        if path in self._collections and path != "/":
            raise StoreError(f"{path} is a collection")
        if not isinstance(content, Content):
            content = BytesContent(content)
        self._version += 1
        obj = StoredObject(
            path, content, content_type, mtime=self.clock(),
            version=self._version,
        )
        self._ensure_parents(path)
        self._objects[path] = obj
        self.bytes_written += content.size
        return obj

    def mkcol(self, path: str) -> None:
        """Create a collection (error if it exists or parent missing)."""
        path = _normalise(path)
        if path in self._collections or path in self._objects:
            raise StoreError(f"{path} already exists")
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self._collections:
            raise StoreError(f"parent collection {parent} missing")
        self._collections.add(path)

    def delete(self, path: str) -> None:
        """Delete an object or an *empty* collection."""
        path = _normalise(path)
        if path in self._objects:
            del self._objects[path]
            return
        if path in self._collections:
            if path == "/":
                raise StoreError("cannot delete the root collection")
            if list(self.list_collection(path)):
                raise StoreError(f"collection {path} not empty")
            self._collections.remove(path)
            return
        raise StoreError(f"no such object: {path}")

    def ensure_collection(self, path: str) -> None:
        """Create ``path`` (and any missing parents) as a collection."""
        path = _normalise(path)
        if path in self._objects:
            raise StoreError(f"{path} is an object")
        current = ""
        for part in path.split("/")[1:]:
            if part:
                current += "/" + part
                self._collections.add(current)

    def remove_tree(self, path: str) -> None:
        """Delete an object, or a collection and everything under it."""
        path = _normalise(path)
        if path in self._objects:
            del self._objects[path]
            return
        if path not in self._collections:
            raise StoreError(f"no such object: {path}")
        if path == "/":
            raise StoreError("cannot delete the root collection")
        prefix = path + "/"
        for candidate in [
            p for p in self._objects if p.startswith(prefix)
        ]:
            del self._objects[candidate]
        for candidate in [
            c for c in self._collections if c.startswith(prefix)
        ]:
            self._collections.discard(candidate)
        self._collections.remove(path)

    def _ensure_parents(self, path: str) -> None:
        parts = path.split("/")[1:-1]
        current = ""
        for part in parts:
            current += "/" + part
            self._collections.add(current)

    # -- read path ----------------------------------------------------------------

    def get(self, path: str) -> StoredObject:
        path = _normalise(path)
        try:
            return self._objects[path]
        except KeyError:
            raise StoreError(f"no such object: {path}") from None

    def read(self, path: str, offset: int = 0, length: int = -1) -> bytes:
        """Read a byte range of an object (whole object if length < 0)."""
        obj = self.get(path)
        if length < 0:
            length = obj.size - offset
        data = obj.content.read(offset, length)
        self.bytes_read += len(data)
        return data

    def exists(self, path: str) -> bool:
        path = _normalise(path)
        return path in self._objects or path in self._collections

    def is_collection(self, path: str) -> bool:
        return _normalise(path) in self._collections

    def stat(self, path: str) -> Tuple[int, float, bool]:
        """(size, mtime, is_collection) for ``path``."""
        path = _normalise(path)
        if path in self._objects:
            obj = self._objects[path]
            return (obj.size, obj.mtime, False)
        if path in self._collections:
            return (0, 0.0, True)
        raise StoreError(f"no such object: {path}")

    def list_collection(self, path: str) -> List[str]:
        """Immediate member paths of a collection, sorted."""
        path = _normalise(path)
        if path not in self._collections:
            raise StoreError(f"no such collection: {path}")
        prefix = "/" if path == "/" else path + "/"
        members = set()
        for candidate in list(self._objects) + list(self._collections):
            if candidate != path and candidate.startswith(prefix):
                rest = candidate[len(prefix) :]
                members.add(prefix + rest.split("/", 1)[0])
        return sorted(members)

    def __len__(self) -> int:
        return len(self._objects)
