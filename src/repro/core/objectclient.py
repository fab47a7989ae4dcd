"""ObjectStoreClient: davix over a flat-object (S3-like) endpoint.

The paper's portability argument, made concrete: the whole davix read
stack — ranged GETs, vectored multi-range reads, the transfer engine,
the page cache, retries — needs nothing WebDAV from the server, so it
runs unmodified against a bare object store
(:class:`~repro.server.flatobject.FlatObjectApp`). This adapter only
changes the *addressing model*: keys instead of collection paths, a
JSON listing endpoint instead of PROPFIND, and no rename/copy/mkdir
surface at all.

Every method here is an effect sub-op (run it on a runtime), mirroring
:class:`~repro.core.file.DavFile`; :meth:`ObjectStoreClient.fetcher`
bridges straight into the columnar readers, which is how a v2 ntuple
is scanned off an object store.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence, Tuple
from urllib.parse import quote

from repro.core.context import Context, RequestParams
from repro.core.file import DavFile
from repro.errors import HttpParseError
from repro.http import Url

__all__ = ["ObjectStoreClient"]


class ObjectStoreClient:
    """Key-addressed client over one flat-object endpoint.

    ``base_url`` names the endpoint (and optional key prefix); every
    method takes a key relative to it. Keys may contain slashes — they
    are opaque to the store.
    """

    def __init__(
        self,
        context: Context,
        base_url,
        params: Optional[RequestParams] = None,
    ):
        self.context = context
        self.base_url = Url.parse(base_url)
        self.params = params or context.params

    # -- addressing ---------------------------------------------------------

    def url_for(self, key: str) -> Url:
        """The absolute URL of ``key`` under this endpoint."""
        prefix = self.base_url.path.rstrip("/")
        return self.base_url.with_path(f"{prefix}/{key.lstrip('/')}")

    def file(
        self, key: str, params: Optional[RequestParams] = None
    ) -> DavFile:
        """A :class:`DavFile` bound to ``key`` (full read surface)."""
        return DavFile(self.context, self.url_for(key), params or self.params)

    def fetcher(
        self, key: str, params: Optional[RequestParams] = None
    ):
        """A rootio fetcher for ``key`` — plug into
        :class:`~repro.rootio.ntuple.NTupleReader` or
        :class:`~repro.rootio.treefile.TreeFileReader` directly."""
        # Imported lazily: repro.rootio imports repro.core, so the
        # module-level direction must stay core <- rootio.
        from repro.rootio.fetchers import DavixFetcher

        return DavixFetcher(
            self.context, self.url_for(key), params or self.params
        )

    # -- object operations (effect sub-ops) ---------------------------------

    def get_object(self, key: str):
        """Effect sub-op: download the full object."""
        data = yield from self.file(key).read_all()
        return data

    def put_object(
        self,
        key: str,
        data: bytes,
        content_type: str = "binary/octet-stream",
    ):
        """Effect sub-op: upload (create or replace) -> HTTP status."""
        status = yield from self.file(key).write_all(data, content_type)
        return status

    def delete_object(self, key: str):
        """Effect sub-op: delete the object."""
        yield from self.file(key).delete()

    def head(self, key: str):
        """Effect sub-op: size/etag metadata via HEAD -> FileStat."""
        stat = yield from self.file(key).stat()
        return stat

    def read_range(self, key: str, offset: int, length: int):
        """Effect sub-op: one ranged read of the object."""
        data = yield from self.file(key).pread(offset, length)
        return data

    def read_vec(self, key: str, reads: Sequence[Tuple[int, int]]):
        """Effect sub-op: vectored read (multi-range underneath)."""
        file = self.file(key)
        results = yield from file.pread_vec(reads)
        yield from file.drain()
        return results

    def list_keys(self, prefix: str = ""):
        """Effect sub-op: enumerate keys via the JSON listing endpoint."""
        query = "list=1"
        if prefix:
            query += f"&prefix={quote(prefix, safe='/')}"
        url = self.base_url.with_path("/")
        url = Url(
            scheme=url.scheme,
            host=url.host,
            port=url.port,
            path=url.path,
            query=query,
        )
        body = yield from DavFile(self.context, url, self.params).read_all()
        try:
            keys = json.loads(body.decode("utf-8"))["keys"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise HttpParseError(f"malformed listing response: {exc}")
        return list(keys)

    def exists(self, key: str):
        """Effect sub-op: does the key exist?"""
        found = yield from self.file(key).exists()
        return found
