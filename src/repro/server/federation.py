"""DynaFed-like storage federation endpoint.

The paper (Section 2.4) pairs davix with the Dynamic Federations system
(DynaFed), which aggregates many storage endpoints under one namespace
and hands clients either a redirect to a live replica or a Metalink
listing all of them. This module implements that front end: it owns no
data, only a replica catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.http import Headers, Request, Response
from repro.metalink import (
    METALINK_MEDIA_TYPE,
    Metalink,
    MetalinkFile,
    MetalinkUrl,
    write_metalink,
)
from repro.server.envelope import Envelope, ServerConfig

__all__ = ["ReplicaEntry", "FederationApp"]


@dataclass
class ReplicaEntry:
    """Catalogue record for one federated resource."""

    urls: List[str]
    size: Optional[int] = None
    adler32: Optional[str] = None


class FederationApp(Envelope):
    """A data-less federator: redirects and Metalink generation."""

    def __init__(self, config=None):
        super().__init__(
            config or ServerConfig(server_name="repro-dynafed/1.0")
        )
        self.catalogue: Dict[str, ReplicaEntry] = {}
        self._round_robin: Dict[str, int] = {}

    def register(
        self,
        path: str,
        urls: List[str],
        size: Optional[int] = None,
        adler32: Optional[str] = None,
    ) -> None:
        """Publish ``path`` with its replica list."""
        if not urls:
            raise ValueError("a federated entry needs at least one URL")
        self.catalogue[path] = ReplicaEntry(
            urls=list(urls), size=size, adler32=adler32
        )

    def route(self, request: Request):
        if request.method not in ("GET", "HEAD"):
            return Response(405, Headers([("Allow", "GET, HEAD")]))
        entry = self.catalogue.get(request.path)
        if entry is None:
            return Response(404)
        if self._wants_metalink(request):
            return self._metalink(request.path, entry)
        index = self._round_robin.get(request.path, 0)
        self._round_robin[request.path] = (index + 1) % len(entry.urls)
        target = entry.urls[index % len(entry.urls)]
        return Response(302, Headers([("Location", target)]))

    @staticmethod
    def _wants_metalink(request: Request) -> bool:
        if "metalink" in request.query.lower():
            return True
        return METALINK_MEDIA_TYPE in request.headers.get("Accept", "")

    @staticmethod
    def _metalink(path: str, entry: ReplicaEntry) -> Response:
        meta = MetalinkFile(
            name=path.rsplit("/", 1)[-1] or "/",
            size=entry.size,
            urls=[
                MetalinkUrl(url=url, priority=i + 1)
                for i, url in enumerate(entry.urls)
            ],
        )
        if entry.adler32:
            meta.hashes["adler32"] = entry.adler32
        body = write_metalink(Metalink(files=[meta]))
        return Response(
            200, Headers([("Content-Type", METALINK_MEDIA_TYPE)]), body
        )
