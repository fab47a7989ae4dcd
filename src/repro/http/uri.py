"""Minimal URL handling for HTTP resources.

Wraps stdlib parsing in a small value type with the operations the
client needs: default ports, origin comparison (for connection-pool
keying), percent-safe path joining, and redirect resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union
from urllib.parse import quote, unquote, urljoin, urlsplit

from repro.errors import HttpProtocolError

__all__ = ["Url", "DEFAULT_PORTS"]

DEFAULT_PORTS = {"http": 80, "https": 443, "dav": 80, "davs": 443}


@dataclass(frozen=True)
class Url:
    """A parsed absolute URL.

    ``dav``/``davs`` schemes (used by davix tooling) alias http/https.
    """

    scheme: str
    host: str
    port: int
    path: str
    query: str = ""

    @classmethod
    def parse(cls, raw: Union[str, "Url"]) -> "Url":
        """``raw`` as a :class:`Url`; a ``Url`` is returned unchanged."""
        if isinstance(raw, Url):
            return raw
        try:
            parts = urlsplit(raw)
            port = parts.port
        except ValueError as exc:  # unclosed IPv6 bracket, non-numeric port
            raise HttpProtocolError(f"malformed URL {raw!r}: {exc}") from exc
        scheme = (parts.scheme or "http").lower()
        if scheme not in DEFAULT_PORTS:
            raise HttpProtocolError(f"unsupported scheme {scheme!r} in {raw!r}")
        if not parts.hostname:
            raise HttpProtocolError(f"URL without host: {raw!r}")
        port = port or DEFAULT_PORTS[scheme]
        path = parts.path or "/"
        return cls(
            scheme=scheme,
            host=parts.hostname,
            port=port,
            path=path,
            query=parts.query,
        )

    # -- derived -------------------------------------------------------------

    @property
    def origin(self) -> tuple:
        """(scheme, host, port) — the connection-pool key."""
        return (self.scheme, self.host, self.port)

    @property
    def netloc(self) -> str:
        if self.port == DEFAULT_PORTS[self.scheme]:
            return self.host
        return f"{self.host}:{self.port}"

    @property
    def target(self) -> str:
        """The request-target to place on the request line."""
        path = self.path or "/"
        return f"{path}?{self.query}" if self.query else path

    @property
    def decoded_path(self) -> str:
        """The path with percent-encoding removed."""
        return unquote(self.path)

    def resolve(self, location: str) -> "Url":
        """Resolve a (possibly relative) redirect target against self."""
        try:
            return Url.parse(urljoin(str(self), location))
        except ValueError as exc:  # urljoin splits both URLs itself
            raise HttpProtocolError(
                f"malformed redirect target {location!r}: {exc}"
            ) from exc

    def with_path(self, path: str, encode: bool = True) -> "Url":
        """Return a copy pointing at ``path`` (query dropped)."""
        if encode:
            path = quote(path, safe="/")
        if not path.startswith("/"):
            path = "/" + path
        return replace(self, path=path, query="")

    def sibling(self, name: str) -> "Url":
        """URL of ``name`` in the same collection as this resource."""
        base = self.path.rsplit("/", 1)[0]
        return self.with_path(f"{base}/{name}", encode=True)

    def __str__(self) -> str:
        url = f"{self.scheme}://{self.netloc}{self.path or '/'}"
        return f"{url}?{self.query}" if self.query else url
