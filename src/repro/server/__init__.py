"""HTTP/WebDAV storage server (DPM-like) and caching proxy."""

from repro._lazy import exports

_EXPORTS = {
    "HttpServer": ".app",
    "handle_connection": ".app",
    "Envelope": ".envelope",
    "FaultAction": ".faults",
    "FaultPolicy": ".faults",
    "ServedResponse": ".envelope",
    "ServerConfig": ".envelope",
    "StorageApp": ".handlers",
    "BytesContent": ".objectstore",
    "Content": ".objectstore",
    "ObjectStore": ".objectstore",
    "StoreError": ".objectstore",
    "StoredObject": ".objectstore",
    "ZeroContent": ".objectstore",
    "real_server": ".realserver",
    "ProxyApp": ".proxy",
    "DavResource": ".webdav",
    "build_multistatus": ".webdav",
    "parse_multistatus": ".webdav",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
