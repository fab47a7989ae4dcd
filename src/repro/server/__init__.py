"""HTTP/WebDAV storage server (DPM-like) and DynaFed-like federator."""

from repro._lazy import exports

_EXPORTS = {
    "HttpServer": ".app",
    "handle_connection": ".app",
    "CollectorApp": ".collectorapp",
    "Envelope": ".envelope",
    "FaultAction": ".faults",
    "FaultPolicy": ".faults",
    "FederationApp": ".federation",
    "FlatObjectApp": ".flatobject",
    "ReplicaEntry": ".federation",
    "ServedResponse": ".envelope",
    "ServerConfig": ".envelope",
    "StorageApp": ".handlers",
    "BytesContent": ".objectstore",
    "Content": ".objectstore",
    "ObjectStore": ".objectstore",
    "StoreError": ".objectstore",
    "StoredObject": ".objectstore",
    "SyntheticContent": ".objectstore",
    "ZeroContent": ".objectstore",
    "real_server": ".realserver",
    "ProxyApp": ".proxy",
    "S3Credentials": ".s3",
    "sign_request": ".s3",
    "DavResource": ".webdav",
    "build_multistatus": ".webdav",
    "parse_multistatus": ".webdav",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
