"""HTTP/WebDAV storage server (DPM-like) and DynaFed-like federator."""

from repro.server.app import HttpServer, handle_connection, serve_forever
from repro.server.collectorapp import CollectorApp
from repro.server.envelope import Envelope, ServedResponse, ServerConfig
from repro.server.faults import FaultAction, FaultPolicy
from repro.server.accesslog import AccessEntry, AccessLog
from repro.server.federation import FederationApp, ReplicaEntry
from repro.server.flatobject import FlatObjectApp
from repro.server.handlers import StorageApp
from repro.server.objectstore import (
    BytesContent,
    Content,
    ObjectStore,
    StoreError,
    StoredObject,
    SyntheticContent,
    ZeroContent,
)
from repro.server.proxy import ProxyApp
from repro.server.realserver import real_server
from repro.server.s3 import S3Credentials, sign_request
from repro.server.webdav import DavResource, build_multistatus, parse_multistatus

__all__ = [
    "HttpServer",
    "handle_connection",
    "serve_forever",
    "CollectorApp",
    "Envelope",
    "FaultAction",
    "FaultPolicy",
    "FederationApp",
    "FlatObjectApp",
    "AccessEntry",
    "AccessLog",
    "ReplicaEntry",
    "ServedResponse",
    "ServerConfig",
    "StorageApp",
    "BytesContent",
    "Content",
    "ObjectStore",
    "StoreError",
    "StoredObject",
    "SyntheticContent",
    "ZeroContent",
    "real_server",
    "ProxyApp",
    "S3Credentials",
    "sign_request",
    "DavResource",
    "build_multistatus",
    "parse_multistatus",
]
