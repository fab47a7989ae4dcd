"""XRootD baseline: the HPC-specific protocol the paper compares with.

Implements a simplified-but-structurally-faithful XRootD: binary
framing with stream-id multiplexing (:mod:`repro.xrootd.protocol`), a
data server sharing the HTTP server's object store and service model
(:mod:`repro.xrootd.server`), an async client
(:mod:`repro.xrootd.client`), and the sliding-window read-ahead that
gives XRootD its WAN edge (:mod:`repro.xrootd.readahead`).
"""

from repro._lazy import exports

_EXPORTS = {
    "XrdClient": ".client",
    "XrdFile": ".client",
    "ReadAheadWindow": ".readahead",
    "XrdServer": ".server",
    "XrdServerConfig": ".server",
    "serve_xrootd": ".server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
