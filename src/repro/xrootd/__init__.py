"""XRootD baseline: the HPC-specific protocol the paper compares with.

Implements a simplified-but-structurally-faithful XRootD: binary
framing with stream-id multiplexing (:mod:`repro.xrootd.protocol`), a
data server sharing the HTTP server's object store and its one
service-time model (:mod:`repro.xrootd.server`) and an async client
(:mod:`repro.xrootd.client`). The sliding-window read-ahead the paper
credits for XRootD's WAN edge is not here: it is the one
:class:`~repro.core.engine.TransferEngine` both wires share, which
:class:`~repro.rootio.fetchers.XrootdFetcher` drives with one
``kXR_readv`` per speculative batch.
"""

from repro._lazy import exports

_EXPORTS = {
    "XrdClient": ".client",
    "XrdFile": ".client",
    "XrdServer": ".server",
    "serve_xrootd": ".server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
