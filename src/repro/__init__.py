"""repro — a Python reproduction of *Efficient HTTP based I/O on very
large datasets for high performance computing with the libdavix
library* (Devresse & Furano, CERN, 2014).

Layered architecture (bottom up):

* :mod:`repro.sim` — discrete-event kernel;
* :mod:`repro.net` — flow-level TCP model and network profiles;
* :mod:`repro.concurrency` — effect runtimes (simulator / sockets);
* :mod:`repro.http` — sans-io HTTP/1.1 stack;
* :mod:`repro.server` — DPM-like storage server and caching proxy;
* :mod:`repro.metalink` — RFC 5854 Metalink;
* :mod:`repro.core` — **davix**: pool, vectored I/O, failover;
* :mod:`repro.xrootd` — the XRootD baseline protocol;
* :mod:`repro.rootio` — ROOT-like tree files and TTreeCache;
* :mod:`repro.workloads` — the paper's HEP analysis job + HammerCloud.
"""

from repro._lazy import exports

__version__ = "1.0.0"

_EXPORTS = {
    "Context": ".core",
    "DavFile": ".core",
    "DavixClient": ".core",
    "DavPosix": ".core",
    "RequestParams": ".core",
    "TransferConfig": ".core",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = exports(__name__, _EXPORTS)
