"""Flow-level network simulation: links, TCP model, topology, profiles."""

from repro._lazy import exports

_EXPORTS = {
    "LinkSpec": ".link",
    "Wire": ".link",
    "Host": ".network",
    "Listener": ".network",
    "Network": ".network",
    "ConnectionSide": ".tcp",
    "TcpConnection": ".tcp",
    "TcpOptions": ".options",
    "NetProfile": ".profiles",
    "LAN": ".profiles",
    "GEANT": ".profiles",
    "WAN": ".profiles",
    "HUNDRED_GIG": ".profiles",
    "PROFILES": ".profiles",
    "build_network": ".profiles",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
