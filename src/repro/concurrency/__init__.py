"""Effect-based concurrency: write protocol code once, run it on the
simulated network or on real sockets."""

from repro._lazy import exports

_EXPORTS = {
    "Abort": ".effects",
    "Accept": ".effects",
    "Await": ".effects",
    "MakePromise": ".effects",
    "EffectLock": ".promise",
    "SimPromise": ".promise",
    "ThreadPromise": ".promise",
    "Close": ".effects",
    "Connect": ".effects",
    "Effect": ".effects",
    "Join": ".effects",
    "Now": ".effects",
    "Recv": ".effects",
    "Send": ".effects",
    "Sleep": ".effects",
    "Spawn": ".effects",
    "AcceptLoop": ".structures",
    "Outcome": ".structures",
    "TaskWindow": ".structures",
    "bounded_gather": ".structures",
    "Runtime": ".runtime",
    "TaskHandle": ".runtime",
    "SimRuntime": ".sim_runtime",
    "ThreadRuntime": ".thread_runtime",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
