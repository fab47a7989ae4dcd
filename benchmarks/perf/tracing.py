"""Spans and per-layer self time for the traced run.

The benchmark measures the layers of ``src/repro`` from outside: no
span lives in the program yet. Around each timed unit the runner turns
on one ``cProfile.Profile`` per thread and this module folds what the
profiles saw into the layers of :mod:`layers`:

* a function's self time (``inlinetime``) goes to the layer of its
  source file;
* a builtin or a library function (``bytes.join``, ``zlib.decompress``,
  ``heappush``, ``dataclasses.replace`` ...) has no layer of its own:
  its self time goes to whoever called it, through the profile's caller
  edges, until a function of the repo is reached;
* calls that only wait -- ``socket.recv/sendall/accept/connect``, lock
  waits, ``time.sleep`` -- are split out as ``os.socket.recv_s`` and
  ``os.socket.send_s``.

Self time excludes callees by construction, so the layers of one thread
sum to the time the profile was on.

cProfile charges its own cost per call to the caller, so call-heavy
layers read larger than they are; shares are comparable before and
after a change because both sides carry the same bias, and the
``--layers`` rates are the cross-check without it.
"""

from __future__ import annotations

import cProfile
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from layers import layer_of

#: Builtins that wait rather than compute, and the bucket they land in:
#: ``recv`` is waiting for the peer (or another thread), ``send`` is
#: handing bytes to the kernel.
_WAITS = {
    "<method 'recv' of '_socket.socket' objects>": "recv",
    "<method 'recv_into' of '_socket.socket' objects>": "recv",
    "<method 'accept' of '_socket.socket' objects>": "recv",
    "<method '_accept' of '_socket.socket' objects>": "recv",
    "<method 'acquire' of '_thread.lock' objects>": "recv",
    "<method 'acquire' of '_thread.RLock' objects>": "recv",
    "<built-in method time.sleep>": "recv",
    "<built-in method select.select>": "recv",
    "<method 'poll' of 'select.poll' objects>": "recv",
    "<method 'send' of '_socket.socket' objects>": "send",
    "<method 'sendall' of '_socket.socket' objects>": "send",
    "<method 'connect' of '_socket.socket' objects>": "send",
}

#: Where time goes when no caller inside the repo can be found (the
#: profile's root frames belong to the harness).
ROOT_LAYER = "harness"


class SpanLog:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.records: List[dict] = []
        self._next_id = 1

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, **attrs
    ) -> Iterator[int]:
        span_id = self._next_id
        self._next_id += 1
        record = {
            "kind": "span",
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": time.perf_counter(),
            **attrs,
        }
        self.records.append(record)
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()

    def layer(
        self,
        parent: int,
        thread: str,
        layer: str,
        self_s: float,
        calls: int,
        **attrs,
    ) -> None:
        """One layer's share of the span ``parent``."""
        self.records.append(
            {
                "kind": "layer",
                "parent": parent,
                "thread": thread,
                "layer": layer,
                "self_s": self_s,
                "calls": calls,
                **attrs,
            }
        )

    def write(self, path) -> None:
        with open(path, "w") as out:
            for record in self.records:
                out.write(json.dumps(record, sort_keys=True) + "\n")


class OtherThreads:
    """One ``cProfile.Profile`` per thread started while installed.

    ``threading.setprofile`` runs the hook on a new thread's first
    event; the hook swaps itself for a C-level profiler that stays on
    until the thread ends. A profile's open frames are only accounted
    when they return, so :meth:`stats` is exact once the threads have
    ended (the runner closes the server before it reads them).
    """

    def __init__(self):
        self._profiles: List[Tuple[threading.Thread, cProfile.Profile]] = []
        self._lock = threading.Lock()

    def install(self) -> None:
        threading.setprofile(self._hook)

    def uninstall(self) -> None:
        threading.setprofile(None)

    def _hook(self, frame, event, arg):
        profile = cProfile.Profile()
        try:
            profile.enable()
        except ValueError:
            # Python 3.12+ allows one active profiler per process; the
            # other threads then go unprofiled and their layers read 0.
            sys.setprofile(None)
            return
        with self._lock:
            self._profiles.append((threading.current_thread(), profile))

    def join(self, timeout: float = 0.5) -> None:
        """Wait for the profiled threads to end.

        Connection threads end as soon as their socket closes. The
        accept thread may stay blocked in ``accept`` on Linux after the
        listener is closed; it holds only waiting time, which is not
        counted, so it is not worth waiting for."""
        deadline = time.monotonic() + timeout
        for thread, _ in self._profiles:
            thread.join(max(0.0, deadline - time.monotonic()))

    def stats(self) -> List[list]:
        return [profile.getstats() for _, profile in self._profiles]


#: ``({layer: [self_s, calls]}, {"recv": s, "send": s})``
Folded = Tuple[Dict[str, List[float]], Dict[str, float]]


def fold(stats) -> Folded:
    """Fold the entries of one profile (``Profile.getstats()``)."""
    own_layer = {
        entry.code: (
            None
            if isinstance(entry.code, str)
            else layer_of(entry.code.co_filename)
        )
        for entry in stats
    }
    #: callee -> [(caller, callee's self time below that caller,
    #: callee's total time below that caller)]
    callers: Dict[object, List[Tuple[object, float, float]]] = {}
    for entry in stats:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append(
                (entry.code, sub.inlinetime, sub.totaltime)
            )

    memo: Dict[object, Dict[str, float]] = {}

    def owners_of(code, visiting=frozenset()) -> Dict[str, float]:
        """Shares of the layers that ``code`` was working for: its own
        layer, or else its callers' owners weighted by the time it
        spent below each."""
        layer = own_layer.get(code)
        if layer is not None:
            return {layer: 1.0}
        if code in memo:
            return memo[code]
        edges = [
            (caller, total)
            for caller, _, total in callers.get(code, ())
            if caller not in visiting and total > 0
        ]
        weight = sum(total for _, total in edges)
        shares: Dict[str, float] = {}
        for caller, total in edges:
            for owner, share in owners_of(caller, visiting | {code}).items():
                shares[owner] = shares.get(owner, 0.0) + share * total / weight
        if not shares:
            shares[ROOT_LAYER] = 1.0
        if not visiting:
            memo[code] = shares
        return shares

    layers: Dict[str, List[float]] = {}
    waits = {"recv": 0.0, "send": 0.0}

    def charge(layer: str, seconds: float, calls: int = 0) -> None:
        slot = layers.setdefault(layer, [0.0, 0])
        slot[0] += seconds
        slot[1] += calls

    for entry in stats:
        layer = own_layer[entry.code]
        if layer is not None:
            charge(layer, entry.inlinetime, entry.callcount)
            continue
        wait = _WAITS.get(entry.code)
        if wait is not None:
            waits[wait] += entry.inlinetime
            continue
        # A builtin or library function: its self time is split by
        # immediate caller; what no caller explains ran at the root.
        unexplained = entry.inlinetime
        for caller, inline, _ in callers.get(entry.code, ()):
            unexplained -= inline
            for owner, share in owners_of(caller).items():
                charge(owner, inline * share)
        if unexplained > 0:
            charge(ROOT_LAYER, unexplained)
    return layers, waits


def merge(folds: List[Folded]) -> Folded:
    """Sum of several folds (one per thread)."""
    layers: Dict[str, List[float]] = {}
    waits = {"recv": 0.0, "send": 0.0}
    for fold_layers, fold_waits in folds:
        for name, (seconds, calls) in fold_layers.items():
            slot = layers.setdefault(name, [0.0, 0])
            slot[0] += seconds
            slot[1] += calls
        for name, seconds in fold_waits.items():
            waits[name] += seconds
    return layers, waits


def subtract(after: Folded, before: Folded) -> Folded:
    """``after - before`` for two folds of the same growing profiles."""
    negated = (
        {name: [-s, -c] for name, (s, c) in before[0].items()},
        {name: -s for name, s in before[1].items()},
    )
    return merge([after, negated])
