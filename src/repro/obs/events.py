"""Wide structured events: one record per request, per side.

Metrics aggregate and spans nest; a *wide event* is the third leg —
one flat record per request carrying everything known about it (IDs,
phases, sizes, outcome), the row HammerCloud-style offline analysis
mines. The client engine emits one per request, the storage server one
per served request; the shared trace ID joins the two sides.

The JSONL rendering is a contract: one object per line in emit order,
keys sorted, integral floats emitted as ints — deterministic on the
simulated clock, so two seeded runs diff byte-for-byte.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterable, List

__all__ = [
    "EventLog",
    "event_to_json",
    "events_to_json_lines",
    "parse_json_lines",
    "common_log_format",
]


def _norm(value):
    """Normalise one field for stable JSON (integral floats -> ints)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {key: _norm(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_norm(inner) for inner in value]
    return value


def event_to_json(event: Dict[str, object]) -> str:
    """One event as its canonical JSON line."""
    return json.dumps(_norm(dict(event)), sort_keys=True)


def events_to_json_lines(events: Iterable[Dict[str, object]]) -> str:
    """Events as JSONL, one canonical line each, in the given order."""
    return "\n".join(event_to_json(event) for event in events)


def parse_json_lines(text: str) -> List[Dict[str, object]]:
    """Inverse of :func:`events_to_json_lines` (blank lines skipped)."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


def common_log_format(event: Dict[str, object]) -> str:
    """A server ``request`` event as an Apache common-log-format line.

    The access log is this fold over the server's wide events. The
    timestamp is in (simulated) seconds; the propagated trace ID is
    appended when the request carried one, so one grep joins the line
    to the client's spans.
    """
    line = (
        f'{event["client"]} - - [{event["ts"]:.6f}] '
        f'"{event["method"]} {event["path"]} HTTP/1.1" '
        f'{event["status"]} {event["bytes_sent"]} '
        f'{event["duration"]:.6f}'
    )
    if event["trace_id"]:
        line += f' trace={event["trace_id"]}'
    return line


class EventLog:
    """Bounded ring of wide events (oldest dropped first).

    ``sink`` is an optional callable invoked with each record as it is
    emitted (see :class:`~repro.obs.collector.TelemetrySink`).
    """

    def __init__(self, capacity: int = 100_000, sink=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.sink = sink
        self._events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.total_events = 0

    def emit(self, kind: str, **fields) -> Dict[str, object]:
        """Record one event; returns the stored record."""
        record: Dict[str, object] = {"kind": kind}
        record.update(fields)
        self._events.append(record)
        self.total_events += 1
        if self.sink is not None:
            self.sink(record)
        return record

    def records(self) -> List[Dict[str, object]]:
        """Retained events in emit order (copies of the refs, not deep)."""
        return list(self._events)

    def by_kind(self, kind: str) -> List[Dict[str, object]]:
        return [event for event in self._events if event.get("kind") == kind]

    def to_json_lines(self) -> str:
        """The retained events as canonical JSONL."""
        return events_to_json_lines(self._events)

    def __len__(self) -> int:
        return len(self._events)
