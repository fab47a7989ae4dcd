"""Wide-event log: emit, bound, canonical JSONL."""

import json

import pytest

from repro.obs import (
    EventLog,
    event_to_json,
    events_to_json_lines,
    parse_json_lines,
)


def test_emit_and_read_back():
    log = EventLog()
    log.emit("request", side="client", status=200)
    log.emit("run", wall_seconds=1.5)
    assert len(log) == 2
    assert log.total_events == 2
    assert log.by_kind("run") == [{"kind": "run", "wall_seconds": 1.5}]


def test_capacity_bound_drops_oldest():
    log = EventLog(capacity=2)
    for index in range(5):
        log.emit("e", index=index)
    assert [event["index"] for event in log.records()] == [3, 4]
    assert log.total_events == 5
    with pytest.raises(ValueError):
        EventLog(capacity=0)


def test_json_is_sorted_and_integral_floats_collapse():
    line = event_to_json({"kind": "x", "b": 2.0, "a": 1.5})
    assert line == '{"a": 1.5, "b": 2, "kind": "x"}'
    # nested containers normalise too
    line = event_to_json({"kind": "x", "v": [1.0, {"w": 3.0}]})
    assert json.loads(line)["v"] == [1, {"w": 3}]


def test_jsonl_roundtrip():
    log = EventLog()
    log.emit("request", duration=0.25, status=206)
    log.emit("run", n=3.0)
    text = log.to_json_lines()
    assert parse_json_lines(text) == [
        {"duration": 0.25, "kind": "request", "status": 206},
        {"kind": "run", "n": 3},
    ]
    assert parse_json_lines("\n\n" + text + "\n") == parse_json_lines(text)
    assert EventLog().to_json_lines() == ""


def test_jsonl_deterministic_for_same_events():
    def build():
        log = EventLog()
        log.emit("request", z=1, a=2, m=0.5)
        return log.to_json_lines()

    assert build() == build()


def test_events_to_json_lines_over_plain_dicts():
    text = events_to_json_lines([{"kind": "a"}, {"kind": "b", "x": 1}])
    assert text.splitlines() == ['{"kind": "a"}', '{"kind": "b", "x": 1}']
