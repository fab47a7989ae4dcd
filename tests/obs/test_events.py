"""Wide-event log: emit, bound, and JSONL through the collector codec."""

import json

import pytest

from repro.obs import (
    EventLog,
    parse_records,
    record_to_json,
    records_to_json_lines,
)


def test_emit_and_read_back():
    log = EventLog()
    log.emit("request", side="client", status=200)
    log.emit("run", wall_seconds=1.5)
    assert len(log) == 2
    assert log.total_events == 2
    assert log.records()[1] == {"kind": "run", "wall_seconds": 1.5}


def test_capacity_bound_drops_oldest():
    log = EventLog(capacity=2)
    for index in range(5):
        log.emit("e", index=index)
    assert [event["index"] for event in log.records()] == [3, 4]
    assert log.total_events == 5
    with pytest.raises(ValueError):
        EventLog(capacity=0)


def test_json_is_sorted_and_integral_floats_collapse():
    line = record_to_json({"kind": "x", "b": 2.0, "a": 1.5})
    assert line == '{"a": 1.5, "b": 2, "kind": "x"}'
    # nested containers normalise too
    line = record_to_json({"kind": "x", "v": [1.0, {"w": 3.0}]})
    assert json.loads(line)["v"] == [1, {"w": 3}]


def test_jsonl_roundtrip():
    log = EventLog()
    log.emit("request", duration=0.25, status=206)
    log.emit("run", n=3.0)
    text = records_to_json_lines(log.records())
    assert parse_records(text) == [
        {"duration": 0.25, "kind": "request", "status": 206},
        {"kind": "run", "n": 3},
    ]
    assert parse_records("\n\n" + text + "\n") == parse_records(text)
    assert records_to_json_lines(EventLog().records()) == ""


def test_jsonl_deterministic_for_same_events():
    def build():
        log = EventLog()
        log.emit("request", z=1, a=2, m=0.5)
        return records_to_json_lines(log.records())

    assert build() == build()


def test_events_to_json_lines_over_plain_dicts():
    text = records_to_json_lines([{"kind": "a"}, {"kind": "b", "x": 1}])
    assert text.splitlines() == ['{"kind": "a"}', '{"kind": "b", "x": 1}']
