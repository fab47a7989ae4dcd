"""Rows as JSONL through the collector codec."""

import json

from repro.obs import parse_records, record_to_json, records_to_json_lines


def test_json_is_sorted_and_integral_floats_collapse():
    line = record_to_json({"kind": "x", "b": 2.0, "a": 1.5})
    assert line == '{"a": 1.5, "b": 2, "kind": "x"}'
    # nested containers normalise too
    line = record_to_json({"kind": "x", "v": [1.0, {"w": 3.0}]})
    assert json.loads(line)["v"] == [1, {"w": 3}]


def test_jsonl_roundtrip():
    rows = [
        {"kind": "request", "duration": 0.25, "status": 206},
        {"kind": "run", "n": 3.0},
    ]
    text = records_to_json_lines(rows)
    assert parse_records(text) == [
        {"duration": 0.25, "kind": "request", "status": 206},
        {"kind": "run", "n": 3},
    ]
    assert parse_records("\n\n" + text + "\n") == parse_records(text)
    assert records_to_json_lines([]) == ""


def test_jsonl_deterministic_for_same_events():
    fields = [("kind", "request"), ("z", 1), ("a", 2), ("m", 0.5)]
    # The same row built in any field order encodes to the same line.
    assert records_to_json_lines([dict(fields)]) == records_to_json_lines(
        [dict(reversed(fields))]
    )


def test_events_to_json_lines_over_plain_dicts():
    text = records_to_json_lines([{"kind": "a"}, {"kind": "b", "x": 1}])
    assert text.splitlines() == ['{"kind": "a"}', '{"kind": "b", "x": 1}']
