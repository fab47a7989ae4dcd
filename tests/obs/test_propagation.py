"""Trace-context formatting, parsing and header injection."""

import pytest

from repro.http import Headers
from repro.obs import (
    NULL_SPAN,
    TRACEPARENT_HEADER,
    Tracer,
    format_traceparent,
    inject_traceparent,
    parse_traceparent,
)
from repro.obs.propagation import format_span_id, format_trace_id


def test_format_ids_fixed_width_hex():
    assert format_trace_id(1) == "0" * 31 + "1"
    assert len(format_trace_id(2**130)) == 32  # masked to 128 bits
    assert format_span_id(0xDEAD) == "000000000000dead"


def test_format_and_parse_roundtrip():
    span = Tracer().start("request")
    value = format_traceparent(span)
    assert value is not None
    assert value.startswith("00-")
    assert value.endswith("-01")
    ctx = parse_traceparent(value)
    assert ctx is not None
    assert ctx.trace_id == span.trace_id
    assert ctx.span_id == span.span_id
    assert ctx.sampled is True


def test_null_span_formats_to_none():
    assert format_traceparent(NULL_SPAN) is None
    assert format_traceparent(None) is None


@pytest.mark.parametrize(
    "value",
    [
        None,
        "",
        "garbage",
        "00-abc-def-01",  # wrong widths
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # zero span id
        "zz-" + "1" * 32 + "-" + "2" * 16 + "-01",  # non-hex version
        "00-" + "x" * 32 + "-" + "2" * 16 + "-01",  # non-hex trace
        "00-" + "1" * 32 + "-" + "2" * 16 + "-0",  # short flags
    ],
)
def test_parse_rejects_malformed(value):
    assert parse_traceparent(value) is None


def test_parse_unsampled_flag():
    ctx = parse_traceparent("00-" + "a" * 32 + "-" + "b" * 16 + "-00")
    assert ctx is not None
    assert ctx.sampled is False


def test_inject_sets_header():
    headers = Headers()
    span = Tracer().start("request")
    assert inject_traceparent(headers, span) is True
    assert headers.get(TRACEPARENT_HEADER) == format_traceparent(span)


def test_inject_respects_existing_header():
    headers = Headers([(TRACEPARENT_HEADER, "application-supplied")])
    assert inject_traceparent(headers, Tracer().start("r")) is True
    assert headers.get(TRACEPARENT_HEADER) == "application-supplied"


def test_inject_noop_for_null_span():
    headers = Headers()
    assert inject_traceparent(headers, NULL_SPAN) is False
    assert headers.get(TRACEPARENT_HEADER) is None
