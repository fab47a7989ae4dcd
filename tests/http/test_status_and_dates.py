"""Tests for status classification and HTTP-date handling."""

from repro.http.dates import format_http_date, parse_http_date
from repro.http.status import (
    allows_body,
    is_redirect,
    is_retriable,
    reason_phrase,
)


def test_reason_phrases():
    assert reason_phrase(200) == "OK"
    assert reason_phrase(206) == "Partial Content"
    assert reason_phrase(207) == "Multi-Status"
    assert reason_phrase(599) == "Unknown"


def test_classification():
    assert is_redirect(307)
    assert not is_redirect(304)  # not a "follow me" redirect


def test_retriable_statuses_are_server_side_transient():
    assert is_retriable(503)
    assert is_retriable(502)
    assert not is_retriable(404)
    assert not is_retriable(501)


def test_allows_body():
    assert allows_body(200)
    assert not allows_body(204)
    assert not allows_body(304)
    assert not allows_body(100)


def test_http_date_roundtrip():
    stamp = 1_400_000_000.0
    text = format_http_date(stamp)
    assert text.endswith("GMT")
    assert parse_http_date(text) == stamp


def test_http_date_parse_failure():
    assert parse_http_date("not a date") is None
