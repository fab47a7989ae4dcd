"""Tests for URL parsing and manipulation."""

import pytest

from repro.errors import HttpProtocolError
from repro.http import Url


def test_parse_basic():
    url = Url.parse("http://storage.cern.ch/dpm/data/file.root")
    assert url.scheme == "http"
    assert url.host == "storage.cern.ch"
    assert url.port == 80
    assert url.path == "/dpm/data/file.root"
    assert url.origin == ("http", "storage.cern.ch", 80)


def test_parse_explicit_port_and_query():
    url = Url.parse("https://host:8443/path?metalink=true")
    assert url.port == 8443
    assert url.query == "metalink=true"
    assert url.target == "/path?metalink=true"
    assert str(url) == "https://host:8443/path?metalink=true"


def test_default_port_omitted_from_netloc():
    assert Url.parse("http://h/").netloc == "h"
    assert Url.parse("http://h:81/").netloc == "h:81"
    assert Url.parse("https://h/").port == 443


def test_dav_schemes_alias_http():
    assert Url.parse("dav://h/x").port == 80
    assert Url.parse("davs://h/x").port == 443


def test_empty_path_becomes_root():
    assert Url.parse("http://h").path == "/"
    assert Url.parse("http://h").target == "/"


def test_parse_returns_a_url_unchanged():
    url = Url.parse("http://h:8080/x?y=1")
    assert Url.parse(url) is url


def test_unsupported_scheme_rejected():
    with pytest.raises(HttpProtocolError):
        Url.parse("ftp://h/x")


def test_missing_host_rejected():
    with pytest.raises(HttpProtocolError):
        Url.parse("/relative/only")


def test_resolve_absolute_redirect():
    base = Url.parse("http://a/old")
    target = base.resolve("http://b:8080/new")
    assert target.host == "b"
    assert target.port == 8080
    assert target.path == "/new"


def test_resolve_relative_redirect():
    base = Url.parse("http://a/dir/resource")
    assert base.resolve("/moved").path == "/moved"
    assert base.resolve("other").path == "/dir/other"


def test_with_path_percent_encodes():
    url = Url.parse("http://h/x")
    assert url.with_path("/data/file with space").path == (
        "/data/file%20with%20space"
    )
    assert url.with_path("/data/file with space").decoded_path == (
        "/data/file with space"
    )


def test_sibling():
    url = Url.parse("http://h/dir/a.root")
    assert url.sibling("b.root").path == "/dir/b.root"


def test_url_is_hashable_value_type():
    a = Url.parse("http://h/x")
    b = Url.parse("http://h/x")
    assert a == b
    assert hash(a) == hash(b)


MALFORMED = ["http://h:notaport/x", "http://[::1/x"]


@pytest.mark.parametrize("raw", MALFORMED)
def test_malformed_authority_is_a_typed_error(raw):
    # urlsplit / SplitResult.port raise a bare ValueError for these.
    with pytest.raises(HttpProtocolError, match="malformed"):
        Url.parse(raw)


@pytest.mark.parametrize("location", MALFORMED)
def test_malformed_redirect_target_is_a_typed_error(location):
    with pytest.raises(HttpProtocolError, match="malformed"):
        Url.parse("http://a/old").resolve(location)
