"""Tests for the exception hierarchy, RequestParams and Context."""

import pytest

from repro.core import Context, RequestParams, TransferConfig
from repro.core import pool as pool_module
from repro.core import vectored
from repro.errors import (
    AllReplicasFailed,
    ChecksumMismatch,
    ConnectError,
    DavixError,
    FileNotFound,
    HttpError,
    NetworkError,
    PermissionDenied,
    RedirectLoopError,
    ReproError,
    RequestError,
    XrootdError,
)
from repro.net import TcpOptions


def test_hierarchy_roots():
    assert issubclass(DavixError, ReproError)
    assert issubclass(NetworkError, ReproError)
    assert issubclass(HttpError, ReproError)
    assert issubclass(ConnectError, NetworkError)
    assert issubclass(FileNotFound, DavixError)
    assert issubclass(RequestError, DavixError)


def test_davix_error_carries_scope_and_status():
    error = RequestError("boom", status=502)
    assert error.scope == "request"
    assert error.status == 502
    assert "[request]" in str(error)


def test_file_not_found_shape():
    error = FileNotFound("/data/x")
    assert error.status == 404
    assert error.path == "/data/x"


def test_permission_denied_default_status():
    assert PermissionDenied("/x").status == 403
    assert PermissionDenied("/x", 401).status == 401


def test_redirect_loop_error():
    error = RedirectLoopError("http://h/x", 10)
    assert error.limit == 10
    assert "10" in str(error)


def test_all_replicas_failed_lists_attempts():
    error = AllReplicasFailed(
        "/f", [("http://a/f", "down"), ("http://b/f", "404")]
    )
    assert "http://a/f" in str(error)
    assert len(error.attempts) == 2


def test_checksum_mismatch_fields():
    error = ChecksumMismatch("/f", "aaaa", "bbbb")
    assert error.expected == "aaaa"
    assert error.actual == "bbbb"


def test_xrootd_error_code():
    assert XrootdError("nope", code=3011).code == 3011


# -- RequestParams -------------------------------------------------------------


def test_params_defaults_are_daivx_like():
    params = RequestParams()
    assert params.keep_alive is True
    assert params.tcp_options == TcpOptions()
    assert params.transfer == TransferConfig()
    assert vectored.MAX_VECTOR_RANGES == 256


def test_params_with_creates_modified_copy():
    params = RequestParams()
    tuned = params.replace(vector_gap=7, keep_alive=False)
    assert tuned.vector_gap == 7
    assert tuned.keep_alive is False
    assert params.vector_gap == 512  # original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        {"deadline": 0},
        {"deadline": -1.0},
        {"vector_gap": -1},
        {"multistream_chunk": 0},
        {"multistream_max_streams": 0},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        RequestParams(**kwargs)


# -- Context ----------------------------------------------------------------------


def test_context_blacklist_roundtrip():
    context = Context()
    now = {"t": 0.0}
    context.clock = lambda: now["t"]
    origin = ("http", "dead", 80)
    assert not context.is_blacklisted(origin)
    context.blacklist(origin, ttl=5.0)
    assert context.is_blacklisted(origin)
    now["t"] = 4.9
    assert context.is_blacklisted(origin)
    now["t"] = 5.0
    assert not context.is_blacklisted(origin)
    # Expired entries are pruned.
    assert origin not in context._blacklist


def test_context_owns_a_pool(monkeypatch):
    monkeypatch.setattr(pool_module, "MAX_IDLE_PER_ORIGIN", 3)
    context = Context()
    assert context.pool.metrics is context.metrics

    class IdleSession:
        origin = ("http", "h", 80)
        reusable = True

        def discard(self):
            self.reusable = False

    for _ in range(4):
        context.pool.release(IdleSession())
    assert context.pool.idle_count() == 3
    assert context.pool.stats().discarded == 1
