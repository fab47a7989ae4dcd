"""Per-resource OPTIONS ``Allow`` headers and 405 responses.

The advertised verb set must reflect what the resource actually
supports — files, collections, and missing paths differ — with COPY
advertised consistently now that third-party copy landed.
"""

import pytest

from repro.http import Headers, Request

from tests.helpers import davix_world


def options(app, path):
    return app.handle(Request("OPTIONS", path)).response


def allowed(app, path):
    value = options(app, path).headers.get("Allow")
    return {verb.strip() for verb in value.split(",")}


def world():
    client, app, store, _ = davix_world()
    store.put("/data/file.bin", b"x" * 10)
    store.mkcol("/docs")
    return client, app, store


def test_file_advertises_full_verb_set():
    _, app, store = world()
    verbs = allowed(app, "/data/file.bin")
    assert verbs == {
        "GET", "HEAD", "OPTIONS", "PROPFIND", "PUT",
        "DELETE", "COPY", "MOVE",
    }


def test_collection_advertises_collection_verbs():
    _, app, store = world()
    verbs = allowed(app, "/docs")
    assert "COPY" in verbs and "MOVE" in verbs
    assert "PROPFIND" in verbs
    # A collection has no byte body to GET or PUT.
    assert "GET" not in verbs and "PUT" not in verbs


def test_missing_path_advertises_creation_verbs():
    _, app, store = world()
    verbs = allowed(app, "/nope")
    # A missing path can be created — and is a valid pull-mode TPC
    # destination, so COPY appears here too.
    assert verbs == {"OPTIONS", "PUT", "MKCOL", "COPY"}


def test_options_ranges_only_on_files():
    _, app, store = world()
    assert (
        options(app, "/data/file.bin").headers.get("Accept-Ranges")
        == "bytes"
    )
    assert options(app, "/docs").headers.get("Accept-Ranges") is None
    assert options(app, "/nope").headers.get("Accept-Ranges") is None


def test_405_allow_matches_resource():
    _, app, store = world()
    # An unsupported verb answers 405 with the resource's actual
    # verb set, not a static list.
    for path in ("/data/file.bin", "/docs", "/nope"):
        response = app.handle(Request("PATCH", path)).response
        assert response.status == 405
        assert response.headers.get("Allow") == options(
            app, path
        ).headers.get("Allow")


def test_collection_copy_is_deep():
    client, app, store = world()
    store.put("/docs/a.txt", b"alpha")
    store.put("/docs/sub/b.txt", b"beta")
    request = Request(
        "COPY", "/docs", Headers([("Destination", "/docs2")])
    )
    response = app.handle(request).response
    assert response.status in (201, 204)
    assert store.read("/docs2/a.txt") == b"alpha"
    assert store.read("/docs2/sub/b.txt") == b"beta"
    assert store.read("/docs/a.txt") == b"alpha"  # source untouched


def test_collection_move_removes_source_tree():
    client, app, store = world()
    store.put("/docs/a.txt", b"alpha")
    request = Request(
        "MOVE", "/docs", Headers([("Destination", "/archive")])
    )
    response = app.handle(request).response
    assert response.status in (201, 204)
    assert store.read("/archive/a.txt") == b"alpha"
    assert not store.exists("/docs")


@pytest.mark.parametrize("verb", ["MOVE", "COPY"])
@pytest.mark.parametrize(
    "destination", ["http://h:notaport/x", "http://[::1/x"]
)
def test_malformed_destination_url_is_taken_as_a_path(verb, destination):
    # COPY also asks whether the Destination names another origin.
    client, app, store = world()
    request = Request(
        verb,
        "/data/file.bin",
        Headers([("Host", "server"), ("Destination", destination)]),
    )
    response = app.handle(request).response
    assert response.status == 201
    assert store.read(destination) == b"x" * 10
    assert store.exists("/data/file.bin") == (verb == "COPY")


def test_move_and_copy_swallow_nothing_but_a_malformed_destination(monkeypatch):
    client, app, store = world()

    def broken(raw):
        raise RuntimeError("not a URL problem")

    monkeypatch.setattr("repro.server.handlers.Url.parse", broken)
    for verb in ("MOVE", "COPY"):
        request = Request(
            verb, "/data/file.bin", Headers([("Destination", "/elsewhere")])
        )
        with pytest.raises(RuntimeError):
            app.handle(request)
    assert store.exists("/data/file.bin")
    assert not store.exists("/elsewhere")
