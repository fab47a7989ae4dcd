"""Tests for the object store and its content representations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.server import (
    BytesContent,
    ObjectStore,
    StoreError,
)


def test_put_get_roundtrip():
    store = ObjectStore()
    store.put("/data/a.bin", b"hello world")
    assert store.read("/data/a.bin") == b"hello world"
    assert store.get("/data/a.bin").size == 11


def test_put_replaces_and_changes_etag():
    store = ObjectStore()
    first = store.put("/x", b"one")
    second = store.put("/x", b"two")
    assert store.read("/x") == b"two"
    assert first.etag != second.etag


def test_read_range():
    store = ObjectStore()
    store.put("/x", b"0123456789")
    assert store.read("/x", 2, 3) == b"234"
    assert store.read("/x", 8, 100) == b"89"
    assert store.read("/x", 5) == b"56789"


def test_missing_object_raises():
    store = ObjectStore()
    with pytest.raises(StoreError):
        store.get("/nope")
    with pytest.raises(StoreError):
        store.delete("/nope")
    with pytest.raises(StoreError):
        store.stat("/nope")


def test_delete_object():
    store = ObjectStore()
    store.put("/x", b"data")
    store.delete("/x")
    assert not store.exists("/x")


def test_implicit_parent_collections():
    store = ObjectStore()
    store.put("/a/b/c.bin", b"data")
    assert store.is_collection("/a")
    assert store.is_collection("/a/b")
    assert store.list_collection("/a") == ["/a/b"]
    assert store.list_collection("/a/b") == ["/a/b/c.bin"]


def test_list_root():
    store = ObjectStore()
    store.put("/top.bin", b"x")
    store.put("/dir/nested.bin", b"y")
    assert store.list_collection("/") == ["/dir", "/top.bin"]


def test_mkcol_semantics():
    store = ObjectStore()
    store.mkcol("/new")
    assert store.is_collection("/new")
    with pytest.raises(StoreError):
        store.mkcol("/new")  # exists
    with pytest.raises(StoreError):
        store.mkcol("/missing/child")  # parent missing


def test_delete_collection_rules():
    store = ObjectStore()
    store.put("/dir/file", b"x")
    with pytest.raises(StoreError):
        store.delete("/dir")  # not empty
    store.delete("/dir/file")
    store.delete("/dir")
    assert not store.exists("/dir")
    with pytest.raises(StoreError):
        store.delete("/")


def test_put_over_collection_rejected():
    store = ObjectStore()
    store.mkcol("/dir")
    with pytest.raises(StoreError):
        store.put("/dir", b"data")


def test_path_normalisation():
    store = ObjectStore()
    store.put("no/leading/slash", b"x")
    assert store.exists("/no/leading/slash")
    store.put("/double//slash", b"y")
    assert store.read("/double/slash") == b"y"


def test_stat_and_clock_injection():
    now = {"t": 100.0}
    store = ObjectStore(clock=lambda: now["t"])
    store.put("/x", b"abc")
    size, mtime, is_dir = store.stat("/x")
    assert (size, mtime, is_dir) == (3, 100.0, False)
    assert store.stat("/")[2] is True


def test_checksums_match_known_values():
    store = ObjectStore()
    obj = store.put("/x", b"hello")
    import hashlib
    import zlib

    assert obj.checksum("adler32") == f"{zlib.adler32(b'hello'):08x}"
    assert obj.checksum("md5") == hashlib.md5(b"hello").hexdigest()
    with pytest.raises(StoreError):
        obj.checksum("sha999")


def test_io_counters():
    store = ObjectStore()
    store.put("/x", b"0123456789")
    store.read("/x", 0, 4)
    assert store.bytes_written == 10
    assert store.bytes_read == 4


@given(st.binary(min_size=0, max_size=10_000))
def test_bytes_content_read_matches_slice(data):
    content = BytesContent(data)
    assert content.read(0, len(data)) == data
    mid = len(data) // 2
    assert content.read(mid, 100) == data[mid : mid + 100]
