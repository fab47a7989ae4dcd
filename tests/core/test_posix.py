"""Tests for the DavPosix namespace calls."""

from repro.core import DavPosix

from tests.helpers import davix_world


def test_stat_unlink_mkdir_listdir():
    client, app, store, _ = davix_world()
    store.put("/data/f.bin", b"0123456789ABCDEF")
    posix = DavPosix(client.context)

    def op():
        yield from posix.mkdir("http://server/newcol")
        listing = yield from posix.listdir("http://server/data")
        return listing

    listing = client.runtime.run(op())
    assert client.stat("http://server/data/f.bin").size == 16
    assert [name for name, _ in listing] == ["f.bin"]
    assert [stat.size for _, stat in listing] == [16]
    client.delete("http://server/data/f.bin")
    assert not store.exists("/data/f.bin")
    assert store.is_collection("/newcol")
