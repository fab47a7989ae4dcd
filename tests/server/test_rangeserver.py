"""Tests for server-side range planning."""

from repro.http import decode_byteranges
from repro.server import ObjectStore
from repro.server.rangeserver import plan_range_response


def make_obj(data=b"0123456789" * 10):
    store = ObjectStore()
    return store.put("/x", data)


def test_no_range_full_200():
    obj = make_obj()
    plan = plan_range_response(obj, None)
    assert plan.status == 200
    assert plan.segments == [(0, 100)]
    assert plan.headers.get("Accept-Ranges") == "bytes"


def test_single_range_206_with_content_range():
    obj = make_obj()
    plan = plan_range_response(obj, "bytes=10-19")
    assert plan.status == 206
    assert plan.segments == [(10, 10)]
    assert plan.headers.get("Content-Range") == "bytes 10-19/100"
    assert plan.multipart_boundary is None


def test_multi_range_multipart():
    obj = make_obj()
    plan = plan_range_response(obj, "bytes=0-4,50-54")
    assert plan.status == 206
    assert plan.multipart_boundary is not None
    assert "multipart/byteranges" in plan.headers.get("Content-Type")
    body = plan.build_multipart_body(obj)
    parts = decode_byteranges(body, plan.multipart_boundary)
    assert [(p.offset, p.data) for p in parts] == [
        (0, b"01234"),
        (50, b"01234"),
    ]
    assert all(p.total == 100 for p in parts)


def test_unsatisfiable_416():
    obj = make_obj()
    plan = plan_range_response(obj, "bytes=500-600")
    assert plan.status == 416
    assert plan.headers.get("Content-Range") == "bytes */100"
    assert plan.segments == []


def test_malformed_range_ignored():
    obj = make_obj()
    plan = plan_range_response(obj, "bytes=oops")
    assert plan.status == 200


def test_multirange_disabled_falls_back_to_full():
    obj = make_obj()
    plan = plan_range_response(obj, "bytes=0-4,50-54", max_ranges=1)
    assert plan.status == 200
    assert plan.segments == [(0, 100)]


def test_max_ranges_guard():
    obj = make_obj()
    header = "bytes=" + ",".join(f"{i}-{i}" for i in range(0, 20, 2))
    plan = plan_range_response(obj, header, max_ranges=5)
    assert plan.status == 200
    # The guard counts satisfiable ranges: one of ten resolves.
    header = "bytes=0-9," + ",".join(f"{i}-{i}" for i in range(200, 209))
    plan = plan_range_response(obj, header, max_ranges=5)
    assert (plan.status, plan.segments) == (206, [(0, 10)])
    # max_ranges=1 is a server without multi-range support.
    plan = plan_range_response(obj, "bytes=10-19", max_ranges=1)
    assert (plan.status, plan.segments) == (206, [(10, 10)])
    plan = plan_range_response(obj, "bytes=0-4,50-54", max_ranges=1)
    assert (plan.status, plan.segments) == (200, [(0, 100)])


def test_partially_satisfiable_serves_valid_members():
    obj = make_obj()
    plan = plan_range_response(obj, "bytes=0-4,500-600")
    assert plan.status == 206
    assert plan.segments == [(0, 5)]
    assert plan.multipart_boundary is None  # one survivor -> plain 206


def test_body_bytes_accounting():
    obj = make_obj()
    plan = plan_range_response(obj, "bytes=0-9,20-24")
    assert plan.body_bytes == 15
