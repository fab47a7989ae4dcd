"""Cross-stack property tests: random datasets and range patterns must
survive the full client/server/transport round trip."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import SimRuntime, ThreadRuntime
from repro.core import Context
from repro.http import Headers, Request
from repro.rootio import (
    BranchSpec,
    DatasetSpec,
    DavixFetcher,
    LocalFetcher,
    TreeFileReader,
    generate_tree_bytes,
)
from repro.server import HttpServer, ObjectStore, StorageApp

from tests.helpers import one_request, sim_world

# Hypothesis drives whole simulations here: few examples, no slowness check.
SLOW = settings(
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)


@SLOW
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=97),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=64),
            st.floats(min_value=0.05, max_value=1.0),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(st.integers(0, 399), st.integers(0, 399)),
        min_size=1,
        max_size=6,
    ),
)
def test_tree_entries_survive_http_roundtrip(
    n_entries, basket_entries, branch_shapes, windows
):
    """Arbitrary tree shapes and read windows: the bytes read over the
    simulated HTTP path equal a local read."""
    spec = DatasetSpec(
        name="prop",
        n_entries=n_entries,
        branches=tuple(
            BranchSpec(f"b{i}", event_size=size, compress_ratio=ratio)
            for i, (size, ratio) in enumerate(branch_shapes)
        ),
        basket_entries=basket_entries,
        seed=5,
    )
    blob = generate_tree_bytes(spec)

    local = TreeFileReader(LocalFetcher(blob))
    ThreadRuntime().run(local.open())

    client_rt, server_rt = sim_world()
    store = ObjectStore()
    store.put("/t", blob)
    HttpServer(server_rt, StorageApp(store), port=80).start()
    remote = TreeFileReader(DavixFetcher(Context(), "http://server/t"))
    client_rt.run(remote.open())

    for start_raw, stop_raw in windows:
        start = start_raw % n_entries
        stop = min(n_entries, start + 1 + (stop_raw % 50))
        expected = ThreadRuntime().run(local.read_entries(start, stop))
        got = client_rt.run(remote.read_entries(start, stop))
        assert got == expected


@SLOW
@given(
    st.binary(min_size=1, max_size=5000),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6000),
            st.integers(min_value=1, max_value=2000),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_server_range_semantics_property(content, raw_ranges):
    """Any Range header against any object: the served bytes must match
    RFC 7233 semantics computed locally."""
    from repro.http import RangeSpec, decode_byteranges, format_range_header
    from repro.http.multipart import content_type_boundary
    from repro.http.ranges import resolve_ranges

    client_rt, server_rt = sim_world()
    store = ObjectStore()
    store.put("/x", content)
    HttpServer(server_rt, StorageApp(store), port=80).start()

    specs = [
        RangeSpec.from_offset_length(offset, length)
        for offset, length in raw_ranges
    ]
    header = format_range_header(specs)
    response = client_rt.run(
        one_request(
            ("server", 80),
            Request("GET", "/x", Headers([("Range", header)])),
        )
    )
    resolved = resolve_ranges(specs, len(content))
    if not resolved:
        assert response.status == 416
        return
    assert response.status == 206
    if len(resolved) == 1:
        offset, length = resolved[0]
        assert response.body == content[offset : offset + length]
    else:
        boundary = content_type_boundary(response.content_type)
        parts = decode_byteranges(response.body, boundary)
        assert [(p.offset, len(p.data)) for p in parts] == resolved
        for part in parts:
            assert part.data == content[
                part.offset : part.offset + len(part.data)
            ]
            assert part.total == len(content)
