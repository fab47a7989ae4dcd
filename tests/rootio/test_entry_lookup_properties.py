"""Entry lookup by index agrees with a brute-force basket scan.

``BranchMeta`` bisects a first-entry array and ``TTreeCache`` keeps a
per-window index; the references here walk every basket instead, and
write the cache's window rule out for both formats.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.concurrency import ThreadRuntime
from repro.errors import RootIOError
from repro.rootio import (
    LocalFetcher,
    TTreeCache,
    TreeFileReader,
    write_ntuple_file,
)
from repro.rootio.tree import BasketInfo, BranchMeta, TreeMeta
from repro.rootio.zipfmt import compress_basket
from tests.helpers import sim_world


def scan_one(branch, entry):
    """The basket holding ``entry``, found by walking all of them."""
    for basket in branch.baskets:
        if basket.first_entry <= entry < basket.end_entry:
            return basket
    return None


def scan_window(branch, start, stop):
    if start >= stop:
        return []
    return [
        basket
        for basket in branch.baskets
        if basket.end_entry > start and basket.first_entry < stop
    ]


@st.composite
def trees(draw):
    """(meta, file bytes, {branch: records}) with per-branch baskets."""
    n_entries = draw(st.integers(1, 120))
    n_branches = draw(st.integers(1, 4))
    blob = bytearray(b"\0" * 7)  # baskets need not start at zero
    branches, arrays = [], {}
    for b in range(n_branches):
        size = draw(st.integers(1, 5))
        basket_entries = draw(st.integers(1, 40))
        name = f"b{b}"
        data = bytes(
            (b * 31 + i * 7) % 251 for i in range(n_entries * size)
        )
        arrays[name] = data
        branch = BranchMeta(name=name, event_size=size)
        for first in range(0, n_entries, basket_entries):
            count = min(basket_entries, n_entries - first)
            raw = data[first * size : (first + count) * size]
            packed = compress_basket(raw)
            branch.baskets.append(
                BasketInfo(
                    offset=len(blob),
                    nbytes=len(packed),
                    first_entry=first,
                    n_entries=count,
                    uncompressed=len(raw),
                )
            )
            blob += packed
        branches.append(branch)
    meta = TreeMeta("t", n_entries, branches, file_size=len(blob))
    meta.validate()
    return meta, bytes(blob), arrays


@st.composite
def ntuples(draw):
    """(meta, file bytes, {column: records}) of a written v2 file: its
    clusters and pages cut to drawn sizes."""
    n_entries = draw(st.integers(1, 120))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    arrays = {
        f"b{b}": bytes(
            (b * 31 + i * 7) % 251 for i in range(n_entries * size)
        )
        for b, size in enumerate(sizes)
    }
    blob = write_ntuple_file(
        "t",
        arrays,
        n_entries=n_entries,
        cluster_entries=draw(st.integers(1, 60)),
        page_bytes=draw(st.integers(1, 100)),
    )
    meta = run(TreeFileReader(LocalFetcher(blob)).open())
    return meta, blob, arrays


def reference_windows(meta, entry, per_cluster, lanes, limit):
    """The cache's window rule, written out: the ``lanes`` windows from
    the one holding ``entry`` — the stored clusters, or
    ``per_cluster`` entries at a time from ``entry`` — cut at
    ``limit``."""
    n = meta.n_entries
    if meta.cluster_list:
        bounds = [
            (cluster.first_entry, cluster.end_entry)
            for cluster in meta.cluster_list
            if cluster.end_entry > entry
        ]
    else:
        bounds = [
            (lo, min(lo + per_cluster, n))
            for lo in range(entry, n, per_cluster)
        ]
    return [(lo, min(hi, limit)) for lo, hi in bounds[:lanes] if lo < limit]


def make_cache(meta, blob, **options):
    reader = TreeFileReader(LocalFetcher(blob))
    reader.meta = meta
    return TTreeCache(reader, **options)


def run(op):
    return ThreadRuntime().run(op)


# -- BranchMeta ---------------------------------------------------------------


@given(trees())
def test_branch_lookups_equal_linear_scan(tree):
    meta, _, _ = tree
    n = meta.n_entries
    for branch in meta.branches:
        for entry in range(n):
            assert branch.basket_for_entry(entry) is scan_one(branch, entry)
        for entry in (-1, n, n + 5):
            with pytest.raises(RootIOError):
                branch.basket_for_entry(entry)
        for start in range(-1, n + 2):
            for stop in range(-1, n + 2):
                assert branch.baskets_for_entries(
                    start, stop
                ) == scan_window(branch, start, stop)


def test_lookups_follow_appended_baskets():
    branch = BranchMeta(name="x", event_size=1)
    with pytest.raises(RootIOError):
        branch.basket_for_entry(0)
    assert branch.baskets_for_entries(0, 10) == []
    for first in (0, 10, 20):
        branch.baskets.append(BasketInfo(first, 1, first, 10, 10))
        assert branch.basket_for_entry(first + 9).first_entry == first
        assert len(branch.baskets_for_entries(0, 100)) == first // 10 + 1
        with pytest.raises(RootIOError):
            branch.basket_for_entry(first + 10)


@given(trees(), st.data())
def test_gap_raises_and_windows_skip_it(tree, data):
    meta, _, _ = tree
    branch = meta.branches[0]
    hole = branch.baskets.pop(
        data.draw(st.integers(0, len(branch.baskets) - 1))
    )
    for entry in range(meta.n_entries):
        found = scan_one(branch, entry)
        if found is None:
            assert hole.first_entry <= entry < hole.end_entry
            with pytest.raises(RootIOError):
                branch.basket_for_entry(entry)
        else:
            assert branch.basket_for_entry(entry) is found
    for start in range(meta.n_entries + 1):
        for stop in range(start, meta.n_entries + 1):
            assert branch.baskets_for_entries(
                start, stop
            ) == scan_window(branch, start, stop)


# -- TTreeCache ---------------------------------------------------------------


@given(
    st.one_of(trees(), ntuples()),
    st.integers(1, 50),
    st.integers(0, 60),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, 130)),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_read_entry_equals_linear_scan_reference(
    tree, per_cluster, learn, lanes, events, decode, sequential, data
):
    meta, blob, arrays = tree
    names = data.draw(
        st.lists(st.sampled_from(meta.branch_names), unique=True)
    )
    cache = make_cache(
        meta,
        blob,
        branch_names=names,
        entries_per_cluster=per_cluster,
        learn_entries=learn,
        lanes=lanes,
        decode=decode,
        events=events,
    )
    if sequential:
        entries = list(range(meta.n_entries))
    else:
        entries = data.draw(
            st.lists(st.integers(0, meta.n_entries - 1), max_size=40)
        )
    expect_names = names or meta.branch_names
    learn = min(learn, meta.n_entries)
    stop = (
        meta.n_entries if events is None
        else max(1, min(events, meta.n_entries))
    )
    window = (0, 0)
    fetched = decompressed = refills = 0

    def op():
        nonlocal window, fetched, decompressed, refills
        for entry in entries:
            if not window[0] <= entry < window[1]:
                # The cache's window rule, and what a scan of every
                # basket says each of the refill's windows needs.
                limit = max(stop, entry + 1)
                if entry < learn:
                    limit = min(limit, learn)
                windows = reference_windows(
                    meta, entry, per_cluster, lanes, limit
                )
                window = (windows[0][0], windows[-1][1])
                refills += 1
                needed = [
                    basket
                    for lo, hi in windows
                    for name in expect_names
                    for basket in scan_window(meta.branch(name), lo, hi)
                ]
                fetched += sum(basket.nbytes for basket in needed)
                decompressed += sum(
                    basket.uncompressed for basket in needed
                )
            record = yield from cache.read_entry(entry)
            assert list(record) == expect_names
            for name in expect_names:
                size = meta.branch(name).event_size
                assert scan_one(meta.branch(name), entry) is not None
                want = arrays[name][entry * size : (entry + 1) * size]
                assert record[name] == (want if decode else None)
            assert cache.stats["refills"] == refills
            assert cache.stats["bytes_fetched"] == fetched
            assert cache.stats["bytes_decompressed"] == decompressed

    # The simulator runs the lanes in turn on one thread, so the
    # stats they count have no racing writers.
    sim_world()[0].run(op())
    for bad in (-1, meta.n_entries):
        with pytest.raises(RootIOError):
            run(cache.read_entry(bad))


@given(trees(), st.booleans(), st.data())
def test_cache_refuses_a_window_with_a_gap(tree, decode, data):
    meta, blob, _ = tree
    branch = data.draw(st.sampled_from(meta.branches))
    hole = branch.baskets.pop(
        data.draw(st.integers(0, len(branch.baskets) - 1))
    )
    cache = make_cache(
        meta, blob, entries_per_cluster=meta.n_entries, decode=decode
    )
    with pytest.raises(RootIOError):
        run(cache.read_entry(hole.first_entry))
    with pytest.raises(RootIOError):
        run(cache.read_entry(0))
