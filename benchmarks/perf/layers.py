"""The layers of ``src/repro`` and their isolated rates.

Two things live here:

* the table that says which layer a source file belongs to
  (:func:`layer_of`), used by the traced run to fold profile self time;
* the ``--layers`` microbenchmarks (:func:`isolated_rates`): one direct
  call per layer on fixed seeded inputs, no profiler, median of five.
  They are the unbiased cross-check of the traced shares. Every input is
  made from the seed and verified once (decode(encode(x)) == x) before
  it is timed.

Sizes are chosen so that one sample takes 5-40 ms: the whole list then
runs in a few seconds and fits in every traced run of the benchmark.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import time
import zlib
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Layers with in-situ ``<layer>.self_s`` / ``<layer>.calls`` metrics,
#: and the source files (relative to ``src/repro/``) folded into each. A
#: whole package is named by its directory.
LAYER_FILES = {
    "sim.core": ("sim/",),
    "net.tcp": ("net/tcp.py",),
    "net.link": ("net/",),
    "concurrency.sim_runtime": ("concurrency/sim_runtime.py",),
    "concurrency.thread_runtime": ("concurrency/thread_runtime.py",),
    "concurrency.other": ("concurrency/",),
    "http.codec": ("http/codec.py", "http/messages.py"),
    "http.multipart": ("http/multipart.py",),
    "http.ranges": ("http/ranges.py",),
    "http.headers": ("http/",),
    "core.file": ("core/file.py", "core/client.py", "core/posix.py"),
    "core.vectored": ("core/vectored.py",),
    "core.engine": ("core/engine.py",),
    "core.pagecache": ("core/pagecache.py",),
    "core.pool": ("core/pool.py",),
    "core.session": ("core/session.py",),
    "core.request": ("core/",),
    "rootio.tree": ("rootio/tree.py", "rootio/treefile.py"),
    "rootio.treecache": ("rootio/treecache.py", "rootio/fetchers.py"),
    "rootio.zipfmt": ("rootio/zipfmt.py",),
    "server.app": ("server/app.py",),
    "server.rangeserver": ("server/rangeserver.py",),
    "server.objectstore": ("server/objectstore.py",),
    "server.handlers": ("server/",),
    "xrootd.client": ("xrootd/client.py", "xrootd/readahead.py"),
    "xrootd.server": ("xrootd/server.py",),
    "xrootd.protocol": ("xrootd/",),
    "obs": ("obs/",),
    "resilience": ("resilience/",),
    "workloads": ("workloads/",),
    # Whatever else lives under src/repro (errors.py, rootio/ntuple.py...).
    "other": ("",),
}

LAYERS = tuple(LAYER_FILES) + ("harness",)

_EXACT = {
    path: layer
    for layer, paths in LAYER_FILES.items()
    for path in paths
    if path.endswith(".py")
}
_PREFIXES = sorted(
    (
        (path, layer)
        for layer, paths in LAYER_FILES.items()
        for path in paths
        if not path.endswith(".py")
    ),
    key=lambda item: -len(item[0]),
)
_MARKER = os.sep + "repro" + os.sep
_layer_cache: Dict[str, Optional[str]] = {}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for builtins' callers
    outside the repo (the standard library, numpy)."""
    try:
        return _layer_cache[filename]
    except KeyError:
        pass
    layer: Optional[str] = None
    if os.path.dirname(os.path.abspath(filename)) == HERE:
        layer = "harness"
    elif _MARKER in filename and "site-packages" not in filename:
        relative = filename.rsplit(_MARKER, 1)[1].replace(os.sep, "/")
        layer = _EXACT.get(relative)
        if layer is None:
            layer = next(
                name
                for prefix, name in _PREFIXES
                if relative.startswith(prefix)
            )
    _layer_cache[filename] = layer
    return layer


# -- isolated rates -----------------------------------------------------------

SAMPLES = 5
#: A call shorter than this is repeated until one sample lasts as long.
MIN_SAMPLE_S = 0.008
MB = 1e6


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"layer input failed verification: {what}")


def _scattered_reads(rng, count, size, length=4096):
    return [(rng.randrange(size - length), length) for _ in range(count)]


def _bench_sim_core(rng, k):
    from repro.sim import Environment

    timeouts = 4000 // k

    def ping_pong():
        env = Environment()

        def process():
            for _ in range(timeouts):
                yield env.timeout(1.0)

        env.process(process())
        done = env.process(process())
        env.run(until=done)
        return env.now

    _require(ping_pong() == timeouts, "sim clock after the timeouts")
    return 2 * timeouts, ping_pong


def _bench_net_tcp(rng, k):
    from repro.concurrency import Accept, Close, Connect, Recv, Send, SimRuntime
    from repro.net.profiles import WAN, build_network
    from repro.sim import Environment

    payload = bytes((8 << 20) // k)

    def transfer():
        net = build_network(WAN, Environment(), seed=1)
        client, server = SimRuntime(net, "client"), SimRuntime(net, "server")
        listener = server.listen(9000)

        def sink():
            channel = yield Accept(listener)
            received = 0
            while True:
                data = yield Recv(channel)
                if not data:
                    return received
                received += len(data)

        def source():
            channel = yield Connect(("server", 9000))
            yield Send(channel, payload)
            yield Close(channel)

        task = server.spawn(sink())
        client.run(source())
        return server.join(task)

    _require(transfer() == len(payload), "bytes through the TCP model")
    return len(payload) / MB, transfer


def _parse_all(parser, wire, feed):
    from repro.http import NEED_DATA, Data, EndOfMessage

    received = 0
    parser.expect_response_to("GET")
    for start in range(0, len(wire), feed):
        parser.receive_data(wire[start : start + feed])
        while True:
            event = parser.next_event()
            if event is NEED_DATA:
                break
            if isinstance(event, Data):
                received += len(event.data)
            elif isinstance(event, EndOfMessage):
                return received
    raise RuntimeError("response did not end")


def _bench_codec_parse(rng, k):
    from repro.http import HttpParser, Response, serialize_response

    body = rng.randbytes((8 << 20) // k)
    wire = serialize_response(Response(200, body=body))

    def parse():
        return _parse_all(HttpParser("client"), wire, 64 << 10)

    _require(parse() == len(body), "parsed body length")
    return len(wire) / MB, parse


def _bench_codec_heads(rng, k):
    from repro.http import HttpParser, Response, serialize_response

    wire = serialize_response(Response(206, body=rng.randbytes(4096)))
    count = 1000 // k

    def parse():
        parser = HttpParser("client")
        total = 0
        for _ in range(count):
            total += _parse_all(parser, wire, len(wire))
        return total

    _require(parse() == 4096 * count, "bodies of the small responses")
    return count, parse


def _bench_codec_serialize(rng, k):
    from repro.http import Response, serialize_response

    response = Response(200, body=rng.randbytes((8 << 20) // k))

    def serialize():
        return len(serialize_response(response))

    _require(serialize() > len(response.body), "serialised length")
    return len(response.body) / MB, serialize


def _multipart_input(rng, parts, length):
    from repro.http.multipart import RangePart, encode_byteranges

    total = parts * length * 4
    ranges = [
        RangePart(offset=i * length * 4, data=rng.randbytes(length), total=total)
        for i in range(parts)
    ]
    boundary = "byterange_%024x" % rng.getrandbits(96)
    return ranges, boundary, encode_byteranges(ranges, boundary)


def _bench_multipart_encode(rng, k):
    from repro.http.multipart import decode_byteranges, encode_byteranges

    ranges, boundary, body = _multipart_input(rng, 1024 // k, 4096)
    decoded = decode_byteranges(body, boundary)
    _require(
        [(p.offset, p.data) for p in decoded]
        == [(p.offset, p.data) for p in ranges],
        "decode(encode(parts))",
    )
    return len(ranges), lambda: encode_byteranges(ranges, boundary)


def _bench_multipart_decode(rng, k):
    from repro.http.multipart import decode_byteranges

    ranges, boundary, body = _multipart_input(rng, 1024 // k, 4096)

    def decode():
        return decode_byteranges(body, boundary, copy=False)

    _require(
        all(bytes(a.data) == b.data for a, b in zip(decode(), ranges)),
        "zero-copy decode",
    )
    return len(ranges), decode


def _bench_multipart_stream(rng, k):
    from repro.http.multipart import MultipartStream

    ranges, boundary, body = _multipart_input(rng, 32 // k, 256 << 10)

    def stream():
        decoder = MultipartStream(boundary)
        for start in range(0, len(body), 64 << 10):
            decoder.feed(body[start : start + (64 << 10)])
        return decoder.close()

    _require(
        [bytes(p.data) for p in stream()] == [p.data for p in ranges],
        "streamed decode",
    )
    return len(body) / MB, stream


def _range_specs(reads):
    from repro.http.ranges import RangeSpec

    return [RangeSpec.from_offset_length(o, n) for o, n in reads]


def _bench_ranges_format(rng, k):
    from repro.http.ranges import format_range_header, parse_range_header

    specs = _range_specs(_scattered_reads(rng, 1024 // k, 1 << 30))
    _require(
        parse_range_header(format_range_header(specs)) == specs,
        "parse(format(specs))",
    )
    return len(specs), lambda: format_range_header(specs)


def _bench_ranges_parse(rng, k):
    from repro.http.ranges import format_range_header, parse_range_header

    specs = _range_specs(_scattered_reads(rng, 1024 // k, 1 << 30))
    header = format_range_header(specs)
    return len(specs), lambda: parse_range_header(header)


def _bench_vectored_plan(rng, k):
    from repro.core.vectored import plan_vector

    reads = _scattered_reads(rng, 1024 // k, 64 << 20)
    plan = plan_vector(reads)
    _require(plan.requested_bytes == 4096 * len(reads), "planned bytes")
    return len(reads), lambda: plan_vector(reads)


def _bench_vectored_scatter(rng, k):
    from repro.core.vectored import PartTable, plan_vector, scatter_parts

    size = (8 << 20) // k
    blob = rng.randbytes(size)
    reads = _scattered_reads(rng, 1024 // k, size)
    plan = plan_vector(reads)
    batches = [
        (batch, [(r.offset, blob[r.offset : r.end]) for r in batch])
        for batch in plan.batches
    ]

    def scatter():
        out = {}
        for batch, parts in batches:
            out.update(scatter_parts(batch, PartTable.from_parts(parts)))
        return out

    result = scatter()
    _require(
        all(
            result[i] == blob[offset : offset + length]
            for i, (offset, length) in enumerate(reads)
        ),
        "scattered fragments",
    )
    return len(reads), scatter


def _bench_pagecache(rng, k):
    from repro.core.pagecache import PageCache

    page, pages = 4096, 1024
    blob = rng.randbytes(page * pages)
    weights = list(
        itertools.accumulate(1.0 / rank**1.1 for rank in range(1, pages + 1))
    )
    draws = rng.choices(range(pages), cum_weights=weights, k=8000 // k)

    def churn():
        cache = PageCache(budget_bytes=page * pages // 4, page_size=page)
        hits = 0
        for index in draws:
            offset = index * page
            data, _ = cache.lookup("obj", offset, page)
            if data is None:
                cache.insert(
                    "obj", '"v1"', offset, blob[offset : offset + page],
                    total=len(blob),
                )
            else:
                hits += data == blob[offset : offset + page]
        return hits, cache.stats["hits"]

    hits, counted = churn()
    _require(hits == counted and hits > 0, "cached pages equal the source")
    return len(draws), churn


class _IdleSession:
    """The attributes :class:`SessionPool` reads from a session."""

    def __init__(self, origin):
        self.origin = origin
        self.reusable = True
        self.requests_sent = 0
        self.created_at = 0.0
        self.last_released = 0.0

    def discard(self):
        self.reusable = False


def _bench_pool(rng, k):
    from repro.core.pool import SessionPool

    origin = ("http", "127.0.0.1", 80)
    pool = SessionPool()
    pool.release(_IdleSession(origin))
    count = 10000 // k

    def cycle():
        for _ in range(count):
            pool.release(pool.acquire(origin))

    cycle()
    _require(pool.stats().hits == count, "every acquire was a pool hit")
    return count, cycle


def _compressible(rng, size):
    """Half noise, half zeros in 1 KiB blocks (zlib ratio near 0.5)."""
    return b"".join(
        rng.randbytes(1024) if rng.random() < 0.5 else bytes(1024)
        for _ in range(size // 1024)
    )


def _bench_zipfmt(rng, k):
    from repro.rootio.zipfmt import compress_basket, decompress_basket

    payloads = [_compressible(rng, 64 << 10) for _ in range(48 // k)]
    baskets = [compress_basket(payload) for payload in payloads]

    def inflate():
        return [decompress_basket(basket) for basket in baskets]

    _require(inflate() == payloads, "inflate(deflate(basket))")
    return sum(map(len, payloads)) / MB, inflate


def _bench_ntuple(rng, k):
    from repro.rootio.ntuple import PageInfo, decode_page
    from repro.rootio.zipfmt import compress_basket

    payloads = [_compressible(rng, 64 << 10) for _ in range(48 // k)]
    pages = []
    for payload in payloads:
        blob = compress_basket(payload)
        pages.append(
            (
                blob,
                PageInfo(
                    offset=0,
                    nbytes=len(blob),
                    first_entry=0,
                    n_entries=1,
                    uncompressed=len(payload),
                    checksum=zlib.adler32(blob) & 0xFFFFFFFF,
                ),
            )
        )

    def decode():
        return [decode_page(blob, page) for blob, page in pages]

    _require(decode() == payloads, "decoded pages")
    return sum(map(len, payloads)) / MB, decode


def _bench_tree_lookup(rng, k):
    from repro.rootio.generator import generate_tree_layout, paper_dataset

    layout = generate_tree_layout(paper_dataset())
    entries = range(0, 2000 // k)
    branches = layout.branches

    def lookups():
        last = None
        for entry in entries:
            for branch in branches:
                last = branch.basket_for_entry(entry)
        return last

    basket = lookups()
    _require(
        basket.first_entry <= entries[-1] < basket.end_entry,
        "basket covers the entry",
    )
    return len(entries) * len(branches), lookups


def _bench_treecache(rng, k):
    from repro.concurrency import ThreadRuntime
    from repro.rootio.generator import generate_tree_bytes, paper_dataset
    from repro.rootio.treecache import TTreeCache
    from repro.rootio.treefile import LocalFetcher, TreeFileReader

    spec = replace(
        paper_dataset(0.1), n_entries=400 // k, seed=rng.getrandbits(31)
    )
    blob = generate_tree_bytes(spec)
    runtime = ThreadRuntime()

    def scan():
        reader = TreeFileReader(LocalFetcher(blob))
        meta = yield from reader.open()
        cache = TTreeCache(reader, decode=True)
        nbytes = 0
        for entry in range(meta.n_entries):
            records = yield from cache.read_entry(entry)
            nbytes += sum(map(len, records.values()))
        return nbytes

    _require(
        runtime.run(scan()) == spec.n_entries * spec.uncompressed_event_size,
        "decoded record bytes",
    )
    return spec.n_entries, lambda: runtime.run(scan())


def _bench_xrootd_frames(rng, k):
    from repro.xrootd import protocol

    pieces = [rng.randbytes(4096) for _ in range(16)]
    count = 400 // k

    def frames():
        reader = protocol.FrameReader()
        last = None
        for streamid in range(count):
            reader.feed(
                protocol.encode_response(
                    streamid, 0, protocol.encode_readv_reply(pieces)
                )
            )
            _, _, payload = reader.next_frame()
            last = protocol.decode_readv_reply(payload)
        return last

    _require(frames() == pieces, "decode(encode(readv reply))")
    return count, frames


def _storage_app(rng, size):
    from repro.server import ObjectStore, StorageApp

    blob = rng.randbytes(size)
    store = ObjectStore()
    store.put("/data/object.bin", blob)
    return blob, store, StorageApp(store)


def _bench_handlers(rng, k):
    from repro.http import Headers, Request

    blob, _, app = _storage_app(rng, 1 << 20)
    requests = [
        (
            offset,
            Request(
                "GET",
                "/data/object.bin",
                Headers([("Range", f"bytes={offset}-{offset + 4095}")]),
            ),
        )
        for offset, _ in _scattered_reads(rng, 400 // k, len(blob))
    ]

    def handle():
        out = []
        for _, request in requests:
            served = app.handle(request)
            # Small bodies are streamed from the store: drain them, as
            # the connection loop would.
            out.append((served.response.status, b"".join(served.stream)))
        return out

    _require(
        all(
            status == 206 and body == blob[offset : offset + 4096]
            for (offset, _), (status, body) in zip(requests, handle())
        ),
        "single-range responses",
    )
    return len(requests), handle


def _bench_rangeserver(rng, k):
    from repro.http.multipart import decode_byteranges
    from repro.http.ranges import format_range_header
    from repro.server.rangeserver import plan_range_response

    blob, store, _ = _storage_app(rng, 8 << 20)
    obj = store.get("/data/object.bin")
    reads = sorted(_scattered_reads(rng, 256, len(blob)))
    header = format_range_header(_range_specs(reads))
    count = 16 // min(k, 4)

    def respond():
        plan = plan_range_response(obj, header)
        return plan, plan.build_multipart_body(obj)

    plan, body = respond()
    parts = decode_byteranges(body, plan.multipart_boundary)
    _require(
        plan.status == 206
        and all(p.data == blob[p.offset : p.offset + p.length] for p in parts)
        and sum(p.length for p in parts) >= 4096 * len(reads) // 2,
        "multi-range body",
    )
    return count, lambda: [respond() for _ in range(count)]


#: name -> (unit, builder), in the order they run. A builder takes
#: ``(rng, shrink)`` and returns ``(work per call, call)``.
RATES: Dict[str, Tuple[str, Callable]] = {
    "sim.core.events_per_s": ("1/s", _bench_sim_core),
    "net.tcp.transfer_MBps": ("MB/s", _bench_net_tcp),
    "http.codec.parse_MBps": ("MB/s", _bench_codec_parse),
    "http.codec.parse_heads_per_s": ("1/s", _bench_codec_heads),
    "http.codec.serialize_MBps": ("MB/s", _bench_codec_serialize),
    "http.multipart.encode_parts_per_s": ("1/s", _bench_multipart_encode),
    "http.multipart.decode_parts_per_s": ("1/s", _bench_multipart_decode),
    "http.multipart.stream_MBps": ("MB/s", _bench_multipart_stream),
    "http.ranges.format_specs_per_s": ("1/s", _bench_ranges_format),
    "http.ranges.parse_specs_per_s": ("1/s", _bench_ranges_parse),
    "core.vectored.plan_fragments_per_s": ("1/s", _bench_vectored_plan),
    "core.vectored.scatter_fragments_per_s": ("1/s", _bench_vectored_scatter),
    "core.pagecache.ops_per_s": ("1/s", _bench_pagecache),
    "core.pool.acquire_release_per_s": ("1/s", _bench_pool),
    "rootio.zipfmt.inflate_MBps": ("MB/s", _bench_zipfmt),
    "rootio.ntuple.decode_page_MBps": ("MB/s", _bench_ntuple),
    "rootio.tree.basket_lookups_per_s": ("1/s", _bench_tree_lookup),
    "rootio.treecache.entries_per_s": ("1/s", _bench_treecache),
    "xrootd.protocol.frames_per_s": ("1/s", _bench_xrootd_frames),
    "server.handlers.requests_per_s": ("1/s", _bench_handlers),
    "server.rangeserver.multirange_per_s": ("1/s", _bench_rangeserver),
}
RATE_UNITS = {name: unit for name, (unit, _) in RATES.items()}


def isolated_rates(seed: int, smoke: bool = False) -> Dict[str, Tuple[float, int]]:
    """``name -> (rate, samples)`` for every isolated layer rate.

    ``smoke`` divides every input size by eight.
    """
    shrink = 8 if smoke else 1
    out = {}
    for name, (_, bench) in RATES.items():
        work, call = bench(random.Random(f"{seed}:{name}"), shrink)
        start = time.perf_counter()
        call()
        once = time.perf_counter() - start
        rounds = 1 if smoke else max(1, int(MIN_SAMPLE_S / once) + 1)
        samples: List[float] = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            for _ in range(rounds):
                call()
            samples.append(time.perf_counter() - start)
        out[name] = (rounds * work / statistics.median(samples), SAMPLES)
    return out
