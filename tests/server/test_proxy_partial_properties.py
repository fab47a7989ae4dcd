"""Property tests for the proxy's range-aware partial-hit path.

Two invariants, per the caching-tier design:

* **identity** — any interleaving of full and ranged GETs (with
  concurrent object updates) served through the proxy is
  byte-identical to what the origin would serve (``default_ttl=0`` so
  every serve revalidates — strong consistency mode);
* **no re-fetch** — the spans the origin actually serves never overlap
  bytes already page-cached at the proxy for the current ETag (origin
  fetches are gaps only; the budget is large enough that nothing
  evicts).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams
from repro.errors import HttpProtocolError
from repro.http import parse_range_header, resolve_ranges
from repro.net import LinkSpec, Network
from repro.server import (
    HttpServer,
    ObjectStore,
    ProxyApp,
    StorageApp,
    StoreError,
)
from repro.sim import Environment

from tests.helpers import NO_RETRY

SLOW = settings(
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)

PAGE = 97  # deliberately odd page size: exercises ragged tails


class RecordingApp(StorageApp):
    """Origin that records the byte spans each GET actually serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``(etag, [(offset, length), ...])`` per body-bearing GET.
        self.served = []

    def _handle_get(self, request):
        try:
            obj = self.store.get(request.path)
        except StoreError:
            return super()._handle_get(request)
        if not self._not_modified(request, obj):
            header = request.headers.get("Range")
            if_range = request.headers.get("If-Range")
            if header is not None and (
                if_range is None or if_range.strip() == obj.etag
            ):
                try:
                    spans = resolve_ranges(
                        parse_range_header(header), obj.size
                    )
                except HttpProtocolError:
                    spans = [(0, obj.size)]
            else:
                spans = [(0, obj.size)]
            if spans:
                self.served.append((obj.etag, spans))
        return super()._handle_get(request)


def proxy_world():
    env = Environment()
    net = Network(env, seed=7)
    for host in ("client", "proxy", "origin"):
        net.add_host(host)
    net.set_route(
        "client", "proxy", LinkSpec(latency=0.0005, bandwidth=1e9)
    )
    net.set_route(
        "proxy", "origin", LinkSpec(latency=0.02, bandwidth=1e8)
    )
    store = ObjectStore()
    origin = RecordingApp(store)
    HttpServer(SimRuntime(net, "origin"), origin, port=80).start()
    proxy = ProxyApp(
        cache_bytes=64 << 20, default_ttl=0.0, page_size=PAGE
    )
    HttpServer(SimRuntime(net, "proxy"), proxy, port=3128).start()
    client = DavixClient(
        SimRuntime(net, "client"),
        params=RequestParams(proxy="http://proxy:3128", retry_policy=NO_RETRY),
    )
    return client, proxy, origin, store


def page_bytes_covered(spans, size, page=PAGE):
    """Byte ranges the page store retains from serving ``spans`` —
    mirrors ``PageCache.insert``: only fully covered pages stick."""
    covered = []
    for offset, length in spans:
        end = min(offset + length, size)
        index = -(-offset // page)
        while True:
            start = index * page
            want = min(page, size - start)
            if want <= 0 or start + want > end:
                break
            covered.append((start, want))
            index += 1
    return covered


def overlaps(span, spans):
    offset, length = span
    for a, n in spans:
        if max(offset, a) < min(offset + length, a + n):
            return True
    return False


@SLOW
@given(data=st.data())
def test_interleaved_ranged_gets_match_origin_and_never_refetch(data):
    client, proxy, origin, store = proxy_world()
    size = data.draw(st.integers(min_value=1, max_value=4000), label="size")
    version = 0

    def body(v):
        return bytes((i * 31 + v * 7 + 1) % 256 for i in range(size))

    store.put("/x", body(version))
    url = "http://origin/x"
    #: etag -> byte spans the proxy must now hold (no eviction here).
    shadow = {}

    n_ops = data.draw(st.integers(min_value=1, max_value=15), label="ops")
    for _ in range(n_ops):
        op = data.draw(
            st.sampled_from(["full", "single", "vec", "update"]),
            label="op",
        )
        content = body(version)
        if op == "update":
            version += 1
            store.put("/x", body(version))
        elif op == "full":
            assert client.get(url) == content
        elif op == "single":
            offset = data.draw(st.integers(0, size + 40), label="offset")
            length = data.draw(st.integers(0, size + 40), label="length")
            assert (
                client.pread(url, offset, length)
                == content[offset : offset + length]
            )
        else:
            reads = [
                (o, min(n, size - o))
                for o, n in data.draw(
                    st.lists(
                        st.tuples(
                            st.integers(0, size - 1),
                            st.integers(1, size),
                        ),
                        min_size=1,
                        max_size=6,
                    ),
                    label="reads",
                )
            ]
            assert client.pread_vec(url, reads) == [
                content[o : o + n] for o, n in reads
            ]
        # Replay the origin's served spans against the shadow store:
        # nothing served may overlap bytes already held for that etag.
        for etag, spans in origin.served:
            held = shadow.setdefault(etag, [])
            for span in spans:
                assert not overlaps(span, held), (
                    f"origin re-served {span} already cached for {etag}"
                )
            # Updates keep the object length, so ``size`` is stable.
            held.extend(page_bytes_covered(spans, size))
        origin.served.clear()
