"""The seven workloads of the performance benchmark.

Every workload is a closed loop with one client and one connection: the
caller waits for each reply, as an analysis job or a copy tool does.
A workload makes all of its inputs from the seed it is given; the
program under test (``src/repro``) only ever sees those inputs, through
public calls.

The life cycle the runner drives::

    w = WORKLOADS[name](seed, smoke)
    w.generate()          # build the dataset / object
    w.serve()             # start server and client
    w.prepare(); w.unit() # warm-up units, then timed units
    w.check(unit)         # untimed: did the unit move the right bytes?
    w.close()

Sizes are chosen so that a unit takes 10-300 ms: a 10 s run then holds
tens to hundreds of units and its median is steady on a shared 2-core
box. The README records how each size relates to the paper's job.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.concurrency import SimRuntime, ThreadRuntime
from repro.core.client import DavixClient
from repro.core.context import Context, TransferConfig
from repro.net.profiles import WAN, build_network
from repro.obs import MetricsRegistry
from repro.obs.phases import PHASES
from repro.rootio.fetchers import DavixFetcher
from repro.rootio.generator import (
    generate_tree_bytes,
    generate_tree_layout,
    paper_dataset,
)
from repro.rootio.treecache import TTreeCache
from repro.rootio.treefile import LocalFetcher, TreeFileReader
from repro.server import (
    HttpServer,
    ObjectStore,
    StorageApp,
    ZeroContent,
)
from repro.sim import Environment
from repro.workloads import AnalysisConfig, davix_analysis, xrootd_analysis
from repro.xrootd import XrdServer, serve_xrootd

TREE_PATH = "/dpm/data/hep_events.root"
OBJECT_PATH = "/data/object.bin"
UPLOAD_PATH = "/data/upload.bin"

#: Phases of ``request.phase_seconds`` reported as per-layer metrics.
REPORTED_PHASES = tuple(
    phase for phase in PHASES if phase not in ("tls", "request-write")
)

#: Exact counts read from the workload's metric registry:
#: key -> (metric family, labels).
REGISTRY_COUNTERS = {
    "pool.hits": ("pool.acquire_total", {"outcome": "hit"}),
    "pool.misses": ("pool.acquire_total", {"outcome": "miss"}),
    "engine.hits": ("engine.hits_total", {}),
    "engine.misses": ("engine.misses_total", {}),
    "engine.speculative_bytes": ("engine.speculative_bytes_total", {}),
    "engine.unused_segments": ("engine.unused_segments_total", {}),
    "vector.copy_bytes": ("vector.copy_bytes_total", {}),
    "vector.requested_bytes": ("vector.requested_bytes_total", {}),
    "retries": ("retry.attempts_total", {}),
}

#: Seed-42 references of the three simulated jobs: (sim_s, round_trips,
#: bytes_fetched), measured when this benchmark was written. A unit that
#: disagrees at seed 42 means the model or the protocol changed.
SIM_REFERENCES_SEED_42 = {
    "sim_wan_sync": (24.02106478043672, 21, 70_036_286),
    "sim_wan_readahead": (12.572737020902267, 17, 70_036_286),
    "sim_wan_xrootd": (21.007412394106147, 23, 70_036_286),
}


@dataclass
class Unit:
    """What one timed unit hands back."""

    #: Bytes handed to the caller.
    payload: int
    #: Whatever :meth:`Workload.check` needs to verify the unit.
    result: object
    #: Simulated seconds of the unit (0 on the host-clock workloads).
    sim_s: float = 0.0


def corrupted(unit: Unit) -> Unit:
    """``unit`` with one byte (or one digit) of its result changed: what
    ``run.py --corrupt`` and the harness's own test inject to show that
    the verifier notices."""
    result = unit.result
    if isinstance(result, bytes):
        result = bytes([result[0] ^ 0xFF]) + result[1:]
    elif isinstance(result[1], list):
        reads, chunks = result
        damaged = bytes([chunks[0][0] ^ 0xFF]) + chunks[0][1:]
        result = (reads, [damaged] + chunks[1:])
    else:
        result = (result[0] + 1,) + tuple(result[1:])
    return replace(unit, result=result)


def sub_rng(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose; string seeds hash with
    SHA-512, so the stream does not depend on ``PYTHONHASHSEED``."""
    return random.Random(f"{seed}:{purpose}")


class Workload:
    name = ""
    why = ""
    #: Which clock ``core.request.phase.*_s`` is in.
    phase_clock = "host"
    #: The load model is one closed-loop client; the runner refuses a
    #: workload that asks for more client threads than the box has cores.
    client_threads = 1
    warmup_units = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        #: One registry for the whole workload, so exact counts can be
        #: read from it afterwards.
        self.metrics = MetricsRegistry()

    def generate(self) -> None:
        raise NotImplementedError

    def serve(self) -> None:
        """Start the server and the client (nothing for the simulated
        jobs, whose world is part of every unit)."""

    def prepare(self) -> None:
        """Draw the next unit's inputs (untimed)."""

    def unit(self) -> Unit:
        raise NotImplementedError

    def check(self, unit: Unit) -> bool:
        raise NotImplementedError

    def round_trips(self) -> int:
        """Requests the server has handled so far."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop the server and drop the client's connections."""

    def input_digest(self) -> int:
        """adler32 over the generated inputs (equal seeds, equal digest)."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative exact counts read from public objects."""
        out = {
            key: self.metrics.value(family, **labels) or 0
            for key, (family, labels) in REGISTRY_COUNTERS.items()
        }
        for phase in REPORTED_PHASES:
            histogram = self.metrics.get("request.phase_seconds", phase=phase)
            out[f"phase.{phase}"] = histogram.sum if histogram else 0.0
        return out


# -- simulated clock: the paper's Fig. 4 WAN cell ---------------------------


class SimJob(Workload):
    """The paper's analysis job on the WAN profile, layout-only tree.

    The dataset is the paper's (12 000 events, 700 MB); the job reads
    the first tenth of it (``AnalysisConfig.fraction``), which keeps the
    paper's bytes per event and per request while a unit stays near
    0.2 s of host time.
    """

    phase_clock = "simulated"
    protocol = "davix"
    readahead: Optional[int] = None
    fraction = 0.1

    def generate(self) -> None:
        scale = 0.02 if self.smoke else 1.0
        self.spec = replace(paper_dataset(scale), seed=self.seed)
        self.layout = generate_tree_layout(self.spec)
        self.config = AnalysisConfig(
            fraction=self.fraction, davix_readahead=self.readahead
        )
        self._requests = 0
        self._refills = 0
        self._first = None

    def input_digest(self) -> int:
        digest = 1
        for branch in self.layout.branches:
            for basket in branch.baskets:
                digest = zlib.adler32(
                    b"%d:%d" % (basket.offset, basket.nbytes), digest
                )
        return digest

    def unit(self) -> Unit:
        env = Environment()
        net = build_network(WAN, env, seed=self.seed)
        client_rt = SimRuntime(net, "client")
        server_rt = SimRuntime(net, "server")
        store = ObjectStore(clock=server_rt.now)
        store.put(TREE_PATH, ZeroContent(self.layout.file_size))
        if self.protocol == "davix":
            server = StorageApp(store)
            HttpServer(server_rt, server, port=80).start()
            context = Context(metrics=self.metrics)
            context.clock = client_rt.now
            job = davix_analysis(
                context,
                f"http://server{TREE_PATH}",
                self.config,
                meta=self.layout,
            )
        else:
            server = XrdServer(store)
            serve_xrootd(server_rt, server, port=1094)
            job = xrootd_analysis(
                ("server", 1094), TREE_PATH, self.config, meta=self.layout
            )
        report = client_rt.run(job)
        self._requests += server.requests_handled
        self._refills += report.refills
        return Unit(
            payload=report.bytes_fetched,
            result=(
                report.wall_seconds,
                server.requests_handled,
                report.bytes_fetched,
            ),
            sim_s=report.wall_seconds,
        )

    def check(self, unit: Unit) -> bool:
        # Every unit is the same seeded scenario on a deterministic
        # clock: all of them must agree exactly.
        if self._first is None:
            self._first = unit.result
        if unit.result != self._first:
            return False
        if self.seed == 42 and not self.smoke:
            return unit.result == SIM_REFERENCES_SEED_42[self.name]
        return True

    def round_trips(self) -> int:
        return self._requests

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["treecache.refills"] = self._refills
        return out


class SimWanSync(SimJob):
    name = "sim_wan_sync"
    why = (
        "paper Fig. 4 WAN cell, synchronous davix refills: sim kernel, TCP "
        "model and HTTP body copies carry it; no sockets, no zlib"
    )


class SimWanReadahead(SimJob):
    name = "sim_wan_readahead"
    why = (
        "same job with the 32 MB read-ahead engine: the only workload "
        "where core.engine and MultipartStream do work"
    )
    readahead = 32_000_000


class SimWanXrootd(SimJob):
    name = "sim_wan_xrootd"
    why = (
        "same job over XRootD, the control: shares sim/net/rootio with the "
        "davix jobs but runs no http or core code"
    )
    protocol = "xrootd"


# -- host clock: real loopback sockets ---------------------------------------


class LoopbackWorkload(Workload):
    """A live ``StorageApp`` on 127.0.0.1 and one ``DavixClient``."""

    def serve(self) -> None:
        self.app = StorageApp(self.store)
        self.server = HttpServer(
            ThreadRuntime(), self.app, port=0, host="127.0.0.1"
        ).start()
        self.runtime = ThreadRuntime()
        self.client = DavixClient(
            self.runtime, context=Context(metrics=self.metrics)
        )
        self.base = f"http://127.0.0.1:{self.server.port}"

    def input_digest(self) -> int:
        return zlib.adler32(self.blob)

    def round_trips(self) -> int:
        return self.app.requests_handled

    def close(self) -> None:
        self.server.stop()
        # Dropping the idle sessions closes the sockets, which ends the
        # server's connection threads.
        self.client.context.pool.clear()
        self.client.context.close()


class LoopbackAnalysis(LoopbackWorkload):
    name = "loopback_analysis"
    why = (
        "davix analysis job over real sockets on a materialised tree with "
        "real zlib: rootio and socket receive carry it, sim/net do nothing"
    )
    entries = 2400
    scale = 0.1

    def generate(self) -> None:
        entries = 200 if self.smoke else self.entries
        self.spec = replace(
            paper_dataset(self.scale), n_entries=entries, seed=self.seed
        )
        self.blob = generate_tree_bytes(self.spec)
        self.store = ObjectStore()
        self.store.put(TREE_PATH, self.blob)
        self._refills = 0
        self._bytes_decompressed = 0
        # Reference scan of the same file without any transport.
        digest, fetched, _ = ThreadRuntime().run(
            self._job(LocalFetcher(self.blob))
        )
        self.reference = (digest, fetched)

    @staticmethod
    def _job(fetcher):
        """Effect op: the analysis event loop, decoding every record.

        The adler32 over the records stands in for the analysis: it
        consumes every decoded byte inside the timed region.
        """
        reader = TreeFileReader(fetcher)
        meta = yield from reader.open()
        cache = TTreeCache(
            reader,
            entries_per_cluster=100,
            learn_entries=100,
            decode=True,
            decompress_bandwidth=None,
        )
        digest = 1
        for entry in range(meta.n_entries):
            records = yield from cache.read_entry(entry)
            for record in records.values():
                digest = zlib.adler32(record, digest)
        return digest, fetcher.bytes_fetched, cache.stats

    def unit(self) -> Unit:
        fetcher = DavixFetcher(self.client.context, self.base + TREE_PATH)
        digest, fetched, stats = self.runtime.run(self._job(fetcher))
        self._refills += stats["refills"]
        self._bytes_decompressed += stats["bytes_decompressed"]
        return Unit(payload=fetched, result=(digest, fetched))

    def check(self, unit: Unit) -> bool:
        return unit.result == self.reference

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["treecache.refills"] = self._refills
        out["treecache.bytes_decompressed"] = self._bytes_decompressed
        return out


class ObjectWorkload(LoopbackWorkload):
    """Reads scattered over one random object."""

    object_bytes = 64 << 20
    fragment = 4096
    #: Per-call transfer bundle; None = the client's default (no cache).
    transfer: Optional[TransferConfig] = None

    def generate(self) -> None:
        size = (2 << 20) if self.smoke else self.object_bytes
        self.blob = sub_rng(self.seed, "object").randbytes(size)
        self.store = ObjectStore()
        self.store.put(OBJECT_PATH, self.blob)
        self.rng = sub_rng(self.seed, "offsets")
        self.reads: List[Tuple[int, int]] = []

    def unit(self) -> Unit:
        reads = self.reads
        chunks = self.client.pread_vec(
            self.base + OBJECT_PATH, reads, transfer=self.transfer
        )
        return Unit(
            payload=sum(len(chunk) for chunk in chunks),
            result=(reads, chunks),
        )

    def check(self, unit: Unit) -> bool:
        reads, chunks = unit.result
        blob = self.blob
        return len(chunks) == len(reads) and all(
            chunk == blob[offset : offset + length]
            for (offset, length), chunk in zip(reads, chunks)
        )


class LoopbackVector(ObjectWorkload):
    name = "loopback_vector"
    why = (
        "one pread_vec of 256 scattered 4 KiB fragments, offsets re-drawn "
        "per unit: the smallest-message case, per-fragment cost dominates"
    )
    fragments = 256

    def prepare(self) -> None:
        limit = len(self.blob) - self.fragment
        self.reads = [
            (self.rng.randrange(limit), self.fragment)
            for _ in range(self.fragments)
        ]


class LoopbackCached(ObjectWorkload):
    name = "loopback_cached"
    why = (
        "64 fragments on zipf(1.1)-popular 64 KiB pages with a page cache "
        "of a quarter of the object: probe, partial hit, gap fetch, eviction"
    )
    fragments = 64
    page = 64 << 10
    zipf_s = 1.1
    #: Units that fill the cache before anything is timed.
    warmup_units = 100

    def generate(self) -> None:
        super().generate()
        pages = len(self.blob) // self.page
        # Popularity rank -> page, so the hot pages are scattered.
        self.pages = list(range(pages))
        sub_rng(self.seed, "popularity").shuffle(self.pages)
        self.cum_weights = list(
            itertools.accumulate(
                1.0 / rank**self.zipf_s for rank in range(1, pages + 1)
            )
        )
        self.transfer = TransferConfig(
            page_cache_bytes=len(self.blob) // 4, page_size=self.page
        )
        if self.smoke:
            self.warmup_units = 20

    def prepare(self) -> None:
        pages = self.rng.choices(
            self.pages, cum_weights=self.cum_weights, k=self.fragments
        )
        inside = self.page - self.fragment
        self.reads = [
            (page * self.page + self.rng.randrange(inside), self.fragment)
            for page in pages
        ]

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        cache = self.client.context.page_cache
        if cache is not None:
            for key in (
                "hits",
                "misses",
                "partial_hits",
                "evicted_bytes",
                "origin_bytes_saved",
            ):
                out[f"cache.{key}"] = cache.stats[key]
        return out


class LoopbackBulk(LoopbackWorkload):
    name = "loopback_bulk"
    why = (
        "PUT of a 16 MiB random object then GET of it back: the same codec, "
        "session and server layers used for writes, per-byte cost dominates"
    )
    object_bytes = 16 << 20

    def generate(self) -> None:
        size = (1 << 20) if self.smoke else self.object_bytes
        self.blob = sub_rng(self.seed, "object").randbytes(size)
        self.store = ObjectStore()

    def unit(self) -> Unit:
        url = self.base + UPLOAD_PATH
        self.client.put(url, self.blob)
        body = self.client.get(url)
        return Unit(payload=len(self.blob) + len(body), result=body)

    def check(self, unit: Unit) -> bool:
        return unit.result == self.blob


WORKLOADS = {
    cls.name: cls
    for cls in (
        SimWanSync,
        SimWanReadahead,
        SimWanXrootd,
        LoopbackAnalysis,
        LoopbackVector,
        LoopbackCached,
        LoopbackBulk,
    )
}
