"""Synthetic HEP dataset generation.

The paper's workload: "a High energy analysis job ... reading a fraction
or the totality of around 12000 particles events from a 700 MBytes root
file". This module builds that file two ways:

* :func:`generate_tree_bytes` — a real, byte-exact tree file
  (compressed baskets, readable end-to-end). Used by tests and
  examples at small scale.
* :func:`generate_tree_layout` — only the :class:`TreeMeta` (offsets
  and sizes), statistically matching what the materialised file would
  look like. Used by the benchmarks: the server hosts cheap synthetic
  content of the right size, so a 700 MB dataset costs no RAM, while
  every byte range and request count stays realistic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.errors import RootIOError
from repro.rootio.ntuple import (
    DEFAULT_CLUSTER_ENTRIES,
    DEFAULT_PAGE_BYTES,
    ClusterInfo,
    ColumnMeta,
    NTupleMeta,
    PageInfo,
    write_ntuple_file,
)
from repro.rootio.ntuple import HEADER as NTUPLE_HEADER
from repro.rootio.tree import BasketInfo, BranchMeta, TreeMeta
from repro.rootio.treefile import HEADER, write_tree_file
from repro.rootio.zipfmt import basket_overhead

__all__ = [
    "BranchSpec",
    "DatasetSpec",
    "paper_dataset",
    "generate_tree_bytes",
    "generate_tree_layout",
    "generate_ntuple_bytes",
    "generate_ntuple_layout",
]


@dataclass(frozen=True)
class BranchSpec:
    """One branch's statistical shape."""

    name: str
    #: Uncompressed bytes per event.
    event_size: int
    #: Expected compressed/uncompressed ratio in (0, 1].
    compress_ratio: float = 0.5

    def __post_init__(self):
        if self.event_size < 1:
            raise ValueError("event_size must be >= 1")
        if not 0.0 < self.compress_ratio <= 1.0:
            raise ValueError("compress_ratio must be in (0, 1]")


@dataclass(frozen=True)
class DatasetSpec:
    """A whole synthetic dataset (tree) description."""

    name: str
    n_entries: int
    branches: Tuple[BranchSpec, ...]
    basket_entries: int = 100
    seed: int = 2014

    def __post_init__(self):
        if self.n_entries < 1:
            raise ValueError("n_entries must be >= 1")
        if not self.branches:
            raise ValueError("at least one branch required")

    @property
    def uncompressed_event_size(self) -> int:
        return sum(branch.event_size for branch in self.branches)

    @property
    def approx_compressed_size(self) -> int:
        """Rough compressed file size (what the paper quotes: 700 MB)."""
        total = 0
        for branch in self.branches:
            total += int(
                branch.event_size * self.n_entries * branch.compress_ratio
            )
        return total


def paper_dataset(scale: float = 1.0, n_branches: int = 10) -> DatasetSpec:
    """The paper's dataset: ~12 000 events, ~700 MB compressed.

    ``scale`` shrinks the per-event byte volume (not the event count,
    so request-count-driven effects are preserved at any scale).
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    # 700 MB compressed / 12 000 events / 0.5 ratio ~= 116 KiB/event raw.
    per_branch = max(1, int(11_667 * scale))
    branches = tuple(
        BranchSpec(
            name=f"branch{i:02d}",
            event_size=per_branch,
            compress_ratio=0.5,
        )
        for i in range(n_branches)
    )
    return DatasetSpec(
        name="hep_events",
        n_entries=12_000,
        branches=branches,
        basket_entries=100,
    )


def _branch_payload(spec: BranchSpec, n_entries: int, rng) -> bytes:
    """Event records whose zlib ratio approximates ``compress_ratio``.

    Mix of incompressible (random) and fully compressible (zero) bytes:
    a fraction ``r`` of random bytes compresses to ~r of the original.
    ``rng`` is the numpy generator :func:`_branch_payloads` seeded.
    """
    import numpy as np  # already loaded: the caller made ``rng`` with it

    total = spec.event_size * n_entries
    random_bytes = int(total * spec.compress_ratio)
    payload = np.zeros(total, dtype=np.uint8)
    payload[:random_bytes] = rng.integers(
        0, 256, size=random_bytes, dtype=np.uint8
    )
    # Shuffle deterministically at coarse granularity (per-KiB blocks)
    # so zeros and noise mix and every basket compresses alike. Only
    # the full blocks are permuted; a partial tail stays in place.
    block = 1024
    n_full = total // block
    if n_full > 1:
        head = payload[: n_full * block].reshape(n_full, block)
        payload[: n_full * block] = head[rng.permutation(n_full)].reshape(-1)
    return payload.tobytes()


def _branch_payloads(spec: DatasetSpec) -> Iterator[Tuple[str, bytes]]:
    """Yield ``(name, event records)`` per branch, seeded by ``spec.seed``.

    One branch at a time, in spec order, so a consumer that drops each
    payload before asking for the next holds one branch, not the set.
    numpy loads here and not at the top of the module: only
    materialising needs it, so a layout-only job or a client process
    never imports it.
    """
    try:
        import numpy as np
    except ImportError as exc:
        raise RootIOError("materialising a dataset needs numpy") from exc
    rng = np.random.default_rng(spec.seed)
    for branch in spec.branches:
        yield branch.name, _branch_payload(branch, spec.n_entries, rng)


def generate_tree_bytes(spec: DatasetSpec) -> bytes:
    """Materialise the dataset as a real tree file (bytes).

    Peaks at about twice the file plus one raw branch payload.
    """
    return write_tree_file(
        spec.name,
        _branch_payloads(spec),
        n_entries=spec.n_entries,
        basket_entries=spec.basket_entries,
    )


def generate_ntuple_bytes(
    spec: DatasetSpec,
    cluster_entries: int = DEFAULT_CLUSTER_ENTRIES,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    compression=1,
) -> bytes:
    """Materialise the dataset as a real v2 ntuple file (bytes).

    Uses the same seeded payloads as :func:`generate_tree_bytes`, so
    the decoded columns of both formats are byte-identical — the
    invariant the format-equivalence tests assert.
    """
    return write_ntuple_file(
        spec.name,
        _branch_payloads(spec),
        n_entries=spec.n_entries,
        cluster_entries=cluster_entries,
        page_bytes=page_bytes,
        compression=compression,
    )


def generate_ntuple_layout(
    spec: DatasetSpec,
    cluster_entries: int = DEFAULT_CLUSTER_ENTRIES,
    page_bytes: int = DEFAULT_PAGE_BYTES,
) -> NTupleMeta:
    """Build only the v2 metadata a materialised file would have.

    Cluster-major page layout with the same +-10 % compressed-size
    jitter model as :func:`generate_tree_layout`; checksums are zero
    (layout-only runs never decode).
    """
    rng = random.Random(spec.seed)
    cursor = NTUPLE_HEADER.size
    overhead = basket_overhead()
    columns = {
        branch_spec.name: ColumnMeta(
            name=branch_spec.name, event_size=branch_spec.event_size
        )
        for branch_spec in spec.branches
    }
    clusters: List[ClusterInfo] = []
    for first in range(0, spec.n_entries, cluster_entries):
        count = min(cluster_entries, spec.n_entries - first)
        clusters.append(ClusterInfo(first_entry=first, n_entries=count))
        for branch_spec in spec.branches:
            column = columns[branch_spec.name]
            page_entries = max(1, page_bytes // branch_spec.event_size)
            for page_first in range(first, first + count, page_entries):
                page_count = min(
                    page_entries, first + count - page_first
                )
                uncompressed = page_count * branch_spec.event_size
                jitter = rng.uniform(0.9, 1.1)
                nbytes = overhead + max(
                    8,
                    int(
                        uncompressed
                        * branch_spec.compress_ratio
                        * jitter
                    ),
                )
                column.pages.append(
                    PageInfo(
                        offset=cursor,
                        nbytes=nbytes,
                        first_entry=page_first,
                        n_entries=page_count,
                        uncompressed=uncompressed,
                        checksum=0,
                    )
                )
                cursor += nbytes
    meta = NTupleMeta(
        name=spec.name,
        n_entries=spec.n_entries,
        cluster_list=clusters,
        columns=[columns[b.name] for b in spec.branches],
        file_size=cursor,
    )
    meta.validate()
    return meta


def generate_tree_layout(spec: DatasetSpec) -> TreeMeta:
    """Build only the metadata a materialised file would have.

    Compressed basket sizes are drawn around
    ``event_size * n * compress_ratio`` with +-10 % jitter, laid out
    contiguously after the header — statistically faithful without
    generating a single payload byte.
    """
    rng = random.Random(spec.seed)
    cursor = HEADER.size
    branches: List[BranchMeta] = []
    overhead = basket_overhead()
    for branch_spec in spec.branches:
        branch = BranchMeta(
            name=branch_spec.name, event_size=branch_spec.event_size
        )
        for first in range(0, spec.n_entries, spec.basket_entries):
            count = min(spec.basket_entries, spec.n_entries - first)
            uncompressed = count * branch_spec.event_size
            jitter = rng.uniform(0.9, 1.1)
            nbytes = overhead + max(
                16, int(uncompressed * branch_spec.compress_ratio * jitter)
            )
            branch.baskets.append(
                BasketInfo(
                    offset=cursor,
                    nbytes=nbytes,
                    first_entry=first,
                    n_entries=count,
                    uncompressed=uncompressed,
                )
            )
            cursor += nbytes
        branches.append(branch)
    meta = TreeMeta(
        name=spec.name,
        n_entries=spec.n_entries,
        branches=branches,
        file_size=cursor,
    )
    meta.validate()
    return meta
