"""ROOT-like columnar event I/O: tree files, TTreeCache, generators.

One metadata model (:mod:`repro.rootio.tree`: a tree of branches of
baskets) and one container (:mod:`repro.rootio.treefile`) hold two
on-disk formats:

* **v1 baskets** — branch-major basket blobs behind a JSON index;
* **v2 pages/clusters** (:mod:`repro.rootio.ntuple`) — the same model
  plus stored row clusters, per-page adler32 checksums and per-column
  zlib levels, with the pages laid out cluster-major.

:class:`TreeFileReader` opens either magic and
:func:`~repro.rootio.treefile.read_rows` decodes the rows of both, for
the reader, for :class:`TTreeCache` and for :class:`ClusterScan` (the
cache refilled several clusters at a time, in parallel decode lanes).
"""

from repro._lazy import exports

_EXPORTS = {
    "DavixFetcher": ".fetchers",
    "XrootdFetcher": ".fetchers",
    "BranchSpec": ".generator",
    "DatasetSpec": ".generator",
    "generate_tree_bytes": ".generator",
    "generate_tree_layout": ".generator",
    "generate_ntuple_bytes": ".generator",
    "generate_ntuple_layout": ".generator",
    "paper_dataset": ".generator",
    "BasketInfo": ".tree",
    "BranchMeta": ".tree",
    "TreeMeta": ".tree",
    "TTreeCache": ".treecache",
    "LocalFetcher": ".treefile",
    "TreeFileReader": ".treefile",
    "write_tree_file": ".treefile",
    "write_ntuple_file": ".treefile",
    "compress_basket": ".zipfmt",
    "decompress_basket": ".zipfmt",
    "PageInfo": ".ntuple",
    "ColumnMeta": ".ntuple",
    "ClusterInfo": ".ntuple",
    "NTupleMeta": ".ntuple",
    "ClusterScan": ".treecache",
    "decode_page": ".ntuple",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
