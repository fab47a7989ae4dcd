"""ROOT-like columnar event I/O: tree files, TTreeCache, generators.

Two on-disk formats share one fetcher protocol and one read surface:

* **v1 baskets** (:mod:`repro.rootio.treefile`) — branch-major basket
  blobs behind a JSON index, read through
  :class:`TreeFileReader`/:class:`TTreeCache`;
* **v2 pages/clusters** (:mod:`repro.rootio.ntuple`) — RNTuple-style
  cluster-major pages with per-page adler32 checksums and a separable
  footer, read through :class:`NTupleReader`/:class:`ClusterScan`
  with parallel per-cluster decode lanes.
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
    "compress_basket": ".zipfmt",
    "decompress_basket": ".zipfmt",
    "PageInfo": ".ntuple",
    "ColumnMeta": ".ntuple",
    "ClusterInfo": ".ntuple",
    "NTupleMeta": ".ntuple",
    "NTupleReader": ".ntuple",
    "ClusterScan": ".clusterscan",
    "write_ntuple_file": ".ntuple",
    "ntuple_meta_from_json": ".ntuple",
    "decode_page": ".ntuple",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
