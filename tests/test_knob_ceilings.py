"""Every settable value of the client and server configuration is counted.

Like ``MODULE_CEILINGS`` in ``test_import_graph.py``: a knob is added
only in the diff that also brings the second non-test caller needing it,
and that diff raises the count here, so the growth shows in the diff. A
diff that deletes a knob lowers its count. Moving a knob into a nested
bundle does not lower anything — the nested bundle is counted too.
"""

import dataclasses
import inspect
import pathlib

import repro
from repro.core.context import Context, RequestParams
from repro.core.pool import SessionPool
from repro.core.transfer import TransferConfig
from repro.resilience import BreakerConfig
from repro.rootio import TTreeCache
from repro.server import ServerConfig
from repro.workloads import AnalysisConfig
from repro.xrootd import XrdServerConfig

#: Dataclass fields per bundle, and the parameters of ``Context`` and
#: ``SessionPool``'s ``__init__`` (``self`` not counted) and of
#: ``TTreeCache``'s (``self`` and the reader it caches not counted).
KNOB_CEILINGS = {
    "RequestParams": 15,
    "TransferConfig": 5,
    "ServerConfig": 13,
    "XrdServerConfig": 4,
    "BreakerConfig": 3,
    "Context": 6,
    "SessionPool": 1,
    "AnalysisConfig": 13,
    "TTreeCache": 9,
}


def test_knob_counts_are_pinned():
    bundles = (
        RequestParams, TransferConfig, ServerConfig, XrdServerConfig,
        BreakerConfig, AnalysisConfig,
    )
    counts = {
        bundle.__name__: len(dataclasses.fields(bundle)) for bundle in bundles
    }
    for owner, fixed in ((Context, 1), (SessionPool, 1), (TTreeCache, 2)):
        parameters = inspect.signature(owner.__init__).parameters
        counts[owner.__name__] = len(parameters) - fixed
    assert counts == KNOB_CEILINGS


#: Lines in ``src/repro``'s ``*.py`` files, counted as CI's size step
#: counts them (``wc -l``). A ceiling like the knob counts: a diff that
#: grows the tree raises it here, and a diff that shrinks it lowers it.
SOURCE_LINE_CEILING = 19416


def test_source_line_count_is_not_above_its_ceiling():
    root = pathlib.Path(repro.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))
    assert lines <= SOURCE_LINE_CEILING
