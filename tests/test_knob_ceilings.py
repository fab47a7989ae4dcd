"""Every settable value of the client and server configuration is counted.

Like ``MODULE_CEILINGS`` in ``test_import_graph.py``: a knob is added
only in the diff that also brings the second non-test caller needing it,
and that diff raises the count here, so the growth shows in the diff. A
diff that deletes a knob lowers its count. Moving a knob into a nested
bundle does not lower anything — the nested bundle is counted too.
"""

import dataclasses
import inspect

from repro.core.context import Context, RequestParams
from repro.core.transfer import TransferConfig
from repro.server import ServerConfig

#: Dataclass fields per bundle, and ``Context.__init__``'s parameters
#: (``self`` not counted).
KNOB_CEILINGS = {
    "RequestParams": 23,
    "TransferConfig": 8,
    "ServerConfig": 18,
    "Context": 10,
}


def test_knob_counts_are_pinned():
    counts = {
        bundle.__name__: len(dataclasses.fields(bundle))
        for bundle in (RequestParams, TransferConfig, ServerConfig)
    }
    counts["Context"] = len(inspect.signature(Context.__init__).parameters) - 1
    assert counts == KNOB_CEILINGS
