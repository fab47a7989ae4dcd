"""A standalone telemetry-collector node.

The cluster's telemetry plane needs somewhere to aggregate when no
storage app is convenient — a dedicated node every client Context and
server app POSTs its batches to. :class:`CollectorApp` is that node:
the request envelope (:mod:`repro.server.envelope`) already ingests
``POST <telemetry_path>`` for any app whose config mounts a collector,
so this app only adds the read side — ``GET <telemetry_path>`` serves
the collected records back as canonical JSONL (the artefact
``davix-tool trace`` consumes), and ``GET <telemetry_path>/stats``
reports ingest counters.

Mounting inside an existing app instead needs no new process::

    collector = TelemetryCollector()
    app = StorageApp(store, ServerConfig(collector=collector))
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.http import Headers, Request, Response, text_response
from repro.obs.collector import (
    TELEMETRY_CONTENT_TYPE,
    TelemetryCollector,
)
from repro.server.envelope import Envelope, ServerConfig

__all__ = ["CollectorApp"]


class CollectorApp(Envelope):
    """Serve one :class:`TelemetryCollector` over HTTP."""

    def __init__(
        self,
        collector: Optional[TelemetryCollector] = None,
        config: Optional[ServerConfig] = None,
    ):
        self.collector = (
            collector if collector is not None else TelemetryCollector()
        )
        config = config or ServerConfig()
        if config.collector is None:
            config = replace(config, collector=self.collector)
        super().__init__(config)

    def route(self, request: Request):
        path = self.config.telemetry_path
        if request.method == "GET" and request.path == path:
            body = self.collector.to_json_lines()
            payload = (body + "\n").encode("utf-8") if body else b""
            return Response(
                200,
                Headers([("Content-Type", TELEMETRY_CONTENT_TYPE)]),
                payload,
            )
        if request.method == "GET" and request.path == f"{path}/stats":
            return text_response(
                200,
                f"records={len(self.collector)}"
                f" batches={self.collector.batches}"
                f" dropped={self.collector.dropped}",
            )
        # POSTs to the telemetry path never reach route() — the
        # envelope ingests them first.
        return Response(404, reason="Not Found")
