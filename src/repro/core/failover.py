"""Metalink-driven replica fail-over (paper Section 2.4, default mode).

When an operation against the primary URL fails, davix fetches the
resource's Metalink (from ``metalink_url`` or the primary's own
server), filters blacklisted/duplicate replicas, and retries the
operation against each remaining replica in priority order. A read
succeeds as long as *one* replica is reachable.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.context import Context, RequestParams
from repro.core.file import DavFile
from repro.errors import (
    AllReplicasFailed,
    ConnectError,
    ConnectionClosed,
    DavixError,
    DeadlineExceeded,
    FileNotFound,
    HttpProtocolError,
    MetalinkError,
    RequestError,
    TransferTimeout,
)
from repro.http import Url
from repro.metalink import Metalink

__all__ = ["FAILOVER_ERRORS", "resolve_replicas", "with_failover"]

#: Failures that trigger replica fail-over: the resource (or its
#: server) is unavailable *here*, but may exist elsewhere.
FAILOVER_ERRORS = (
    ConnectError,
    ConnectionClosed,
    TransferTimeout,
    RequestError,
    FileNotFound,
)


def resolve_replicas(metalink: Metalink, base: Url) -> List[Url]:
    """Ordered replica URLs from a metalink (invalid entries skipped)."""
    replicas = []
    for entry_url in metalink.single().ordered_urls():
        try:
            replicas.append(base.resolve(entry_url.url))
        except HttpProtocolError:  # an unparsable replica is skipped
            continue
    return replicas


def with_failover(
    context: Context,
    url,
    operation: Callable,
    params: Optional[RequestParams] = None,
    metalink_url=None,
):
    """Effect op: run ``operation(url)`` with Metalink fail-over.

    ``operation`` maps a :class:`Url` to an effect sub-op. The Metalink
    is fetched from ``metalink_url`` (any Metalink endpoint) when given,
    otherwise from the primary URL itself.
    """
    params = params or context.params
    primary = Url.parse(url)
    metrics = context.metrics

    try:
        result = yield from operation(primary)
        return result
    except DeadlineExceeded:
        # A blown time budget is final: trying more replicas can only
        # blow it further.
        raise
    except FAILOVER_ERRORS as exc:
        primary_error = exc

    context.blacklist(primary.origin)
    metrics.counter("failover.triggered_total").inc()
    span = context.tracer.start(
        "failover", url=str(primary), cause=type(primary_error).__name__
    )
    attempts: List[Tuple[str, BaseException]] = [
        (str(primary), primary_error)
    ]

    try:
        try:
            metalink = yield from DavFile(
                context, metalink_url or primary, params
            ).get_metalink()
        except (DavixError, MetalinkError, *FAILOVER_ERRORS):
            # No metalink available: nothing to fail over to.
            raise primary_error from None

        for replica in resolve_replicas(metalink, primary):
            if replica.origin == primary.origin:
                continue  # already failed there
            if context.is_blacklisted(replica.origin):
                metrics.counter("failover.blacklist_skips_total").inc()
                continue
            if (
                params.breaker_enabled
                and context.breakers.is_blocked(replica.origin)
            ):
                # Known-dead endpoint: skip it without paying the
                # connect + retry/backoff cost an attempt would incur.
                metrics.counter("failover.breaker_skips_total").inc()
                attempts.append((str(replica), "circuit open"))
                continue
            metrics.counter(
                "failover.replica_attempts_total", host=replica.host
            ).inc()
            try:
                result = yield from operation(replica)
                metrics.counter("failover.recovered_total").inc()
                span.set(recovered_via=replica.host)
                return result
            except DeadlineExceeded:
                raise
            except FAILOVER_ERRORS as exc:
                context.blacklist(replica.origin)
                attempts.append((str(replica), exc))

        metrics.counter("failover.exhausted_total").inc()
        raise AllReplicasFailed(primary.path, attempts)
    finally:
        span.end(attempts=len(attempts))
