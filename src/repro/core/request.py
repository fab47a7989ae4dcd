"""High-level request execution: pool checkout, redirects, retries.

:func:`execute_request` is the davix engine every file operation goes
through. It acquires a session from the pool (creating one on miss),
follows redirects (a DPM head node redirecting to a disk node is the
normal case in the paper's deployment), transparently retries stale
keep-alive connections, and retries transient failures under the
operative :class:`~repro.resilience.RetryPolicy`.

Three resilience policies meet here:

* **retry/backoff** — one :class:`~repro.resilience.RetrySchedule` per
  logical operation covers connect failures, mid-exchange transport
  errors and retriable (5xx) statuses; backoff delays come from the
  context's seeded jitter RNG, so runs are deterministic;
* **deadline** — ``params.deadline`` becomes a
  :class:`~repro.resilience.Deadline` spanning every attempt, redirect
  and byte read; expiry raises
  :class:`~repro.errors.DeadlineExceeded` and is never retried;
* **circuit breaking** — every attempt consults the context's
  :class:`~repro.resilience.BreakerBoard`; an open breaker
  short-circuits with :class:`~repro.errors.CircuitOpenError` before
  any connection cost, and every outcome feeds the endpoint's breaker.

Mid-exchange failures (the request may have reached the application)
are retried only for idempotent methods — a vectored multi-range GET is
retry-safe, a MOVE is not — unless ``params.retry_non_idempotent``
opts in. Connect failures and stale keep-alive races are always safe.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Tuple

from repro.concurrency import Sleep
from repro.core.context import Context, RequestParams
from repro.core.session import Session, StaleSession, open_session
from repro.errors import (
    CircuitOpenError,
    ConnectError,
    ConnectionClosed,
    DeadlineExceeded,
    HttpParseError,
    HttpProtocolError,
    RedirectLoopError,
    RequestError,
    TransferTimeout,
)
from repro.http import Request, Response, Url
from repro.http.status import is_redirect, is_retriable
from repro.obs.phases import PhaseRecorder
from repro.obs.propagation import format_span_id, format_trace_id
from repro.resilience import Deadline, is_idempotent

__all__ = ["execute_request", "checkout_session"]

#: Errors that mean "this attempt failed, the endpoint may still work".
TRANSIENT_ERRORS = (
    ConnectError,
    ConnectionClosed,
    TransferTimeout,
    HttpParseError,
)


def _target_origin(url: Url, params: RequestParams) -> Tuple:
    """The origin an exchange for ``url`` actually connects to."""
    if params.proxy is not None and url.scheme in ("http", "dav"):
        return ("proxy",) + Url.parse(params.proxy).origin
    return url.origin


def checkout_session(
    context: Context,
    url: Url,
    params: RequestParams,
    parent_span=None,
    deadline: Optional[Deadline] = None,
    breakers=None,
    recorder=None,
):
    """Effect sub-op: a session for ``url`` (pooled or freshly opened).

    With ``params.proxy`` set, the session targets the proxy instead:
    one pooled connection carries traffic for every origin behind it.
    With ``breakers`` given, an open circuit for the origin raises
    :class:`~repro.errors.CircuitOpenError` before any pool or connect
    work; ``deadline`` clamps ``params.tcp_options.connect_timeout``
    on a fresh connect. Fresh connects are timed into
    ``session.connect_seconds`` and counted in
    ``session.connect_total``; pool hits/misses are recorded by the
    pool itself.
    """
    if params.proxy is not None and url.scheme in ("http", "dav"):
        url = Url.parse(params.proxy)
        origin = ("proxy",) + url.origin
    else:
        origin = url.origin
    if breakers is not None and not breakers.allow(origin):
        raise CircuitOpenError(origin)
    if deadline is not None:
        deadline.check()
    session = context.pool.acquire(origin)
    if session is not None:
        if recorder is not None:
            recorder.mark("queue-wait")
        session.metrics = context.metrics
        return session
    tcp_options = params.tcp_options
    if deadline is not None:
        tcp_options = replace(
            tcp_options,
            connect_timeout=deadline.clamp(tcp_options.connect_timeout),
        )
    tls = None
    if url.scheme in ("https", "davs"):
        from repro.concurrency.tlsmodel import TlsPolicy

        tls = params.tls if params.tls is not None else TlsPolicy()
    started = context.clock()
    if recorder is not None:
        recorder.mark("queue-wait")
    session = yield from open_session(
        origin,
        (url.host, url.port),
        now=started,
        tcp_options=tcp_options,
        tls=tls,
        tracer=context.tracer,
        parent=parent_span,
        metrics=context.metrics,
        recorder=recorder,
    )
    context.metrics.counter("session.connect_total").inc()
    context.metrics.histogram("session.connect_seconds").observe(
        context.clock() - started
    )
    return session


def _prepare(
    request: Request,
    url: Url,
    params: RequestParams,
    context: Context,
) -> Request:
    headers = request.headers.copy()
    headers.set("Host", url.netloc)
    headers.setdefault("User-Agent", params.user_agent)
    target = url.target
    if params.proxy is not None and url.scheme in ("http", "dav"):
        target = str(url)  # absolute request-URI towards the proxy
    for name, value in params.extra_headers:
        headers.setdefault(name, value)
    if params.auth_token:
        headers.setdefault(
            "Authorization", f"Bearer {params.auth_token}"
        )
    if not params.keep_alive:
        headers.set("Connection", "close")
    prepared = Request(
        method=request.method,
        target=target,
        headers=headers,
        body=request.body,
        version=request.version,
    )
    if params.s3_credentials is not None:
        from repro.server.s3 import sign_request

        sign_request(
            prepared,
            params.s3_credentials,
            date=f"{context.clock():.6f}",
        )
    return prepared


def _retry_pause(context, schedule, deadline, span, cause):
    """Effect sub-op: claim one retry slot and sleep its backoff.

    Returns True when the caller should retry; False when the attempt
    budget is spent. A backoff that cannot fit in the remaining
    deadline raises :class:`DeadlineExceeded` instead of sleeping.
    """
    delay = schedule.next_delay()
    if delay is None:
        context.metrics.counter("retry.exhausted_total").inc()
        return False
    if deadline is not None and deadline.remaining() <= delay:
        context.metrics.counter("deadline.exceeded_total").inc()
        raise DeadlineExceeded(deadline.budget) from cause
    context.metrics.counter("client.retries_total").inc()
    context.metrics.counter("retry.attempts_total").inc()
    context.metrics.counter("retry.backoff_seconds_total").inc(delay)
    if delay > 0:
        wait_span = span.child(
            "retry-wait",
            attempt=schedule.retries,
            delay=delay,
            cause=type(cause).__name__,
        )
        try:
            yield Sleep(delay)
        finally:
            wait_span.end()
    return True


def execute_request(
    context: Context,
    url: Url,
    request: Request,
    params: Optional[RequestParams] = None,
    sink_factory: Optional[Callable[[Response], Optional[Callable]]] = None,
    idempotent: Optional[bool] = None,
    parent_span=None,
):
    """Effect op: run ``request`` against ``url`` -> (response, final_url).

    ``sink_factory`` is consulted once the response head arrives; if it
    returns a callable, body chunks stream into it instead of being
    buffered (and ``response.body`` stays empty). Error statuses are
    *returned*, not raised — callers map them to their own exceptions.
    ``idempotent`` overrides the method-based retry-safety inference
    (vectored reads pass True explicitly). ``parent_span`` pins the
    ``request`` span's parent explicitly — required by concurrently
    interleaved callers (parallel vectored dispatch), where the
    tracer's implicit stack would cross-nest spans from sibling tasks.
    """
    params = params or context.params
    if idempotent is None:
        idempotent = is_idempotent(request.method)
    policy = params.retry_policy
    schedule = policy.schedule(rng=context.retry_rng(policy))
    deadline = (
        Deadline.after(context.clock, params.deadline)
        if params.deadline is not None
        else None
    )
    breakers = context.breakers if params.breaker_enabled else None
    current = url
    redirects = 0
    started = context.clock()
    span = context.tracer.start(
        "request", parent=parent_span, method=request.method, url=str(url)
    )
    # Created at the same instant as the span, so the phase deltas sum
    # to the span's duration (the last mark lands just before the
    # success return, which is also when the span ends on the sim
    # clock). Marks accumulate across retries and redirects: a backoff
    # sleep is charged to the following attempt's queue-wait.
    recorder = PhaseRecorder(context.clock)

    def finish(response: Response) -> None:
        """Record the per-request telemetry at a terminal response."""
        timings = recorder.timings()
        span.set(status=response.status, timings=timings)
        phases = timings.as_dict()
        for phase, seconds in phases.items():
            context.metrics.histogram(
                "request.phase_seconds", phase=phase
            ).observe(seconds)
        context.events.emit(
            "request",
            side="client",
            ts=started,
            method=request.method,
            url=str(url),
            host=current.host,
            origin=f"{current.host}:{current.port}",
            status=response.status,
            duration=context.clock() - started,
            retries=schedule.retries,
            redirects=redirects,
            trace_id=format_trace_id(span.trace_id),
            span_id=format_span_id(span.span_id),
            **{
                "phase_" + phase.replace("-", "_"): seconds
                for phase, seconds in phases.items()
            },
        )

    try:
        while True:
            context.metrics.counter("client.requests_total").inc()
            acquire_span = span.child("session-acquire")
            try:
                session = yield from checkout_session(
                    context,
                    current,
                    params,
                    parent_span=acquire_span,
                    deadline=deadline,
                    breakers=breakers,
                    recorder=recorder,
                )
            except (CircuitOpenError, DeadlineExceeded):
                # Final: an open breaker fails fast (the fail-over
                # driver moves on without burning the backoff window),
                # a spent budget cannot fund another attempt.
                raise
            except (
                ConnectError,
                ConnectionClosed,
                HttpProtocolError,
            ) as exc:
                # The request never left: always safe to retry.
                if breakers is not None:
                    breakers.record(
                        _target_origin(current, params), ok=False
                    )
                retry = yield from _retry_pause(
                    context, schedule, deadline, span, exc
                )
                if retry:
                    continue
                raise RequestError(f"connect failed: {exc}") from exc
            finally:
                acquire_span.end()

            origin = session.origin
            outgoing = _prepare(request, current, params, context)
            exchange_span = span.child("exchange", host=current.host)
            try:
                response = yield from _session_exchange(
                    session,
                    outgoing,
                    params,
                    sink_factory,
                    exchange_span,
                    deadline,
                    recorder=recorder,
                )
            except StaleSession:
                # The request never reached the application: always
                # retry, without consuming the attempt budget (the
                # classic keep-alive race is the pool's fault, not the
                # endpoint's).
                context.metrics.counter("client.retries_total").inc()
                context.metrics.counter("session.stale_total").inc()
                session.discard()
                continue
            except DeadlineExceeded:
                session.discard()
                context.metrics.counter("deadline.exceeded_total").inc()
                raise
            except TRANSIENT_ERRORS as exc:
                session.discard()
                if breakers is not None:
                    breakers.record(origin, ok=False)
                if not (idempotent or params.retry_non_idempotent):
                    # The exchange died mid-flight: the server may have
                    # executed a non-idempotent operation already.
                    context.metrics.counter(
                        "retry.unsafe_skipped_total"
                    ).inc()
                    raise RequestError(str(exc)) from exc
                retry = yield from _retry_pause(
                    context, schedule, deadline, span, exc
                )
                if retry:
                    continue
                raise RequestError(str(exc)) from exc
            finally:
                exchange_span.end()

            if is_redirect(response.status) and response.headers.get(
                "Location"
            ):
                if breakers is not None:
                    breakers.record(origin, ok=True)
                context.pool.release(session)
                redirects += 1
                context.metrics.counter("client.redirects_followed_total").inc()
                if redirects > params.max_redirects:
                    raise RedirectLoopError(str(url), params.max_redirects)
                current = current.resolve(response.headers.get("Location"))
                continue

            if is_retriable(response.status):
                if breakers is not None:
                    breakers.record(origin, ok=False)
                context.pool.release(session)
                cause = RequestError(
                    f"HTTP {response.status}", status=response.status
                )
                retry = yield from _retry_pause(
                    context, schedule, deadline, span, cause
                )
                if retry:
                    continue
                # Budget spent: hand the error response to the caller
                # (it maps statuses to its own exceptions).
                finish(response)
                return response, current

            if breakers is not None:
                breakers.record(origin, ok=True)
            context.pool.release(session)
            finish(response)
            return response, current
    finally:
        span.end()


def _session_exchange(
    session: Session,
    request: Request,
    params: RequestParams,
    sink_factory,
    span=None,
    deadline: Optional[Deadline] = None,
    recorder=None,
):
    """One exchange on one session, with late sink selection."""
    if sink_factory is None:
        response = yield from session.request(
            request,
            timeout=params.operation_timeout,
            span=span,
            deadline=deadline,
            recorder=recorder,
            propagate=params.trace_propagation,
        )
        return response
    response = yield from session.request(
        request,
        sink_factory=sink_factory,
        timeout=params.operation_timeout,
        span=span,
        deadline=deadline,
        recorder=recorder,
        propagate=params.trace_propagation,
    )
    return response
