"""davix-tool: command-line access to HTTP/WebDAV storage.

Mirrors the tool suite the real davix ships (davix-get, davix-put,
davix-ls, ...) as subcommands of one entry point, plus ``serve`` to run
the storage server over a local directory. Works against any server
speaking the implemented HTTP/WebDAV subset (including itself).

Examples::

    davix-tool serve --root /tmp/store --port 8080 &
    davix-tool put  http://127.0.0.1:8080/data/f.bin ./f.bin
    davix-tool ls   http://127.0.0.1:8080/data
    davix-tool get  http://127.0.0.1:8080/data/f.bin ./copy.bin
    davix-tool stat http://127.0.0.1:8080/data/f.bin
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

from repro.concurrency import ThreadRuntime
from repro.core import (
    BreakerConfig,
    DavixClient,
    RequestParams,
    RetryPolicy,
    TransferConfig,
)
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _slo_field(name: str):
    """argparse type of one :class:`~repro.obs.slo.SloPolicy` field:
    the policy's own check decides, and a value it refuses is a usage
    error (exit 2), not a traceback."""

    def parse(text: str) -> float:
        from repro.obs.slo import SloPolicy

        value = float(text)
        try:
            SloPolicy(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = name  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Build the davix-tool argument parser."""
    parser = argparse.ArgumentParser(
        prog="davix-tool",
        description="HTTP/WebDAV data access (davix reproduction)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="operation timeout (s)"
    )
    parser.add_argument(
        "--proxy",
        metavar="URL",
        help="forward proxy for plain-http traffic (e.g. a site cache)",
    )
    parser.add_argument(
        "--inflight",
        type=int,
        metavar="N",
        help="concurrent in-flight batches of one vectored read "
        "(default 1; a multistream download takes its stream count "
        "from get --multistream N)",
    )
    parser.add_argument(
        "--read-ahead",
        action="store_true",
        help="arm the pipelined transfer engine: vectored reads keep "
        "a sliding window of speculative batches in flight",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        metavar="N",
        help="byte budget of the client page cache (0 = disabled, "
        "the default): repeated and overlapping reads of the same "
        "object are served from memory, validated by ETag",
    )
    parser.add_argument(
        "--page-size",
        type=int,
        metavar="N",
        help="page granularity of the client page cache "
        "(default 65536)",
    )
    resilience = parser.add_argument_group(
        "resilience",
        "retry/backoff, deadline and circuit-breaker knobs",
    )
    resilience.add_argument(
        "--max-attempts",
        type=int,
        metavar="N",
        help="total tries per request, first attempt included "
        "(default: 2, the retry immediate)",
    )
    resilience.add_argument(
        "--retry-base",
        type=float,
        default=0.05,
        metavar="S",
        help="backoff base delay in seconds (default: 0.05)",
    )
    resilience.add_argument(
        "--retry-max-delay",
        type=float,
        default=5.0,
        metavar="S",
        help="backoff delay cap in seconds (default: 5)",
    )
    resilience.add_argument(
        "--retry-jitter",
        choices=("decorrelated", "none"),
        default="decorrelated",
        help="backoff jitter mode (default: decorrelated)",
    )
    resilience.add_argument(
        "--retry-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the backoff jitter RNG (default: 0)",
    )
    resilience.add_argument(
        "--deadline",
        type=float,
        metavar="S",
        help="whole-operation time budget in seconds (retries included)",
    )
    resilience.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive failures that open an endpoint's circuit "
        "(default: 5)",
    )
    resilience.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds an open circuit waits before a half-open probe "
        "(default: 30)",
    )
    resilience.add_argument(
        "--no-breaker",
        action="store_true",
        help="disable per-endpoint circuit breaking",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    get = commands.add_parser("get", help="download a resource")
    get.add_argument("url")
    get.add_argument(
        "output", nargs="?", help="output file (default: stdout)"
    )
    get.add_argument(
        "--failover",
        action="store_true",
        help="use Metalink replica fail-over",
    )
    get.add_argument(
        "--multistream",
        type=int,
        metavar="N",
        help="multi-source download with up to N streams",
    )

    vec = commands.add_parser(
        "vec",
        help="vectored read: fetch OFFSET:LENGTH ranges in one pass",
    )
    vec.add_argument("url")
    vec.add_argument(
        "ranges",
        nargs="+",
        metavar="OFFSET:LENGTH",
        help="byte ranges to read, e.g. 0:4096 1048576:4096",
    )
    vec.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="concatenate the fragments into FILE "
        "(default: per-fragment summary on stdout)",
    )

    put = commands.add_parser("put", help="upload a file")
    put.add_argument("url")
    put.add_argument("input", help="local file to upload")

    ls = commands.add_parser("ls", help="list a collection")
    ls.add_argument("url")
    ls.add_argument("-l", "--long", action="store_true")

    stat = commands.add_parser("stat", help="show resource metadata")
    stat.add_argument("url")

    rm = commands.add_parser("rm", help="delete a resource")
    rm.add_argument("url")

    mkdir = commands.add_parser("mkdir", help="create a collection")
    mkdir.add_argument("url")

    metalink = commands.add_parser(
        "metalink", help="show a resource's replica list"
    )
    metalink.add_argument("url")

    copy = commands.add_parser(
        "copy", help="server-side copy (same server or third-party)"
    )
    copy.add_argument("source_url")
    copy.add_argument("destination_url")
    copy.add_argument(
        "--move", action="store_true", help="MOVE instead of COPY"
    )
    copy.add_argument(
        "--streams",
        type=int,
        default=None,
        help="parallel chunk streams for a third-party copy",
    )
    copy.add_argument(
        "--mode",
        choices=("pull", "push"),
        default="pull",
        help="third-party copy mode (default: destination pulls)",
    )

    serve = commands.add_parser(
        "serve", help="run a storage server over a directory"
    )
    serve.add_argument("--root", default=".", help="directory to expose")
    serve.add_argument("--port", type=int, default=8080)

    stats = commands.add_parser(
        "stats",
        help="run requests and render the client metrics registry",
    )
    stats.add_argument(
        "url",
        nargs="?",
        help=(
            "GET this URL and show the resulting metrics "
            "(default: a self-contained simulated-server demo)"
        ),
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit JSON lines instead of tables",
    )
    stats.add_argument(
        "--trace",
        action="store_true",
        help="include the span tree / span records",
    )

    report = commands.add_parser(
        "report",
        help="render a HammerCloud-style summary from a JSONL event log",
    )
    report.add_argument(
        "events",
        help="path to a wide-event JSONL file ('-' for stdin)",
    )
    report.add_argument(
        "--slo-availability",
        type=_slo_field("availability"),
        default=0.99,
        metavar="FRACTION",
        help="availability objective (default: 0.99)",
    )
    report.add_argument(
        "--slo-latency",
        type=_slo_field("latency_threshold"),
        default=0.5,
        metavar="SECONDS",
        help="latency threshold in seconds (default: 0.5)",
    )
    report.add_argument(
        "--slo-latency-objective",
        type=_slo_field("latency_objective"),
        default=0.95,
        metavar="FRACTION",
        help="fraction of requests that must meet it (default: 0.95)",
    )

    trace = commands.add_parser(
        "trace",
        help="analyze collected cluster telemetry: assembled traces, "
        "critical path and byte provenance",
    )
    trace.add_argument(
        "telemetry",
        help="path to a collector JSONL file ('-' for stdin)",
    )
    trace.add_argument(
        "--diff",
        metavar="OTHER",
        help="compare aggregate critical paths against a second "
        "telemetry file instead of summarizing",
    )
    trace.add_argument(
        "--waterfall",
        action="store_true",
        help="also render the span waterfall of every assembled trace",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=3,
        metavar="N",
        help="traces detailed in the summary (default: 3)",
    )

    return parser


def _transfer(args) -> TransferConfig:
    """The TransferConfig the flags describe (defaults where unset)."""
    flags = {
        "max_inflight": args.inflight,
        "page_cache_bytes": args.cache_bytes,
        "page_size": args.page_size,
    }
    return TransferConfig(
        read_ahead=args.read_ahead,
        **{name: value for name, value in flags.items() if value is not None},
    )


def _client(args) -> DavixClient:
    extra = {}
    if getattr(args, "max_attempts", None) is not None:
        extra["retry_policy"] = RetryPolicy(
            max_attempts=args.max_attempts,
            base_delay=args.retry_base,
            max_delay=args.retry_max_delay,
            jitter=args.retry_jitter,
            seed=args.retry_seed,
        )
    params = RequestParams(
        transfer=_transfer(args),
        operation_timeout=args.timeout,
        proxy=getattr(args, "proxy", None),
        deadline=getattr(args, "deadline", None),
        breaker_enabled=not getattr(args, "no_breaker", False),
        **extra,
    )
    breaker = BreakerConfig(
        threshold=getattr(args, "breaker_threshold", 5),
        cooldown=getattr(args, "breaker_cooldown", 30.0),
    )
    return DavixClient(ThreadRuntime(), params=params, breaker=breaker)


def cmd_get(args, out=sys.stdout) -> int:
    client = _client(args)
    if args.multistream:
        params = client.context.params.replace(
            multistream_max_streams=args.multistream
        )
        data = client.get_multistream(args.url, params=params).data
    elif args.failover:
        data = client.get_with_failover(args.url)
    else:
        data = client.get(args.url)
    if args.output:
        pathlib.Path(args.output).write_bytes(data)
        print(f"{len(data)} bytes -> {args.output}", file=out)
    else:
        sys.stdout.buffer.write(data)
    return 0


def _parse_range(text: str):
    try:
        offset_text, length_text = text.split(":", 1)
        offset, length = int(offset_text), int(length_text)
    except ValueError:
        raise SystemExit(
            f"davix-tool vec: bad range {text!r} (want OFFSET:LENGTH)"
        )
    if offset < 0 or length < 0:
        raise SystemExit(
            f"davix-tool vec: negative range {text!r}"
        )
    return offset, length


def cmd_vec(args, out=sys.stdout) -> int:
    reads = [_parse_range(text) for text in args.ranges]
    client = _client(args)
    fragments = client.pread_vec(args.url, reads)
    if args.output:
        pathlib.Path(args.output).write_bytes(b"".join(fragments))
        print(
            f"{sum(len(f) for f in fragments)} bytes "
            f"({len(fragments)} fragments) -> {args.output}",
            file=out,
        )
        return 0
    for (offset, length), data in zip(reads, fragments):
        print(f"{offset}:{length} -> {len(data)} bytes", file=out)
    registry = client.metrics()
    # With --read-ahead the engine's speculative batches replace the
    # demand-path requests, counted under engine.* instead of vector.*.
    trips = int(registry.value("vector.round_trips_total") or 0) + int(
        registry.value("engine.speculative_batches_total") or 0
    )
    ranges = int(registry.value("vector.ranges_total") or 0) + int(
        registry.value("engine.speculative_ranges_total") or 0
    )
    print(f"round trips: {trips}, ranges: {ranges}", file=out)
    return 0


def cmd_put(args, out=sys.stdout) -> int:
    data = pathlib.Path(args.input).read_bytes()
    status = _client(args).put(args.url, data)
    print(f"HTTP {status}: {len(data)} bytes -> {args.url}", file=out)
    return 0


def cmd_ls(args, out=sys.stdout) -> int:
    listing = _client(args).listdir(args.url)
    for name, stat in sorted(listing):
        if args.long:
            kind = "d" if stat.is_directory else "-"
            print(f"{kind} {stat.size:>12d} {name}", file=out)
        else:
            print(name, file=out)
    return 0


def cmd_stat(args, out=sys.stdout) -> int:
    stat = _client(args).stat(args.url)
    kind = "collection" if stat.is_directory else "file"
    print(f"type:  {kind}", file=out)
    print(f"size:  {stat.size}", file=out)
    if stat.etag:
        print(f"etag:  {stat.etag}", file=out)
    if stat.mtime is not None:
        print(f"mtime: {stat.mtime}", file=out)
    return 0


def cmd_rm(args, out=sys.stdout) -> int:
    _client(args).delete(args.url)
    print(f"deleted {args.url}", file=out)
    return 0


def cmd_mkdir(args, out=sys.stdout) -> int:
    _client(args).mkdir(args.url)
    print(f"created {args.url}", file=out)
    return 0


def cmd_metalink(args, out=sys.stdout) -> int:
    metalink = _client(args).get_metalink(args.url)
    entry = metalink.single()
    print(f"name: {entry.name}", file=out)
    if entry.size is not None:
        print(f"size: {entry.size}", file=out)
    for algo, digest in sorted(entry.hashes.items()):
        print(f"hash: {algo}={digest}", file=out)
    for url in entry.ordered_urls():
        print(f"replica[{url.priority}]: {url.url}", file=out)
    return 0


def cmd_copy(args, out=sys.stdout) -> int:
    from repro.http import Url

    client = _client(args)
    source = Url.parse(args.source_url)
    destination = Url.parse(args.destination_url)
    if source.origin == destination.origin:
        # Same server: plain WebDAV COPY/MOVE.
        if args.move:
            client.rename(source, destination)
        else:
            client.copy(source, destination)
        print(f"copied {source} -> {destination}", file=out)
        return 0
    # Cross-server: third-party copy — the storage nodes move the
    # bytes directly while we watch the Perf Marker stream.
    summary = client.third_party_copy(
        source,
        destination,
        mode=args.mode,
        streams=args.streams,
    )
    if args.move:
        client.delete(source)
    print(
        f"third-party copied {source} -> {destination} "
        f"({args.mode}, {summary.bytes_transferred} bytes, "
        f"{len(summary.markers)} markers)",
        file=out,
    )
    return 0


def cmd_serve(args, out=sys.stdout) -> int:
    from repro.server import ObjectStore, StorageApp, real_server

    root = pathlib.Path(args.root)
    store = ObjectStore(clock=time.time)
    loaded = 0
    for path in sorted(root.rglob("*")):
        if path.is_file():
            store.put(
                "/" + str(path.relative_to(root)), path.read_bytes()
            )
            loaded += 1
    app = StorageApp(store)
    with real_server(app, port=args.port) as server:
        print(
            f"serving {loaded} object(s) from {root} on "
            f"http://127.0.0.1:{server.port} (Ctrl-C to stop)",
            file=out,
        )
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            return 0


def _render_stats(client, args, out) -> None:
    """Shared tail of ``stats``: registry (and spans) to ``out``."""
    from repro.obs import (
        assemble_traces,
        metrics_to_json_lines,
        records_to_json_lines,
        render_metrics,
        render_waterfall,
    )
    from repro.obs.collector import encode_span

    registry = client.metrics()
    tracer = client.tracer()
    spans = [
        encode_span(span, tracer.node or "client")
        for span in tracer.finished()
    ]
    if args.json:
        print(metrics_to_json_lines(registry), file=out)
        if args.trace:
            print(records_to_json_lines(spans), file=out)
    else:
        print(render_metrics(registry), file=out)
        pool = client.pool_stats()
        print(
            f"\npool: {pool.hits} hits / {pool.misses} misses "
            f"(hit rate {pool.hit_rate:.1%}), "
            f"{pool.recycled} recycled, {pool.idle} idle",
            file=out,
        )
        if args.trace:
            for tree in assemble_traces(spans):
                print("\n" + render_waterfall(tree), file=out)


def cmd_stats(args, out=sys.stdout) -> int:
    """Observability showcase: drive requests, dump the registry.

    With a URL the GET runs against that live server; without one a
    simulated server is stood up and exercised (GETs plus a vectored
    read), so the full metric surface renders without any setup.
    """
    if args.url:
        client = _client(args)
        data = client.get(args.url)
        if not args.json:
            print(f"GET {args.url}: {len(data)} bytes\n", file=out)
        _render_stats(client, args, out)
        return 0

    from repro.concurrency import SimRuntime
    from repro.core import DavixClient
    from repro.net.profiles import LAN, build_network
    from repro.server import HttpServer, ObjectStore, StorageApp
    from repro.sim import Environment

    env = Environment()
    net = build_network(LAN, env, seed=7)
    server_rt = SimRuntime(net, "server")
    store = ObjectStore(clock=server_rt.now)
    store.put("/demo/obj", b"x" * 262_144)
    HttpServer(server_rt, StorageApp(store), port=80).start()

    client = DavixClient(SimRuntime(net, "client"))
    for _ in range(5):
        client.get("http://server/demo/obj")
    client.pread_vec(
        "http://server/demo/obj", [(0, 64), (1024, 64), (65536, 64)]
    )
    if not args.json:
        print(
            "simulated demo: 5 GETs + 1 vectored read against "
            "http://server/demo/obj\n",
            file=out,
        )
    _render_stats(client, args, out)
    return 0


def _read_records(path: str):
    """The JSONL records at ``path`` (``-`` is stdin); a line that is
    not a JSON object is a typed error, not a traceback."""
    from repro.obs.collector import parse_records

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    try:
        return parse_records(text)
    except ValueError as exc:
        raise ReproError(f"{path}: {exc}") from None


def cmd_report(args, out=sys.stdout) -> int:
    """Render the HammerCloud-style run summary from a JSONL log."""
    from repro.obs.slo import SloPolicy
    from repro.workloads.report import render_report

    records = _read_records(args.events)
    policy = SloPolicy(
        availability=args.slo_availability,
        latency_threshold=args.slo_latency,
        latency_objective=args.slo_latency_objective,
    )
    out.write(render_report(records, policy=policy))
    return 0


def cmd_trace(args, out=sys.stdout) -> int:
    """Analyze a collected telemetry artifact (or diff two of them)."""
    from repro.obs.analyze import (
        assemble_traces,
        render_trace_diff,
        render_trace_summary,
        render_waterfall,
    )

    records = _read_records(args.telemetry)
    if args.diff:
        out.write(
            render_trace_diff(
                records,
                _read_records(args.diff),
                label_a=args.telemetry,
                label_b=args.diff,
            )
        )
        return 0
    out.write(render_trace_summary(records, limit=args.limit))
    if args.waterfall:
        for tree in assemble_traces(records):
            out.write("\n" + render_waterfall(tree))
    return 0


COMMANDS = {
    "get": cmd_get,
    "vec": cmd_vec,
    "put": cmd_put,
    "ls": cmd_ls,
    "stat": cmd_stat,
    "rm": cmd_rm,
    "mkdir": cmd_mkdir,
    "metalink": cmd_metalink,
    "copy": cmd_copy,
    "serve": cmd_serve,
    "stats": cmd_stats,
    "report": cmd_report,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"davix-tool: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"davix-tool: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
