"""CLI tests against a live localhost server."""

import io

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.server import ObjectStore, StorageApp, real_server


@pytest.fixture()
def live():
    store = ObjectStore()
    app = StorageApp(store)
    with real_server(app) as server:
        yield f"http://127.0.0.1:{server.port}", store, app


def run_cli(argv, out=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    sink = out if out is not None else io.StringIO()
    code = COMMANDS[args.command](args, out=sink)
    return code, sink.getvalue()


def test_put_then_get(live, tmp_path):
    base, store, app = live
    source = tmp_path / "in.bin"
    source.write_bytes(b"cli-payload")
    code, output = run_cli(["put", f"{base}/data/x.bin", str(source)])
    assert code == 0
    assert "HTTP 201" in output
    assert store.read("/data/x.bin") == b"cli-payload"

    target = tmp_path / "out.bin"
    code, output = run_cli(["get", f"{base}/data/x.bin", str(target)])
    assert code == 0
    assert target.read_bytes() == b"cli-payload"


def test_ls_and_stat(live, tmp_path):
    base, store, app = live
    store.put("/dir/a.bin", b"12345")
    store.put("/dir/b.bin", b"1")
    code, output = run_cli(["ls", f"{base}/dir"])
    assert code == 0
    assert output.split() == ["a.bin", "b.bin"]

    code, output = run_cli(["ls", "--long", f"{base}/dir"])
    assert "- " in output and " 5 " in output.replace("    ", " ")

    code, output = run_cli(["stat", f"{base}/dir/a.bin"])
    assert "size:  5" in output
    assert "type:  file" in output


def test_rm_and_mkdir(live):
    base, store, app = live
    store.put("/x", b"gone soon")
    code, _ = run_cli(["rm", f"{base}/x"])
    assert code == 0
    assert not store.exists("/x")

    code, _ = run_cli(["mkdir", f"{base}/newdir"])
    assert code == 0
    assert store.is_collection("/newdir")


def test_metalink_command(live):
    base, store, app = live
    store.put("/f", b"content")
    app.replicas["/f"] = [f"{base}/f", "http://mirror/f"]
    code, output = run_cli(["metalink", f"{base}/f"])
    assert code == 0
    assert "size: 7" in output
    assert "replica[1]:" in output
    assert "http://mirror/f" in output


def test_get_with_failover_flag(live):
    base, store, app = live
    store.put("/f", b"fail-over me")
    app.replicas["/f"] = [f"{base}/f"]
    code, output = run_cli(["get", "--failover", f"{base}/f", "/dev/null"])
    assert code == 0


def test_vec_summary_output(live):
    base, store, app = live
    store.put("/big", bytes(range(256)) * 256)
    code, output = run_cli(
        ["vec", f"{base}/big", "0:16", "1024:32", "4096:8"]
    )
    assert code == 0
    assert "0:16 -> 16 bytes" in output
    assert "1024:32 -> 32 bytes" in output
    assert "4096:8 -> 8 bytes" in output
    assert "round trips: 1" in output


def test_vec_output_file_and_inflight_flags(live, tmp_path):
    base, store, app = live
    payload = bytes(range(256)) * 256
    store.put("/big", payload)
    target = tmp_path / "frags.bin"
    code, output = run_cli(
        [
            "--inflight",
            "2",
            "vec",
            f"{base}/big",
            "0:16",
            "65000:32",
            "-o",
            str(target),
        ]
    )
    assert code == 0
    assert target.read_bytes() == payload[0:16] + payload[65000:65032]
    assert "48 bytes (2 fragments)" in output


def test_vec_read_ahead_flag(live, tmp_path):
    base, store, app = live
    payload = bytes(range(256)) * 256
    store.put("/big", payload)
    target = tmp_path / "ra.bin"
    code, output = run_cli(
        [
            "--inflight",
            "2",
            "--read-ahead",
            "vec",
            f"{base}/big",
            "0:16",
            "65000:32",
            "-o",
            str(target),
        ]
    )
    assert code == 0
    assert target.read_bytes() == payload[0:16] + payload[65000:65032]


def test_vec_rejects_malformed_range(live):
    base, store, app = live
    with pytest.raises(SystemExit):
        run_cli(["vec", f"{base}/big", "banana"])


def test_inflight_flag_sets_transfer_config():
    from repro.cli import _client

    from repro.core import RequestParams, TransferConfig

    args = build_parser().parse_args(["--inflight", "7", "stats"])
    params = _client(args).context.params
    assert params.transfer == TransferConfig(max_inflight=7)
    # --inflight writes only the transfer bundle: the multistream
    # stream count comes from get --multistream N.
    assert params.multistream_max_streams == (
        RequestParams().multistream_max_streams
    )

    args = build_parser().parse_args(
        ["--read-ahead", "--page-size", "4096", "stats"]
    )
    transfer = _client(args).context.params.transfer
    assert transfer == TransferConfig(read_ahead=True, page_size=4096)

    args = build_parser().parse_args(["stats"])
    assert _client(args).context.params.transfer == TransferConfig()


def test_deprecated_parallel_flags_removed():
    """--parallel / --max-inflight finished their deprecation cycle;
    the parser now rejects them outright."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--parallel", "stats"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--max-inflight", "7", "stats"])


def test_main_reports_errors(live, capsys):
    base, store, app = live
    assert main(["stat", f"{base}/missing"]) == 1
    assert "davix-tool:" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_same_server_copy_and_move(live):
    base, store, app = live
    store.put("/a", b"data")
    code, output = run_cli(["copy", f"{base}/a", f"{base}/b"])
    assert code == 0
    assert store.read("/b") == b"data"
    code, output = run_cli(["copy", "--move", f"{base}/b", f"{base}/c"])
    assert code == 0
    assert store.read("/c") == b"data"
    assert not store.exists("/b")


def test_cli_third_party_copy():
    from repro.server import ObjectStore, StorageApp, real_server

    src_store = ObjectStore()
    src_store.put("/payload", b"tpc-bytes")
    with real_server(StorageApp(src_store)) as source:
        with real_server(StorageApp(ObjectStore())) as target:
            target_app = target.app
            code, output = run_cli(
                [
                    "copy",
                    f"http://127.0.0.1:{source.port}/payload",
                    f"http://127.0.0.1:{target.port}/copied",
                ]
            )
            assert code == 0
            assert "third-party" in output
            assert target_app.store.read("/copied") == b"tpc-bytes"


def test_cli_third_party_copy_push_with_streams():
    from repro.server import ObjectStore, StorageApp, real_server

    src_store = ObjectStore()
    src_store.put("/payload", b"push-bytes" * 1000)
    with real_server(StorageApp(src_store)) as source:
        with real_server(StorageApp(ObjectStore())) as target:
            target_app = target.app
            code, output = run_cli(
                [
                    "copy",
                    "--mode",
                    "push",
                    "--streams",
                    "2",
                    f"http://127.0.0.1:{source.port}/payload",
                    f"http://127.0.0.1:{target.port}/copied",
                ]
            )
            assert code == 0
            assert "push" in output
            assert (
                target_app.store.read("/copied") == b"push-bytes" * 1000
            )


def test_cli_get_through_proxy():
    """The --proxy flag routes traffic through a caching proxy."""
    from repro.server import (
        HttpServer,
        ObjectStore,
        ProxyApp,
        StorageApp,
        real_server,
    )
    from repro.concurrency import ThreadRuntime

    origin_store = ObjectStore()
    origin_store.put("/x", b"via-proxy")
    with real_server(StorageApp(origin_store)) as origin:
        proxy_app = ProxyApp()
        runtime = ThreadRuntime()
        proxy = HttpServer(runtime, proxy_app, port=0, host="127.0.0.1")
        proxy.start()
        try:
            code, output = run_cli(
                [
                    "--proxy",
                    f"http://127.0.0.1:{proxy.port}",
                    "get",
                    f"http://127.0.0.1:{origin.port}/x",
                    "/dev/null",
                ]
            )
            assert code == 0
            assert proxy_app.stats["misses"] == 1
        finally:
            proxy.stop()


def trace_artifact(tmp_path, name="trace.jsonl", scale=1.0):
    """A two-node artifact in canonical JSONL, written to disk."""
    import json

    trace = "0" * 24 + "deadbeef"
    records = [
        {"type": "span", "node": "client", "name": "request",
         "trace": trace, "span": "a1", "parent": None,
         "remote": False, "start": 0.0, "end": 1.0 * scale,
         "attrs": {}},
        {"type": "span", "node": "server", "name": "server-request",
         "trace": trace, "span": "b2", "parent": "a1",
         "remote": True, "start": 0.2, "end": 0.8 * scale,
         "attrs": {}},
        {"type": "metrics", "node": "client", "ts": 1.0,
         "series": {
             "provenance.bytes_total{source=network}": 4096,
             "provenance.bytes_total{source=page-cache}": 1024,
         }},
    ]
    path = tmp_path / name
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    )
    return str(path)


def test_cli_trace_summarizes_an_artifact(tmp_path):
    path = trace_artifact(tmp_path)
    code, output = run_cli(["trace", path])
    assert code == 0
    assert (
        "collected 3 records, 1 trace(s) (1 single-tree,"
        " 0 orphan span(s)) from nodes: client, server" in output
    )
    assert "critical path" in output
    assert "byte provenance  total delivered=5120" in output
    assert "server-request" in output
    assert output.endswith("\n")


def test_cli_trace_waterfall_flag_renders_every_tree(tmp_path):
    path = trace_artifact(tmp_path)
    _, plain = run_cli(["trace", path])
    _, with_waterfall = run_cli(["trace", path, "--waterfall"])
    assert with_waterfall.count("server:server-request") >= plain.count(
        "server:server-request"
    )


def test_cli_trace_diff_compares_two_artifacts(tmp_path):
    base = trace_artifact(tmp_path, "a.jsonl", scale=1.0)
    slower = trace_artifact(tmp_path, "b.jsonl", scale=2.0)
    code, output = run_cli(["trace", base, "--diff", slower])
    assert code == 0
    assert "a.jsonl" in output and "b.jsonl" in output
    assert output.endswith("\n")
    # The slowed-down artifact moves the compared buckets.
    assert "request" in output


def report_log(tmp_path):
    """A one-request client event log for ``davix-tool report``."""
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"kind": "request", "side": "client", "origin": "s:80",'
        ' "duration": 0.84, "status": 200}\n'
    )
    return str(path)


def test_report_slo_flags_set_the_policy(tmp_path):
    code, output = run_cli(
        ["report", report_log(tmp_path), "--slo-latency", "0.25",
         "--slo-availability", "1", "--slo-latency-objective", "0.5"]
    )
    assert code == 0
    assert "availability>=100.00%, p50 latency<=0.250000s" in output
    assert "BREACH" in output


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--slo-latency", "nan", "latency_threshold must be finite"),
        ("--slo-latency", "inf", "latency_threshold must be finite"),
        ("--slo-latency", "0", "latency_threshold must be finite"),
        ("--slo-availability", "2", "availability must be in (0, 1]"),
        ("--slo-availability", "0", "availability must be in (0, 1]"),
        ("--slo-latency-objective", "1.5", "latency_objective must be in"),
        ("--slo-latency-objective", "x", "invalid latency_objective value"),
    ],
)
def test_report_rejects_a_bad_slo_flag_with_a_usage_error(
    tmp_path, capsys, flag, value, message
):
    with pytest.raises(SystemExit) as exc:
        main(["report", report_log(tmp_path), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: davix-tool report")
    assert f"argument {flag}: {message}" in err
