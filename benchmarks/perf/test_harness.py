"""Checks of the benchmark harness itself (``--smoke`` sizes, < 10 s).

Run with ``python -m pytest benchmarks/perf``; not part of the tier-1
suite. They test the harness, not the program: that the names it emits
are the names ``BENCHMARK.json`` declares, that inputs follow the seed,
that the verifier notices wrong bytes, and that ``compare.py`` judges a
slowdown as one.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
from workloads import WORKLOADS, corrupted  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_cli(*arguments):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def run_workload(name, trace, *extra):
    status, lines, stderr = run_cli(
        "--workload", name, "--seed", "7", "--seconds", "0.3",
        "--trace", str(trace), "--smoke", *extra,
    )
    assert lines, stderr
    detail = json.loads(
        next(line for line in lines if line.startswith("detail: "))[8:]
    )
    return status, json.loads(lines[-1]), detail


def test_declared_names_are_well_formed_and_unique():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_names_equal_declared_names(trace, key):
    status, result, detail = run_workload("loopback_vector", trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    emitted = {n: v["unit"] for n, v in result["metrics"].items()}
    assert emitted == declared
    if trace:
        # Layer self times of a unit sum to the unit's traced duration.
        assert detail["trace_sum_error_max"] < 0.02
        check_trace_file(os.path.join(ROOT, detail["trace_file"]))


def check_trace_file(path):
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    spans = {r["id"]: r for r in records if r["kind"] == "span"}
    (root,) = [s for s in spans.values() if s["parent"] is None]
    assert root["name"] == "workload"
    phases = {s["name"] for s in spans.values() if s["parent"] == root["id"]}
    assert {"generate", "serve", "warmup", "measure"} <= phases
    units = [s for s in spans.values() if s["name"] == "unit"]
    assert units
    for unit in units:
        assert spans[unit["parent"]]["name"] == "measure"
        assert unit["start"] <= unit["end"]
        children = [
            r
            for r in records
            if r["kind"] == "layer" and r["parent"] == unit["id"]
        ]
        total = sum(r["self_s"] for r in children)
        assert total == pytest.approx(unit["end"] - unit["start"], rel=0.05)


def test_control_workload_runs_no_http_or_core_code():
    status, result, _ = run_workload("sim_wan_xrootd", 1)
    assert status == 0
    metrics = {n: v["value"] for n, v in result["metrics"].items()}
    for name, value in metrics.items():
        if name.endswith(".self_s") and name.startswith(("http.", "core.")):
            assert value == 0, name
    assert metrics["xrootd.client.self_s"] > 0
    assert metrics["sim.core.self_s"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(name):
    def inputs(seed):
        workload = WORKLOADS[name](seed, smoke=True)
        workload.generate()
        if hasattr(workload, "rng"):
            workload.prepare()
            return workload.input_digest(), workload.reads
        return workload.input_digest(), None

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_verifier_rejects_a_corrupted_fragment():
    workload = WORKLOADS["loopback_vector"](5, smoke=True)
    workload.generate()
    workload.serve()
    try:
        workload.prepare()
        unit = workload.unit()
        assert workload.check(unit)
        assert not workload.check(corrupted(unit))
    finally:
        workload.close()


def test_corrupted_units_fail_the_command():
    status, result, detail = run_workload("loopback_bulk", 0, "--corrupt")
    assert status == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert detail["fail_ratio"] == 1.0


def report(wall_s):
    return {
        "workloads": {
            "sim_wan_sync": {
                "attempted": 10,
                "failed": 0,
                "detail": {"sim_s": 24.0},
                "metrics": {
                    "wall_s": {
                        "value": wall_s,
                        "unit": "s",
                        "better": "lower",
                        "bound": 0.10,
                    }
                },
            }
        }
    }


def verdicts(side_a, side_b):
    return {
        row["metric"]: row["verdict"] for row in compare.compare(side_a, side_b)
    }


def test_compare_judges_a_slowdown():
    base = [report(1.00), report(1.01), report(0.99)]
    slower = [report(1.20), report(1.21), report(1.19)]
    close = [report(1.02), report(1.03), report(1.01)]
    noisy = [report(0.80), report(1.05), report(1.30)]
    assert verdicts(base, slower)["wall_s"] == "worse"
    assert verdicts(slower, base)["wall_s"] == "better"
    assert verdicts(base, close)["wall_s"] == "ok"
    assert verdicts(base, noisy)["wall_s"] == "unresolved"
    assert verdicts(base, close)["sim_s"] == "ok"
    assert verdicts(base, close)["fail_ratio"] == "ok"
    failing = report(1.0)
    failing["workloads"]["sim_wan_sync"]["failed"] = 1
    assert verdicts(base, [failing])["fail_ratio"] == "worse"


def test_compare_exit_status(tmp_path, capsys):
    paths = {}
    for label, wall in (("a", 1.0), ("b", 1.2), ("c", 1.02)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(report(wall)))
    assert compare.main([str(paths["a"]), "--", str(paths["b"])]) == 1
    assert compare.main([str(paths["a"]), "--", str(paths["c"])]) == 0
    assert "worse" in capsys.readouterr().out
