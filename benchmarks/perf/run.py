#!/usr/bin/env python3
"""The repo's performance benchmark: both clocks, seven workloads.

Two ways to run it, both from the root of the checkout:

``python3 benchmarks/perf/run.py --seed 42``
    Every workload, one subprocess each, a table of every metric by
    name with its unit. ``--trace`` adds the traced run (per-layer self
    time, exact counts), ``--layers`` runs only the isolated layer
    rates, ``--smoke`` shrinks every input, ``--out FILE`` writes the
    numbers as JSON for ``compare.py``.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process; the last line of standard output is
    one JSON object with ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (the end-to-end metrics with ``--trace 0``, the
    per-layer metrics with ``--trace 1``), as ``BENCHMARK.json``
    declares them.

End-to-end metrics are always measured with the profiler off. See
README.md in this directory for what every name means.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import contextlib
import cProfile
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from typing import Dict, List, NamedTuple, NoReturn, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")

#: The process environment every run re-executes itself with.
PINNED_ENV = {
    # Set iteration order must not differ from run to run.
    "PYTHONHASHSEED": "0",
    # glibc moves its mmap and trim thresholds as large blocks are freed,
    # which put runs of the same code in different regimes (10 000 or
    # 18 000 page faults per unit of a simulated job, 25-45 ms of kernel
    # time). Fixed thresholds keep buffers below 32 MiB on a heap that
    # is never trimmed.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str((2 << 30) - 1),
}

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Units timed even when ``--seconds`` has already passed.
MIN_UNITS = 3
#: Share of ``--seconds`` the traced run gives to its untraced and to
#: its profiled units; the isolated rates take a fixed two seconds more.
TRACE_SHARE = 0.4


class Sample(NamedTuple):
    wall: float
    cpu: float
    payload: int
    round_trips: int
    sim_s: float


def fail(message: str) -> NoReturn:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def calibration_loop() -> float:
    """Seconds for a fixed arithmetic + memcpy loop (informational: the
    same loop on another box says how the boxes compare)."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    block = bytes(4 << 20)
    for _ in range(16):
        block = bytes(bytearray(block))
    return time.perf_counter() - start


# -- one workload in this process ---------------------------------------------


def set_up(workload, spans=None, parent=None):
    """generate -> serve -> warm-up; a failed warm-up unit is fatal."""

    def phase(name):
        if spans is None:
            return contextlib.nullcontext()
        return spans.span(name, parent)

    with phase("generate"):
        workload.generate()
    with phase("serve"):
        workload.serve()
    with phase("warmup"):
        for _ in range(workload.warmup_units):
            workload.prepare()
            if not workload.check(workload.unit()):
                fail(f"{workload.name}: warm-up unit returned wrong bytes")


@dataclasses.dataclass
class Measured:
    """What one closed loop gave: timing samples and failure counts."""

    samples: List[Sample] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(workload, seconds: float, corrupt: bool, timed_unit) -> Measured:
    """Closed loop: time units until ``seconds`` have passed.

    ``timed_unit(workload)`` runs one unit and returns it with its wall
    seconds; the traced run passes a version that profiles the unit.
    A unit that raises or moves wrong bytes counts as failed and gives
    no timing sample.
    """
    from workloads import corrupted

    out = Measured()
    deadline = time.perf_counter() + seconds
    while out.attempted < MIN_UNITS or time.perf_counter() < deadline:
        workload.prepare()
        gc.collect()
        requests = workload.round_trips()
        cpu = time.process_time()
        out.attempted += 1
        try:
            unit, wall = timed_unit(workload)
        except Exception:  # a failed operation is a result, not a crash
            traceback.print_exc()
            out.failed += 1
            continue
        cpu = time.process_time() - cpu
        if corrupt:
            unit = corrupted(unit)
        if not workload.check(unit):
            out.failed += 1
            continue
        out.samples.append(
            Sample(
                wall,
                cpu,
                unit.payload,
                workload.round_trips() - requests,
                unit.sim_s,
            )
        )
    return out


def plain_unit(workload):
    start = time.perf_counter()
    unit = workload.unit()
    return unit, time.perf_counter() - start


def end_to_end(workload_cls, args, import_s: float):
    """The untraced run: ``(metrics, measured, detail)``."""
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        start = time.perf_counter()
        workload = workload_cls(args.seed, args.smoke)
        set_up(workload)
        setups.append(time.perf_counter() - start)
    # What set-up built stays for the whole run: keep the collector from
    # walking it before every unit.
    gc.collect()
    gc.freeze()
    measured = measure(workload, args.seconds, args.corrupt, plain_unit)
    digest = workload.input_digest()
    workload.close()
    samples = measured.samples
    walls = [s.wall for s in samples] or [0.0]
    wall_s = statistics.median(walls)
    payload = statistics.median([s.payload for s in samples] or [0])
    metrics = {
        # Imports happen once per process; the rest of set-up is
        # repeated and its median taken.
        "setup_s": import_s + statistics.median(setups),
        "wall_s": wall_s,
        "cpu_s": statistics.median([s.cpu for s in samples] or [0.0]),
        "payload_MBps": payload / 1e6 / wall_s if wall_s else 0.0,
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "round_trips": statistics.fmean(
            [s.round_trips for s in samples] or [0]
        ),
    }
    detail = {
        "units": len(samples),
        "input_digest": digest,
        "import_s": import_s,
        "setup_samples_s": setups,
        "wall_p95_s": percentile(walls, 0.95),
        "wall_p99_s": percentile(walls, 0.99),
        "wall_min_s": min(walls),
        "sim_s": statistics.median([s.sim_s for s in samples] or [0.0]),
        "payload_bytes": payload,
    }
    return metrics, measured, detail


def per_layer(workload_cls, args):
    """The traced run: ``(metrics, measured, detail)``.

    Three parts: untraced units (exact counts from public objects, the
    wall time tracing is compared with), profiled units on a fresh
    world (self time per layer), and the isolated layer rates.
    """
    import layers
    import tracing

    spans = tracing.SpanLog()
    share = args.seconds * TRACE_SHARE
    metrics: Dict[str, float] = {}

    with spans.span("workload", workload=workload_cls.name, seed=args.seed) as root:
        # -- untraced: exact counts ------------------------------------------
        workload = workload_cls(args.seed, args.smoke)
        set_up(workload)
        before = workload.counters()
        untraced = measure(workload, share, args.corrupt, plain_unit)
        after = workload.counters()
        workload.close()
        units = max(1, len(untraced.samples))
        delta = {key: after[key] - before.get(key, 0) for key in after}
        metrics.update(exact_counts(delta, units))
        walls = [s.wall for s in untraced.samples] or [0.0]
        untraced_wall = statistics.median(walls)
        metrics["wall_p95_s"] = percentile(walls, 0.95)
        metrics["wall_p99_s"] = percentile(walls, 0.99)
        metrics["sim_s"] = statistics.median(
            [s.sim_s for s in untraced.samples] or [0.0]
        )

        # -- traced: self time per layer -------------------------------------
        gc.collect()
        others = tracing.OtherThreads()
        others.install()
        workload = workload_cls(args.seed, args.smoke)
        set_up(workload, spans, root)
        warm = tracing.merge([tracing.fold(s) for s in others.stats()])
        client_folds = []
        sum_errors = []

        with spans.span("measure", root) as measure_span:

            def traced_unit(workload):
                profile = cProfile.Profile()
                with spans.span("unit", measure_span) as unit_span:
                    start = time.perf_counter()
                    profile.enable()
                    try:
                        unit = workload.unit()
                    finally:
                        profile.disable()
                    wall = time.perf_counter() - start
                folded = tracing.fold(profile.getstats())
                record_layers(spans, unit_span, "client", folded)
                client_folds.append(folded)
                seen = sum(s for s, _ in folded[0].values()) + sum(
                    folded[1].values()
                )
                sum_errors.append(abs(seen - wall) / wall)
                return unit, wall

            traced = measure(workload, share, args.corrupt, traced_unit)
            # Ending the connections ends the server's threads, which
            # closes the frames their profiles still hold open.
            workload.close()
            others.uninstall()
            others.join()
            server = tracing.subtract(
                tracing.merge([tracing.fold(s) for s in others.stats()]), warm
            )
            record_layers(
                spans, measure_span, "server", server, units=traced.attempted
            )

        traced_units = max(1, len(client_folds))
        metrics.update(
            layer_metrics(
                layers.LAYERS,
                tracing.merge(client_folds),
                server,
                traced_units,
            )
        )
        traced_wall = statistics.median(
            [s.wall for s in traced.samples] or [0.0]
        )
        metrics["trace.overhead_ratio"] = (
            traced_wall / untraced_wall if untraced_wall else 0.0
        )

        # -- isolated rates --------------------------------------------------
        with spans.span("layers", root):
            for name, (rate, _) in layers.isolated_rates(
                args.seed, args.smoke
            ).items():
                metrics[name] = rate
        metrics["host.calib_s"] = calibration_loop()

    os.makedirs(RESULTS, exist_ok=True)
    trace_file = os.path.join(RESULTS, f"trace_{workload_cls.name}.jsonl")
    spans.write(trace_file)

    measured = Measured(
        untraced.samples + traced.samples,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    )
    detail = {
        "units": len(untraced.samples),
        "traced_units": len(traced.samples),
        "trace_file": os.path.relpath(trace_file, ROOT),
        "trace_sum_error_max": max(sum_errors, default=0.0),
        "phase_clock": workload_cls.phase_clock,
        "rate_samples": layers.SAMPLES,
    }
    return metrics, measured, detail


def exact_counts(delta: Dict[str, float], units: int) -> Dict[str, float]:
    """Per-unit exact counts and ratios from cumulative counter deltas."""

    def ratio(hit: float, *others: float) -> float:
        total = hit + sum(others)
        return hit / total if total else 0.0

    def get(key: str) -> float:
        return delta.get(key, 0)

    out = {
        "core.pool.hit_ratio": ratio(get("pool.hits"), get("pool.misses")),
        "core.pagecache.hit_ratio": ratio(
            get("cache.hits"), get("cache.misses"), get("cache.partial_hits")
        ),
        "core.pagecache.evicted_bytes": get("cache.evicted_bytes") / units,
        "core.pagecache.origin_bytes_saved": (
            get("cache.origin_bytes_saved") / units
        ),
        "core.engine.hit_ratio": ratio(
            get("engine.hits"), get("engine.misses")
        ),
        "core.engine.speculative_bytes": (
            get("engine.speculative_bytes") / units
        ),
        "core.engine.unused_segments": get("engine.unused_segments") / units,
        "core.vectored.copy_bytes_ratio": (
            get("vector.copy_bytes") / get("vector.requested_bytes")
            if get("vector.requested_bytes")
            else 0.0
        ),
        "rootio.treecache.refills": get("treecache.refills") / units,
        "rootio.treecache.bytes_decompressed": (
            get("treecache.bytes_decompressed") / units
        ),
        "resilience.retries": get("retries") / units,
    }
    for key, value in delta.items():
        if key.startswith("phase."):
            out[f"core.request.{key}_s"] = value / units
    return out


def record_layers(spans, parent, thread, folded, **attrs) -> None:
    layer_times, waits = folded
    for name, (seconds, calls) in sorted(layer_times.items()):
        spans.layer(parent, thread, name, seconds, int(calls), **attrs)
    for name, seconds in sorted(waits.items()):
        spans.layer(parent, thread, f"os.socket.{name}", seconds, 0, **attrs)


def layer_metrics(layer_names, client, server, units: int) -> Dict[str, float]:
    """Mean self time and calls per unit for every layer, both threads.

    The client thread's waits cover the time the server's threads were
    busy on its behalf; that busy time is reported under the server's
    layers and taken out of ``os.socket.*``, so the layers still sum to
    the unit's duration and ``os.socket.*`` is the time nobody in this
    process was computing.
    """
    import tracing

    both, _ = tracing.merge([client, server])
    out = {}
    for name in layer_names:
        seconds, calls = both.get(name, (0.0, 0))
        out[f"{name}.self_s"] = seconds / units
        if name != "harness":
            out[f"{name}.calls"] = calls / units
    server_busy = sum(seconds for seconds, _ in server[0].values())
    waited = sum(client[1].values())
    keep = max(0.0, 1.0 - server_busy / waited) if waited else 0.0
    for name, seconds in client[1].items():
        out[f"os.socket.{name}_s"] = seconds * keep / units
    return out


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0
    declared = [w["name"] for w in spec["workloads"]]
    if args.workload not in WORKLOADS or args.workload not in declared:
        fail(f"unknown workload {args.workload!r}; have {declared}")
    workload_cls = WORKLOADS[args.workload]
    cores = os.cpu_count() or 1
    if workload_cls.client_threads > cores:
        fail(
            f"{args.workload} wants {workload_cls.client_threads} client "
            f"threads, this box has {cores} cores"
        )

    if args.trace:
        metrics, measured, detail = per_layer(workload_cls, args)
        declared_metrics = spec["per_layer"]
    else:
        metrics, measured, detail = end_to_end(workload_cls, args, import_s)
        declared_metrics = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(units) != set(metrics):
        fail(
            "metric names differ from BENCHMARK.json: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )

    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        fail_ratio=measured.failed / measured.attempted,
    )
    correct = measured.failed == 0 and bool(measured.samples)
    print(
        f"{args.workload}: seed {args.seed}, {len(measured.samples)} units, "
        f"{measured.failed} of {measured.attempted} failed"
    )
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


# -- every workload, one subprocess each --------------------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
    }


def run_child(args, name: str, trace: int) -> dict:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt:
        command.append("--corrupt")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        fail(f"{name} (trace {trace}) exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(
        next(line for line in lines if line.startswith("detail: "))[8:]
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
    return result


def run_all(args, spec: dict) -> int:
    declared = {
        metric["name"]: metric
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    report = {
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        result = run_child(args, name, 0)
        row = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "units": result["detail"]["units"],
            "metrics": result["metrics"],
            "detail": result["detail"],
        }
        if args.trace:
            traced = run_child(args, name, 1)
            row["attempted"] += traced["attempted"]
            row["failed"] += traced["failed"]
            row["layers"] = traced["metrics"]
            row["trace_detail"] = traced["detail"]
        for metric, value in row["metrics"].items():
            value.update(
                better=declared[metric]["better"],
                bound=declared[metric]["bound"],
            )
        report["workloads"][name] = row
        status |= int(row["failed"] > 0)
        print_workload(name, entry["why"], row)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("env: " + json.dumps(report["env"], sort_keys=True))
    return status


def print_workload(name: str, why: str, row: dict) -> None:
    detail = row["detail"]
    print(f"{name}  ({why})")
    print(
        f"  units={row['units']} attempted={row['attempted']} "
        f"failed={row['failed']} fail_ratio="
        f"{row['failed'] / row['attempted']:.4f}"
    )
    for metric, value in row["metrics"].items():
        print(
            f"  {metric:<14} {value['value']:>14.6g} {value['unit']:<6} "
            f"({value['better']} is better, bound {value['bound']})"
        )
    for name in ("wall_p95_s", "wall_p99_s"):
        print(f"  {name:<14} {detail[name]:>14.6g} s      (not gated)")
    if detail["sim_s"]:
        print(
            f"  sim_s          {detail['sim_s']:>14.6g} s      "
            "(simulated clock; identical on every unit)"
        )
    if "layers" in row:
        clock = row["trace_detail"]["phase_clock"]
        print(
            f"  layers: (self time per unit under cProfile; "
            f"core.request.phase.* on the {clock} clock)"
        )
        for metric, value in row["layers"].items():
            if value["value"]:
                print(
                    f"    {metric:<42} {value['value']:>14.6g} "
                    f"{value['unit']}"
                )


def run_layers(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import layers

    print(f"isolated layer rates, seed {args.seed} (host clock, no profiler)")
    for name, (rate, samples) in layers.isolated_rates(
        args.seed, args.smoke
    ).items():
        print(
            f"  {name:<42} {rate:>14.6g} {layers.RATE_UNITS[name]:<5} "
            f"(median of {samples})"
        )
    print(f"  {'host.calib_s':<42} {calibration_loop():>14.6g} s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, here")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, help="measuring time per run"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the numbers as JSON")
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="damage every unit's result before it is verified "
        "(every unit must then fail)",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        fail(f"no src/repro under {ROOT}: nothing to measure")
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            dict(os.environ, **PINNED_ENV),
        )
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])
    if args.workload:
        return run_workload(args, spec)
    if args.layers:
        return run_layers(args)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
