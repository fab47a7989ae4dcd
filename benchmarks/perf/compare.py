#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A1 A2 ... -- B1 B2 ...``

Each file is what ``run.py --out FILE`` wrote. For every (end-to-end
metric, workload) pair the table shows both medians, both quartile
ranges, the ratio B/A with its base, the metric's bound and a verdict:

``ok``          B's median is within the bound of A's.
``worse``       B's median is worse than A's by more than the bound.
``better``      B's median is better than A's by more than the bound.
``unresolved``  the run-to-run spread of a side is wider than the bound,
                so a difference within it cannot be told from noise --
                unless every run of one side beats every run of the
                other, which resolves it.

Failure shares (failed / attempted units) are compared too: any rise is
``worse``. With the same code on both sides this is the A/A check; with
two commits it is the A/B check. Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple


#: Simulated seconds are a model output: any drift is a change of the
#: model, so their bound is near zero.
SIM_S = {"unit": "s", "better": "lower", "bound": 0.001}


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = statistics.median(values)
    first, third = quartiles(values)
    return (third - first) / median if median else 0.0


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> str:
    """Judge side B against side A for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    if median_a == median_b:
        return "ok"
    # Positive = B is worse, as a share of A.
    change = sign * (median_b - median_a) / abs(median_a or 1.0)
    worse_a = [sign * value for value in a]
    worse_b = [sign * value for value in b]
    if spread(a) > bound or spread(b) > bound:
        if min(worse_b) > max(worse_a) and change > bound:
            return "worse"
        if max(worse_b) < min(worse_a) and change < -bound:
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "ok"


def load(paths: List[str]) -> List[dict]:
    reports = []
    for path in paths:
        with open(path) as handle:
            reports.append(json.load(handle))
    return reports


def compare(side_a: List[dict], side_b: List[dict]) -> List[dict]:
    """One row per (metric, workload), plus one ``fail_ratio`` row per
    workload."""
    rows = []
    workloads = [
        name
        for name in side_a[0]["workloads"]
        if all(name in report["workloads"] for report in side_a + side_b)
    ]
    for workload in workloads:
        runs_a = [report["workloads"][workload] for report in side_a]
        runs_b = [report["workloads"][workload] for report in side_b]
        metrics = dict(runs_a[0]["metrics"])
        if runs_a[0]["detail"]["sim_s"]:
            metrics["sim_s"] = SIM_S
        for metric, declared in metrics.items():
            a = [_value(run, metric) for run in runs_a]
            b = [_value(run, metric) for run in runs_b]
            median_a, median_b = statistics.median(a), statistics.median(b)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": declared["unit"],
                    "a": median_a,
                    "a_quartiles": quartiles(a),
                    "b": median_b,
                    "b_quartiles": quartiles(b),
                    "ratio": median_b / median_a if median_a else float("nan"),
                    "bound": declared["bound"],
                    "verdict": verdict(
                        a, b, declared["better"], declared["bound"]
                    ),
                }
            )
        share_a = _fail_share(runs_a)
        share_b = _fail_share(runs_b)
        rows.append(
            {
                "workload": workload,
                "metric": "fail_ratio",
                "unit": "ratio",
                "a": share_a,
                "a_quartiles": (share_a, share_a),
                "b": share_b,
                "b_quartiles": (share_b, share_b),
                "ratio": float("nan"),
                "bound": 0.0,
                "verdict": "worse" if share_b > share_a else "ok",
            }
        )
    return rows


def _value(run: dict, metric: str) -> float:
    if metric == "sim_s":
        return run["detail"]["sim_s"]
    return run["metrics"][metric]["value"]


def _fail_share(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def render(rows: List[dict], n_a: int, n_b: int) -> str:
    lines = [
        f"A: {n_a} runs   B: {n_b} runs   ratio = median B / median A",
        f"{'workload':<18} {'metric':<13} {'unit':<6} "
        f"{'A median [q1, q3]':<38} {'B median [q1, q3]':<38} "
        f"{'ratio':>7} {'bound':>6}  verdict",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<18} {row['metric']:<13} {row['unit']:<6} "
            f"{_cell(row['a'], row['a_quartiles']):<38} "
            f"{_cell(row['b'], row['b_quartiles']):<38} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.3g}  {row['verdict']}"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    lines.append(
        "  ".join(f"{name}: {count}" for name, count in sorted(counts.items()))
    )
    return "\n".join(lines)


def _cell(median: float, quartile_pair: Tuple[float, float]) -> str:
    return f"{median:.5g} [{quartile_pair[0]:.5g}, {quartile_pair[1]:.5g}]"


def main(argv: List[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1 :])
    rows = compare(side_a, side_b)
    print(render(rows, len(side_a), len(side_b)))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
