"""Every shipped example must run clean end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=180):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "byte-exact" in out
    assert "gone: True" in out


def test_hep_analysis_small_scale():
    out = run_example(
        "hep_analysis.py", "--scale", "0.05", "--fraction", "0.5"
    )
    assert "Execution time of the ROOT analysis job" in out
    assert "CERN <-> CERN" in out
    assert "USA(BNL) <-> CERN" in out


def test_resilient_failover():
    out = run_example("resilient_failover.py")
    assert "3 site(s) down -> fail-over GET ok" in out
    assert "all sites down -> " in out
    assert "multi-stream" in out

