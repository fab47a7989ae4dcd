"""The import graph follows the layer diagram (DESIGN.md §3).

A davix client process must not load numpy, the simulator or the storage
server; a package must export exactly its ``__all__`` whether it does so
lazily (:mod:`repro._lazy`) or eagerly. Every case runs in a subprocess,
because what is under test is the state of ``sys.modules`` in a process
that imported nothing else.
"""

import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).parent.parent)

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]

#: What a client process cannot use, as ``sys.modules`` name prefixes.
FORBIDDEN_IN_A_CLIENT = (
    "numpy",
    "repro.sim",
    "repro.net.tcp",
    "repro.net.network",
    "repro.xrootd",
    "repro.rootio",
    "repro.server.handlers",
    "repro.server.proxy",
    "repro.obs.analyze",
    "repro.obs.collector",
    "repro.obs.export",
)

#: The import block of ``benchmarks/perf/workloads.py``: what every
#: process of the performance benchmark loads before its first unit.
BENCHMARK_IMPORTS = """
from repro.concurrency import SimRuntime, ThreadRuntime
from repro.core.client import DavixClient
from repro.core.context import Context, TransferConfig
from repro.net.profiles import WAN, build_network
from repro.obs import MetricsRegistry
from repro.obs.phases import PHASES
from repro.rootio.fetchers import DavixFetcher
from repro.rootio.generator import (
    generate_tree_bytes, generate_tree_layout, paper_dataset,
)
from repro.rootio.treecache import TTreeCache
from repro.rootio.treefile import LocalFetcher, TreeFileReader
from repro.server import HttpServer, ObjectStore, StorageApp, ZeroContent
from repro.sim import Environment
from repro.workloads import AnalysisConfig, davix_analysis, xrootd_analysis
from repro.xrootd import XrdServer, serve_xrootd
"""

#: ``repro.*`` modules each entry point loads. The count repeats exactly,
#: so this is a ceiling: a new import that raises one must raise it here,
#: in the same diff, where a reviewer sees what a process now pays for.
MODULE_CEILINGS = {
    "import repro.core.client": 49,
    "import repro.cli": 51,
    BENCHMARK_IMPORTS: 81,
}

LOADED = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules"
    " if m == 'numpy' or m == 'repro' or m.startswith('repro.'))\n"
)


def run_python(code):
    """Standard output of ``code`` run by a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(statements):
    return run_python(statements + LOADED + "print('\\n'.join(loaded))").split()


@pytest.mark.parametrize("entry", ["import repro.core.client", "import repro.cli"])
def test_a_client_process_loads_no_numpy_simulator_or_server(entry):
    loaded = loaded_after(entry + "\n")
    assert entry.split()[1] in loaded
    dragged = [
        module
        for module in loaded
        for prefix in FORBIDDEN_IN_A_CLIENT
        if module == prefix or module.startswith(prefix + ".")
    ]
    assert not dragged, f"{entry} dragged in {dragged}"


def test_a_layout_only_simulated_job_never_loads_numpy():
    out = run_python(
        "import sys\n"
        "import repro.rootio\n"
        "from repro.net import WAN\n"
        "from repro.rootio import generate_tree_layout, paper_dataset\n"
        "from repro.workloads import AnalysisConfig, Scenario, run_scenario\n"
        "assert generate_tree_layout(paper_dataset()).file_size > 600e6\n"
        "report = run_scenario(Scenario(profile=WAN, protocol='davix',\n"
        "    spec=paper_dataset(0.02), config=AnalysisConfig()))\n"
        "assert report.bytes_fetched > 0\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out.strip() == "False"


def test_materialising_without_numpy_fails_typed():
    out = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # what an absent package looks like\n"
        "from repro.errors import RootIOError\n"
        "from repro.rootio import (generate_ntuple_bytes, generate_tree_bytes,\n"
        "    generate_tree_layout, paper_dataset)\n"
        "spec = paper_dataset(0.001)\n"
        "assert generate_tree_layout(spec).file_size > 0\n"
        "for materialise in (generate_tree_bytes, generate_ntuple_bytes):\n"
        "    try:\n"
        "        materialise(spec)\n"
        "    except RootIOError as exc:\n"
        "        print(exc)\n"
    )
    assert out.splitlines() == ["materialising a dataset needs numpy"] * 2


@pytest.mark.parametrize("statements", MODULE_CEILINGS, ids=["client", "cli", "benchmark"])
def test_module_count_of_an_entry_point_is_not_above_its_ceiling(statements):
    loaded = [m for m in loaded_after(statements + "\n") if m != "numpy"]
    ceiling = MODULE_CEILINGS[statements]
    assert len(loaded) <= ceiling, (
        f"{len(loaded)} repro modules loaded, ceiling {ceiling}: {loaded}"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_exactly_its_all(package):
    out = run_python(
        "import importlib, threading\n"
        f"pkg = importlib.import_module({package!r})\n"
        "first = pkg.__all__[0]\n"
        "barrier, seen = threading.Barrier(2), []\n"
        "def resolve():\n"
        "    barrier.wait(10)\n"
        "    seen.append(getattr(pkg, first))\n"
        "threads = [threading.Thread(target=resolve) for _ in range(2)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(30)\n"
        "assert len(seen) == 2 and seen[0] is seen[1], seen\n"
        "assert len(set(pkg.__all__)) == len(pkg.__all__)\n"
        "assert set(dir(pkg)) >= set(pkg.__all__)\n"
        "scope = {}\n"
        f"exec('from {package} import *', scope)\n"
        "scope.pop('__builtins__')\n"
        "assert set(scope) == set(pkg.__all__), set(scope) ^ set(pkg.__all__)\n"
        "for name in pkg.__all__:\n"
        "    assert scope[name] is getattr(pkg, name), name\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert repr(package) in out and "no_such_name" in out


def test_every_module_imports_from_a_cold_package_tree():
    """No module leans on a sibling that some package used to load first."""
    out = run_python(
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "names = ['repro'] + [i.name for i in"
        " pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')]:\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module(name)\n"
        "print(len(names))\n"
    )
    # Every module file was walked, not just the packages.
    assert int(out) == len(list(pathlib.Path(SRC, "repro").rglob("*.py")))
