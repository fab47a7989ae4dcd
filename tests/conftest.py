"""Suite-wide Hypothesis policy and server-thread leak guard.

No wall-clock deadline: the suite's clock is simulated, and a property
whose body is quadratic in a drawn size (the entry-lookup scans) runs
past Hypothesis's default 200 ms whenever the host is busy. A test
still sets ``max_examples`` or health checks where it needs to; the
deadline it inherits from here.

A test that starts a server on real sockets stops it: no ``http-*`` or
``xrootd-*`` thread may outlive the test that started it.
"""

import threading

import pytest
from hypothesis import settings

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")

SERVER_THREADS = ("http-", "xrootd-")


@pytest.fixture(autouse=True)
def no_server_thread_outlives_its_test():
    yield
    left = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(SERVER_THREADS)
    ]
    assert not left, f"server threads still running: {left}"
