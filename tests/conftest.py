"""Fixtures shared by every test module."""

import threading
import time

import pytest

_TRANSPORT_THREADS = ("inproc-link-", "tcp-send-", "tcp-recv-")
_LEAK_GRACE_S = 1.0


@pytest.fixture(autouse=True)
def no_leaked_transport_threads():
    """Fail a test that leaves a transport thread it started running.

    Links and receive loops belong to a transport and stop when it is
    closed; one still alive a second after the test means something was
    never closed, or a close that does not stop what it owns.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + _LEAK_GRACE_S
    while True:
        leaked = sorted(
            t.name
            for t in threading.enumerate()
            if t not in before and t.name.startswith(_TRANSPORT_THREADS)
        )
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if leaked:
        pytest.fail(f"transport threads left running: {', '.join(leaked)}")
