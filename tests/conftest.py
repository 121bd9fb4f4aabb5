"""Fixtures shared by every test module."""

import multiprocessing
import threading
import time

import pytest

from pipesgd.engine import runtime

_TRANSPORT_THREADS = ("tcp-recv-", "rank-")
_LEAK_GRACE_S = 1.0


@pytest.fixture(autouse=True)
def no_leaked_transport_threads():
    """Fail a test that leaves a transport or rank thread it started running.

    Receive loops belong to a transport and stop when it is closed, and
    ``run_inproc`` joins its rank threads; one still alive a second after
    the test means something was never closed, or a close that does not
    stop what it owns.
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


@pytest.fixture(autouse=True)
def no_leaked_rank_processes():
    """Fail a test that leaves a forked rank running.

    A launcher joins every child it forks, or kills it; a child still
    alive a second after the test outlived the launcher that owned it.
    """
    yield
    deadline = time.monotonic() + _LEAK_GRACE_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.kill()
        child.join(timeout=5)
    if leaked:
        pytest.fail(f"rank processes left running: {', '.join(map(str, leaked))}")


@pytest.fixture
def force_plan(monkeypatch):
    """Make ``runtime.plan`` give the pipelined schedule a complete plan.

    The barrier baseline keeps the plan it would get, so its fences
    still fall around one whole-model unit.  Forked tcp ranks inherit the
    patch.
    """
    planned = runtime.plan

    def force(units):
        def forced(config, latency):
            return list(units) if config.pattern == "pipelined" else planned(config, latency)

        monkeypatch.setattr(runtime, "plan", forced)

    return force
