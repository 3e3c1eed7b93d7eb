"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import tempfile

import pytest

from repro.types import SystemConfig


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Hard wall-clock cap for ``@pytest.mark.net`` tests.

    Socket-engine tests fork real processes; a hub bug that swallows the
    deadline would otherwise hang the whole suite.  SIGALRM interrupts the
    test body even when it is blocked in a syscall (select/recv), which a
    soft in-Python timeout cannot do.
    """
    marker = item.get_closest_marker("net")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    timeout = marker.kwargs.get("timeout", 60)

    def on_alarm(signum, frame):
        raise TimeoutError(f"net test exceeded the hard {timeout}s timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: This session's own temp dir (set in ``pytest_configure``).
SESSION_TMP: pathlib.Path | None = None


def pytest_configure(config):
    """Make this session's temp dir the one its runs use.  A UDS run binds
    its listeners in a ``repro-net-*`` directory under the temp dir, so
    pointing this process (and the CLI runs it starts, through ``TMPDIR``)
    here keeps another run on the machine — a concurrent bench, say — out
    of the leak check.  ``/tmp``-short on purpose: a socket path must fit
    in 108 bytes.  The ``tmp_path`` fixtures stay in the system temp dir."""
    global SESSION_TMP
    os.environ.setdefault("PYTEST_DEBUG_TEMPROOT", tempfile.gettempdir())
    SESSION_TMP = pathlib.Path(
        tempfile.mkdtemp(prefix="rt-", dir="/tmp" if os.path.isdir("/tmp") else None)
    )
    tempfile.tempdir = os.environ["TMPDIR"] = str(SESSION_TMP)


def pytest_unconfigure(config):
    shutil.rmtree(SESSION_TMP, ignore_errors=True)


def socket_dirs() -> set[pathlib.Path]:
    """Every hub socket directory this session's runs made."""
    return set(SESSION_TMP.glob("repro-net-*"))


_socket_dirs_before: set[pathlib.Path] = set()


@pytest.fixture(autouse=True)
def _socket_dir_baseline():
    """Note the socket directories that exist before each test: one a
    killed earlier run could not remove is not the current test's leak."""
    global _socket_dirs_before
    _socket_dirs_before = socket_dirs()
    yield


def leaked_socket_dirs() -> list[pathlib.Path]:
    """Socket directories made since the current test started and still there."""
    return sorted(socket_dirs() - _socket_dirs_before)


@pytest.fixture
def config7() -> SystemConfig:
    """n=7, t=1 — the smallest system for the frequency pair (n > 6t)."""
    return SystemConfig(7, 1)


@pytest.fixture
def config13() -> SystemConfig:
    """n=13, t=2 — two tolerated faults under the frequency pair."""
    return SystemConfig(13, 2)


@pytest.fixture
def config4() -> SystemConfig:
    """n=4, t=0 — degenerate fault-free system."""
    return SystemConfig(4, 0)


def kinds_of(result):
    """Set of decision kinds among correct processes of a run."""
    return {d.kind for d in result.correct_decisions.values()}


def steps_of(result):
    """Set of decision steps among correct processes of a run."""
    return {d.step for d in result.correct_decisions.values()}
