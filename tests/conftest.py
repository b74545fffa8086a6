"""Checks that apply to every Tier-1 test."""

import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves more threads alive than it started with."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads still alive after the test: {leaked}"


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    state = "still running" if pid == 0 else f"pid {pid} ended unreaped (wait status {status})"
    pytest.fail(f"a child process outlived the test: {state}")
