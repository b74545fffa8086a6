"""Checks that apply to every Tier-1 test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves more threads alive than it started with."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads still alive after the test: {leaked}"
