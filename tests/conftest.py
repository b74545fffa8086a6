"""Checks that apply to every Tier-1 test, and the catalogue runs they share."""

import os
import threading

import pytest

from reclock.cli import catalogue_paths
from reclock.runner import run_many


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


@pytest.fixture(scope="session")
def catalogue_runs(tmp_path_factory):
    """The bundled catalogue run through ``run_many`` in CSV and JSON, once
    serially and once with two workers: ``{jobs: (out_root, summaries)}``.
    Criterion 9 compares the two trees, and each catalogue digest test
    checks one of them, so a session runs the catalogue twice."""
    paths = [str(p) for p in catalogue_paths()]
    runs = {}
    for jobs in (1, 2):
        out_root = tmp_path_factory.mktemp(f"catalogue-jobs{jobs}")
        runs[jobs] = out_root, run_many(paths, str(out_root), ("csv", "json"), jobs)
    return runs
