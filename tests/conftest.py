"""Checks that hold for every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process running: a study reaps every
    worker process it forks, whether it succeeds or raises.  The CPUs this
    process may run on are restored too: a study pins its workers while
    they step and then restores the CPUs it read, which are a test's own
    when it lets the process see fewer."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            pytest.fail("a child process is still running after the test")
