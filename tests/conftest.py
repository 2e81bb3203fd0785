import os

import pytest


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(count)`` narrows the affinity mask to ``count`` CPUs (None
    keeps the real one) and returns the list that counts the processes forked
    from then on, emptied; a fork inside a forked process raises instead."""
    parent, fork, forked = os.getpid(), os.fork, []

    def counting():
        if os.getpid() != parent:
            raise AssertionError("a forked part forked again")
        forked.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)

    def set_count(count):
        if count is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        forked.clear()
        return forked

    return set_count
