import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped: the verify suites
    and the CSV writer fork workers, and each must reap every one."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped "
                f"({f'pid {pid}, now reaped' if pid else 'still running'})")


@pytest.fixture
def use_cpus(monkeypatch):
    """``use_cpus(count)`` makes ``count`` CPUs usable and returns the list
    that records every fork."""
    forks, fork = [], os.fork

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        return forks

    return use


@pytest.fixture
def assert_no_child_left():
    """``assert_no_child_left()`` asserts that this process has no child
    left, reaped or not, at the point where a test calls it."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
