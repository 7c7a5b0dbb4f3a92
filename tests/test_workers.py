"""The BLAS thread control of the fork-join helper."""

import numpy as np
import pytest

from omegals import io as oio
from omegals import verify, workers
from omegals.verify import run_index_suite
from omegals.workers import Workers

CONTROL = workers._blas_thread_control()
needs_control = pytest.mark.skipif(CONTROL is None,
                                   reason="NumPy ships no OpenBLAS thread control here")


@pytest.fixture
def caller_threads():
    """Set the caller's BLAS thread count to 3 for the test, then restore
    the count it had before."""
    get, set_ = CONTROL
    before = get()
    set_(3)
    yield 3
    set_(before)


@needs_control
def test_workers_restore_the_callers_thread_count(caller_threads):
    get, _ = CONTROL
    with Workers():
        assert get() == 1
    assert get() == caller_threads
    with pytest.raises(ValueError, match="inside"):
        with Workers():
            assert get() == 1
            raise ValueError("inside")
    assert get() == caller_threads


@needs_control
def test_a_worker_computes_on_one_thread(caller_threads, assert_no_child_left):
    get, _ = CONTROL
    with Workers() as pool:
        pool.fork("thread reporter", lambda: str(get()).encode())
        reports = [pipe.read() for pipe in pool.pipes()]
    assert reports == [b"1"]
    assert get() == caller_threads
    assert_no_child_left()


@needs_control
def test_csv_and_verify_leave_the_callers_thread_count(caller_threads, tmp_path, monkeypatch,
                                                       use_cpus):
    get, _ = CONTROL
    monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
    forks = use_cpus(2)
    table = np.ones((20, 3))
    oio.write_csv(tmp_path / "t.csv", ["a", "b", "c"], np.split(table, 4), [5] * 4)
    assert get() == caller_threads
    with pytest.raises(ValueError):
        oio.write_csv(tmp_path / "t.csv", ["a", "b", "c"], [np.ones((5, 2))] * 4, [5] * 4)
    assert get() == caller_threads
    assert run_index_suite(seed=3, trials=40).passed
    assert get() == caller_threads

    def broken(result, trial, measured):
        raise ValueError(f"trial {trial}")

    monkeypatch.setattr(verify, "_index_check", broken)
    with pytest.raises(ValueError, match="trial 0"):
        run_index_suite(seed=3, trials=40)
    assert get() == caller_threads
    assert len(forks) == 4


def test_without_the_thread_control_csv_stays_in_process(tmp_path, monkeypatch, use_cpus):
    # the blocks of solutions.csv call BLAS, so without a way to pin one
    # thread per process write_csv forks nothing; verify's suites still fork
    monkeypatch.setattr(workers, "_blas_thread_control", lambda: None)
    monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
    forks = use_cpus(2)
    table = np.random.default_rng(24).standard_normal((20, 3))
    path, ref = tmp_path / "one.csv", tmp_path / "savetxt.csv"
    oio.write_csv(path, ["a", "b", "c"], np.split(table, 4), [5] * 4)
    np.savetxt(ref, table, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    assert path.read_bytes() == ref.read_bytes()
    assert forks == []
    assert run_index_suite(seed=3, trials=40).passed
    assert len(forks) == 1
