"""Smoke coverage for the randomized suites at reduced trial counts; the
acceptance module runs them at full scale."""

import dataclasses
import hashlib
import os
import pickle
import signal

import numpy as np
import pytest

from omegals import verify
from omegals.decomposition import tridiagonal_block_decomposition
from omegals.sampling import random_hermitian_invertible, random_subspace
from omegals.verify import (
    MIN_CHUNK_TRIALS,
    SUITES,
    SuiteResult,
    run_convexity_suite,
    run_index_suite,
    run_main_theorem_suite,
    run_manifolds_suite,
    run_nullspace_suite,
    run_suites,
)


def test_index_suite_small():
    res = run_index_suite(seed=3, trials=40)
    assert res.passed, res.failures[:5]
    assert res.checks == 9 * 40


def test_main_theorem_suite_small():
    res = run_main_theorem_suite(seed=4, trials=25)
    assert res.passed, res.failures[:5]


def test_convexity_suite_small():
    res = run_convexity_suite(seed=5, trials=8)
    assert res.passed, res.failures[:5]


def test_main_theorem_suite_default_trials_seed_82():
    # one trial of this seed exceeds the 1e-10 membership tolerance when the
    # Gram matrix is formed on A V, which squares its condition number
    res = run_main_theorem_suite(seed=82)
    assert res.passed, res.failures[:5]


def test_convexity_suite_default_trials_seed_88():
    res = run_convexity_suite(seed=88)
    assert res.passed, res.failures[:5]


def test_nullspace_suite_small():
    res = run_nullspace_suite(seed=6, trials=10)
    assert res.passed, res.failures[:5]
    assert res.checks == 160


def test_nullspace_suite_default_trials_seed_304():
    # trial 48 has cond(BB*) = 7.3e7: predicting N2 through the normal
    # equations BB* missed the 1e-10 tolerance there (2.35e-10)
    res = run_nullspace_suite(seed=304)
    assert res.passed, res.failures[:5]


def test_nullspace_check_catches_a_perturbed_n2(monkeypatch):
    rng = np.random.default_rng(9)
    dec = tridiagonal_block_decomposition(random_hermitian_invertible(rng, 9, False),
                                          random_subspace(rng, 9, 4, False))
    ns = dec.Hstar_nullspace
    nudge = rng.standard_normal(ns.N2.shape)
    bad = dataclasses.replace(ns, N2=ns.N2 + 1e-8 * nudge / np.linalg.norm(nudge))
    result = SuiteResult("nullspace")
    verify._nullspace_identities(result, dec, "exact")
    assert result.passed, result.failures
    monkeypatch.setattr(type(dec), "Hstar_nullspace", property(lambda _: bad))
    verify._nullspace_identities(result, dec, "perturbed")
    assert result.failures == ["perturbed: N2 != -(BB*)^-1 B T N1"]


def test_manifolds_suite_small():
    res = run_manifolds_suite(seed=7, trials=12)
    assert res.passed, res.failures[:5]


def test_run_suites_dispatch():
    results = run_suites(["index", "manifolds"], seed=0, trials=5)
    assert [r.name for r in results] == ["index", "manifolds"]
    assert all(r.passed for r in results)


def test_run_suites_without_trials_keeps_the_runner_default():
    [res] = run_suites(["nullspace"], seed=0)
    assert res.trials == 60 and res.passed, res.failures[:5]


def test_summary_format():
    res = run_index_suite(seed=1, trials=3)
    line = res.summary()
    assert line.startswith("[index] PASS") and "3 trials" in line


# -- the chunked runner ---------------------------------------------------


def _chunked(name, seed, trials):
    """A suite's draw and check steps through the chunked runner."""
    steps = f"_{name.replace('-', '_')}"
    return verify._run_trials(name, getattr(verify, f"{steps}_draw"),
                              getattr(verify, f"{steps}_check"), seed, trials)


@pytest.mark.parametrize("name, seed, trials", [
    ("index", 3, 45), ("main-theorem", 27, 30), ("convexity", 5, 24),
    ("nullspace", 6, 30), ("manifolds", 7, 45)])
def test_chunked_run_matches_one_process(use_cpus, assert_no_child_left, name, seed, trials):
    assert use_cpus(1) == []
    one = SUITES[name](seed=seed, trials=trials)
    forks = use_cpus(3)
    chunked = _chunked(name, seed, trials)
    assert len(forks) == 2
    assert (chunked.trials, chunked.checks, chunked.failures) == (one.trials, one.checks,
                                                                  one.failures)
    assert_no_child_left()
    if name == "main-theorem":
        # the one failing trial of seed 27 lies in the second chunk
        assert chunked.failures == ["trial 14: membership residual 1.472e-10 > 1e-10"]


@pytest.mark.parametrize("name", list(SUITES))
def test_every_chunk_draws_the_instances_of_one_process(monkeypatch, use_cpus, name):
    # each trial reports a digest of its draws as a failure, so the merged
    # failures list every instance in trial order
    def report(result, trial, drawn):
        result.check(False, f"{trial} {hashlib.sha256(pickle.dumps(drawn)).hexdigest()}")

    monkeypatch.setattr(verify, f"_{name.replace('-', '_')}_check", report)
    use_cpus(1)
    one = SUITES[name](seed=11, trials=24)
    forks = use_cpus(3)
    chunked = _chunked(name, seed=11, trials=24)
    assert len(forks) == 2 and len(set(one.failures)) == 24
    assert chunked.failures == one.failures


def test_every_suite_but_main_theorem_forks(use_cpus, assert_no_child_left):
    # main-theorem's n = 40 instances run threaded BLAS kernels, which
    # contend across processes
    forks = use_cpus(3)
    for name, suite in SUITES.items():
        del forks[:]
        assert suite(seed=1, trials=24).trials == 24
        assert len(forks) == (0 if name == "main-theorem" else 2), name
    assert_no_child_left()


def test_one_cpu_runs_in_process(use_cpus):
    forks = use_cpus(1)
    res = run_index_suite(seed=3, trials=40)
    assert forks == []
    assert res.passed and res.checks == 9 * 40


def test_without_fork_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork")
    res = run_manifolds_suite(seed=7, trials=30)
    assert res.trials == 30 and res.passed


def test_too_few_trials_run_in_process(use_cpus):
    forks = use_cpus(2)
    run_index_suite(seed=3, trials=2 * MIN_CHUNK_TRIALS - 1)
    assert forks == []
    run_index_suite(seed=3, trials=2 * MIN_CHUNK_TRIALS)
    assert len(forks) == 1


def _before_index_check(monkeypatch, before):
    """Call ``before(trial)`` ahead of each check of the index suite."""
    check = verify._index_check

    def patched(result, trial, drawn):
        before(trial)
        check(result, trial, drawn)

    monkeypatch.setattr(verify, "_index_check", patched)


@pytest.mark.parametrize("trial", [5, 25], ids=["in-process chunk", "worker chunk"])
def test_exception_reraises_with_type_and_message(monkeypatch, use_cpus, assert_no_child_left,
                                                  trial):
    def fail(t):
        if t == trial:
            raise np.linalg.LinAlgError(f"trial {t} broke")

    _before_index_check(monkeypatch, fail)
    use_cpus(1)
    with pytest.raises(np.linalg.LinAlgError) as one:
        run_index_suite(seed=1, trials=40)
    forks = use_cpus(2)
    with pytest.raises(np.linalg.LinAlgError) as chunked:
        run_index_suite(seed=1, trials=40)
    assert len(forks) == 1
    assert str(chunked.value) == str(one.value) == f"trial {trial} broke"
    assert_no_child_left()


def test_first_exception_in_trial_order_wins(monkeypatch, use_cpus, assert_no_child_left):
    def fail(t):
        if t in (12, 30):
            raise ValueError(f"trial {t}")

    _before_index_check(monkeypatch, fail)
    use_cpus(3)
    with pytest.raises(ValueError, match="^trial 12$"):
        run_index_suite(seed=1, trials=36)
    assert_no_child_left()


def test_dead_worker_raises_a_runtime_error_naming_it(monkeypatch, use_cpus,
                                                      assert_no_child_left):
    def die(t):
        if t == 25:
            os.kill(os.getpid(), signal.SIGKILL)

    _before_index_check(monkeypatch, die)
    use_cpus(2)
    with pytest.raises(RuntimeError, match=r"index worker for trials 20\.\.39 .* exit code -9"):
        run_index_suite(seed=1, trials=40)
    assert_no_child_left()
