"""Smoke coverage for the randomized suites at reduced trial counts; the
acceptance module runs them at full scale."""

import dataclasses

import numpy as np

from omegals import verify
from omegals.decomposition import tridiagonal_block_decomposition
from omegals.sampling import random_hermitian_invertible, random_subspace
from omegals.verify import (
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
    ns = verify.nullspace_of_hstar(dec)
    nudge = rng.standard_normal(ns.N2.shape)
    bad = dataclasses.replace(ns, N2=ns.N2 + 1e-8 * nudge / np.linalg.norm(nudge))
    result = SuiteResult("nullspace")
    verify._nullspace_identities(result, dec, "exact")
    assert result.passed, result.failures
    monkeypatch.setattr(verify, "nullspace_of_hstar", lambda _: bad)
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
