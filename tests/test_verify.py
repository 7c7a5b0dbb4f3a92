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
from omegals.decomposition import block_tridiagonal, tridiagonal_block_decomposition
from omegals.linalg import (
    adjoint,
    hermitian_part,
    numerical_rank,
    orthonormalize,
    singular_value_rank,
    solve_hermitian,
)
from omegals.manifolds import (
    ManifoldClass,
    compression_invertible,
    member_classes,
    membership,
    perturb_to_invertible,
    positive_shift,
    swap_witness,
)
from omegals.sampling import (
    haar_unitary,
    hermitian_invertible,
    nested_subspaces,
    random_hermitian_invertible,
    random_subspace,
)
from omegals.subspaces import (
    PaddedGroup,
    Subspace,
    index_of_invariance,
    orthogonal_complement,
    reach,
    subspace_intersect,
    subspace_sum,
    subspaces_equal,
)
from omegals.verify import (
    MIN_CHUNK_TRIALS,
    SUITES,
    IndexValues,
    ManifoldsValues,
    NullspaceChecks,
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


def index_values_one_at_a_time(drawn) -> IndexValues:
    """The index suite's values of one draw from the one-trial routines."""
    s_cols, a, shift, a_h, s2_cols, b_op = drawn
    n = a.shape[0]
    s, s2 = Subspace(orthonormalize(s_cols)), Subspace(orthonormalize(s2_cols))
    sum_h = reach(a_h, s)
    s_perp = orthogonal_complement(s)
    between = subspace_intersect(s_perp, sum_h)
    return IndexValues(
        n, s.dim, *(index_of_invariance(op, s) for op in (
            a, a + shift * np.eye(n), np.linalg.inv(a), a_h, b_op, a + b_op, a @ b_op)),
        index_of_invariance(a, s2), index_of_invariance(a, subspace_sum(s, s2)),
        index_of_invariance(a_h, s_perp), between.dim, index_of_invariance(a_h, between))


@pytest.mark.parametrize("seed", [0, 3, 41])
def test_batched_index_measure_matches_the_one_trial_routines(seed):
    rng = np.random.default_rng(seed)
    draws = [verify._index_draw(rng, trial) for trial in range(48)]
    measured = verify._index_measure(draws)
    assert measured == [index_values_one_at_a_time(drawn) for drawn in draws]
    # each field's group mixes ambient dimensions, so it is zero-padded
    assert len({v.n for v in measured[0::2]}) >= 5 and len({v.n for v in measured[1::2]}) >= 5


def nullspace_values_one_at_a_time(drawn):
    """The nullspace suite's operators and decompositions of one draw from the
    one-trial routines, as the suite formed them per trial."""
    ((g, x), s_cols), square, (tau, m_inv, c3, d3, e3, w) = drawn
    a = hermitian_invertible(g, x)
    dec = tridiagonal_block_decomposition(a, Subspace(orthonormalize(s_cols)))
    dec_eq = None
    if square is not None:
        (g_eq, x_eq), s_eq = square
        dec_eq = tridiagonal_block_decomposition(hermitian_invertible(g_eq, x_eq),
                                                 Subspace(orthonormalize(s_eq)))
    q3, p3 = m_inv.shape[0], m_inv.shape[0] + tau.size
    t3 = np.diag(np.concatenate([tau, np.zeros(q3)]))
    bstar3 = np.vstack([np.zeros((p3 - q3, q3)), m_inv])
    w = haar_unitary(w)
    compressed = block_tridiagonal(t3, adjoint(bstar3), hermitian_part(c3), d3, hermitian_part(e3))
    dec3 = tridiagonal_block_decomposition(hermitian_part(w @ compressed @ adjoint(w)),
                                           Subspace(w[:, :p3]))
    return a, dec, dec_eq, dec3, q3


def nullspace_checks_one_at_a_time(a, dec, kind) -> NullspaceChecks:
    """What the nullspace check reads of one decomposition, from the
    one-decomposition routines, as the check computed it per trial."""
    ns = dec.Hstar_nullspace
    hstar = adjoint(dec.H)
    predicted_n2 = -np.linalg.lstsq(adjoint(dec.B), dec.T @ ns.N1, rcond=None)[0]
    flags = {}
    if kind == "generic":
        invertible = compression_invertible(a, Subspace(dec.V), op_norm=dec.op_norm)
        candidate = np.vstack([-solve_hermitian(dec.T, adjoint(dec.B)), np.eye(dec.q)])
        flags = {"invertible_t": invertible, "same_span": invertible and subspaces_equal(
            Subspace(orthonormalize(ns.N)), Subspace(orthonormalize(candidate)))}
    if kind == "disjoint":
        u3, sigma3, _ = np.linalg.svd(dec.T)
        rank3 = singular_value_rank(sigma3, dec.T.shape, scale=dec.op_norm)
        flags = {"n1_perp": subspaces_equal(Subspace(orthonormalize(ns.N1)),
                                            Subspace(u3[:, rank3:]))}
    return NullspaceChecks(dec.p, dec.q, numerical_rank(ns.N), numerical_rank(ns.N1),
                           *map(np.linalg.norm, (hstar @ ns.N, hstar, ns.N2 - predicted_n2,
                                                 ns.N2)), **flags)


@pytest.mark.parametrize("seed", [0, 6, 304])
def test_batched_nullspace_measure_matches_the_one_trial_routines(seed):
    rng = np.random.default_rng(seed)
    draws = [verify._nullspace_draw(rng, trial) for trial in range(40)]
    decompositions = verify._by_field(draws, lambda drawn: drawn[0][1],
                                      verify._nullspace_decompositions)
    measured = verify._nullspace_measure(draws)
    for decs, values, (a, dec, dec_eq, dec3, q3) in zip(
            decompositions, measured, map(nullspace_values_one_at_a_time, draws), strict=True):
        read = [dec if dec.q >= 1 else None,
                dec_eq if dec_eq is not None and dec_eq.q == dec_eq.p else None,
                dec3 if dec3.q == q3 else None]
        for got, value, one, kind in zip(decs, values, read, ["generic", "square", "disjoint"]):
            assert (got is None) == (value is None) == (one is None)
            if one is None:
                continue
            assert (got.n, got.p, got.q) == (one.n, one.p, one.q)
            for block in ("T", "B", "C"):
                np.testing.assert_allclose(getattr(got, block), getattr(one, block),
                                           rtol=0, atol=1e-12)
            want = nullspace_checks_one_at_a_time(a, one, kind)
            assert value[:4] == want[:4] and value[8:] == want[8:], kind
            np.testing.assert_allclose(value[4:8], want[4:8], rtol=0, atol=1e-12)
    assert sum(values[1] is not None for values in measured) >= 10
    assert sum(values[0] is not None and values[0].same_span for values in measured) >= 20


def manifolds_values_one_at_a_time(drawn) -> ManifoldsValues:
    """The manifolds suite's values of one draw from the one-trial routines,
    as the suite's check computed them per trial."""
    p, q, cols, omega, oversized = drawn
    s, s_prime = nested_subspaces(cols, p)
    a0 = swap_witness(s, s_prime)
    witness = positive_shift(a0)
    nudged = perturb_to_invertible(a0, subspace=s)
    pair = None if oversized is None else nested_subspaces(oversized[0], p)
    return ManifoldsValues(
        q, index_of_invariance(witness, s), member_classes(witness, s, s_prime),
        membership(witness + omega * np.eye(s.ambient_dim), s, s_prime, ManifoldClass.M),
        compression_invertible(a0, s), float(np.linalg.norm(nudged - a0)),
        membership(nudged, s, s_prime, ManifoldClass.M_SYMT), pair,
        pair is not None and membership(hermitian_part(oversized[1]), *pair, ManifoldClass.M))


@pytest.mark.parametrize("seed", [0, 1, 53])
def test_batched_manifolds_measure_matches_the_one_trial_routines(seed):
    rng = np.random.default_rng(seed)
    draws = [verify._manifolds_draw(rng, trial) for trial in range(48)]
    measured = verify._manifolds_measure(draws)
    for got, want in zip(measured, map(manifolds_values_one_at_a_time, draws), strict=True):
        assert got._replace(nudge=0.0, oversized=None) == want._replace(nudge=0.0, oversized=None)
        assert got.nudge == pytest.approx(want.nudge, rel=1e-9, abs=0)
        assert (got.oversized is None) == (want.oversized is None)
        for space, one in zip(got.oversized or (), want.oversized or ()):
            np.testing.assert_allclose(space.projector(), one.projector(), rtol=0, atol=1e-12)
    # R and C, q = 0 and q >= 1, and the oversized case, each on both fields
    for field in (measured[0::2], measured[1::2]):
        assert {min(v.q, 1) for v in field} == {0, 1}
        assert any(v.oversized is not None for v in field)
        assert all(ManifoldClass.M_POS in v.classes for v in field)


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
    result = SuiteResult("nullspace")
    [exact] = verify._nullspace_values([], [dec], [])
    verify._nullspace_identities(result, exact, "exact")
    assert result.passed, result.failures
    nullspace = PaddedGroup.nullspace

    def nudged(self, m, scale=None):
        # the last row of N2 moves by 1e-8 in the first basis vector
        basis, width = nullspace(self, m, scale)
        basis[:, -1, 0] += 1e-8
        return basis, width

    monkeypatch.setattr(PaddedGroup, "nullspace", nudged)
    [perturbed] = verify._nullspace_values([], [dec], [])
    verify._nullspace_identities(result, perturbed, "perturbed")
    assert result.failures == ["perturbed: H* N residual too large",
                               "perturbed: N2 != -(BB*)^-1 B T N1"]


def test_manifolds_suite_small():
    res = run_manifolds_suite(seed=7, trials=12)
    assert res.passed, res.failures[:5]


@pytest.mark.parametrize("name, seed, trials, checks", [
    ("manifolds", 0, 100, 1016), ("manifolds", 1, 100, 1006),
    ("nullspace", 0, 60, 960), ("nullspace", 1, 60, 960)])
def test_check_counts_at_default_trials(name, seed, trials, checks):
    # the counts of the per-trial checks before these suites were batched: a
    # batched step that drops or adds a check changes them
    res = SUITES[name](seed=seed)
    assert (res.trials, res.checks, res.failures) == (trials, checks, [])


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
    """A suite's draw, measure (if it has one) and check steps through the
    chunked runner."""
    steps = f"_{name.replace('-', '_')}"
    return verify._run_trials(name, getattr(verify, f"{steps}_draw"),
                              getattr(verify, f"{steps}_check"), seed, trials,
                              getattr(verify, f"{steps}_measure", None))


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
    if hasattr(verify, f"_{name.replace('-', '_')}_measure"):
        # the batched measure hands each check its own trial's draws
        monkeypatch.setattr(verify, f"_{name.replace('-', '_')}_measure", lambda draws: draws)
    use_cpus(1)
    one = SUITES[name](seed=11, trials=24)
    forks = use_cpus(3)
    chunked = _chunked(name, seed=11, trials=24)
    assert len(forks) == 2 and len(set(one.failures)) == 24
    assert chunked.failures == one.failures


def test_every_suite_forks(use_cpus, assert_no_child_left):
    forks = use_cpus(3)
    for name, suite in SUITES.items():
        del forks[:]
        assert suite(seed=1, trials=24).trials == 24
        assert len(forks) == 2, name
    assert_no_child_left()


@pytest.mark.parametrize("seed, failures", [
    (27, ["trial 14: membership residual 1.472e-10 > 1e-10"]), (0, [])])
def test_main_theorem_across_cpus_matches_one_process(use_cpus, assert_no_child_left,
                                                      seed, failures):
    use_cpus(1)
    one = run_main_theorem_suite(seed=seed)
    forks = use_cpus(2)
    merged = run_main_theorem_suite(seed=seed)
    assert len(forks) == 1
    assert (merged.trials, merged.checks, merged.failures) == (one.trials, one.checks,
                                                               one.failures)
    assert merged.trials == 200 and merged.failures == failures
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


def _before_index_check(monkeypatch, before, name="index"):
    """Call ``before(trial)`` ahead of each check of the index suite (or of
    the suite ``name``)."""
    check = getattr(verify, f"_{name}_check")

    def patched(result, trial, measured):
        before(trial)
        check(result, trial, measured)

    monkeypatch.setattr(verify, f"_{name}_check", patched)


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


@pytest.mark.parametrize("name", ["index", "manifolds"])
def test_an_exception_in_the_measure_step_surfaces_at_its_batch(monkeypatch, use_cpus,
                                                                assert_no_child_left, name):
    # the second batch fails in the batched measure: the trials of the
    # first were checked, and none of the second
    measure, checked = getattr(verify, f"_{name}_measure"), []

    def fail(draws):
        if len(checked) == verify.MEASURE_BATCH:
            raise ValueError("basis columns are not orthonormal")
        return measure(draws)

    monkeypatch.setattr(verify, f"_{name}_measure", fail)
    _before_index_check(monkeypatch, checked.append, name)
    use_cpus(1)
    with pytest.raises(ValueError, match="not orthonormal"):
        SUITES[name](seed=1, trials=40)
    assert checked == list(range(verify.MEASURE_BATCH))
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
