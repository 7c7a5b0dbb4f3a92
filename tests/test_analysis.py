import numpy as np
import pytest

from omegals import analysis
from omegals.analysis import (
    EST_DIM_RATIO,
    SPAN_PAIRS,
    SPAN_SAMPLES_PER_INDEX,
    condition_report,
    constant_kernel,
    convexity_coordinates,
    default_omega_grid,
    difference_subspace,
    estimate_span_dim,
    injectivity_scan,
    membership_residual,
    sweep_solutions,
)
from omegals.decomposition import (
    TridiagDecomp,
    block_tridiagonal,
    guard_threshold,
    tridiagonal_block_decomposition,
)
from omegals.experiments import KrylovSumSpec, krylov_sum_subspace, poisson_2d
from omegals.linalg import (
    adjoint,
    default_rank_tol,
    extend_orthonormal,
    hermitian_eig,
    hermitian_part,
    numerical_rank,
    operator_eig,
    orthonormalize,
    solve_hermitian,
)
from omegals.manifolds import swap_witness
from omegals.sampling import (
    gaussian_matrix,
    gaussian_vector,
    random_hermitian_invertible,
    random_spd,
    random_subspace,
    random_unitary,
)
from omegals.solver import (
    OMEGA_INF,
    ProblemInstance,
    _qr,
    solution_map,
    solve_limit,
    solve_weighted,
)
from omegals.subspaces import (
    EIG_CLUSTER_TOL,
    Subspace,
    eigenspace_split,
    index_of_invariance,
    invariant_closure,
    krylov,
    normal_representation,
    orthogonal_complement,
    strongly_orthogonal,
    subspace_sum,
    subspaces_equal,
)


def per_shift_sweep(inst, omegas):
    """The per-shift loop that the batched sweep replaced, with the kernel
    body it ran at every shift: the thin QR of P = U* A V, then the
    eigh-based solve of Q* W Q, which tests each shift for singularity.
    Kept as the reference for ``ok``, ``failures`` and the solutions."""
    lam, v = inst.eig.lambdas, inst.constraint.direction.basis
    beta = inst.eig.apply_uh(inst.b - inst.a @ inst.constraint.x0)
    ok = np.zeros(len(omegas), dtype=bool)
    failures, cols = [], []
    for j, omega in enumerate(map(float, omegas)):
        try:
            inst.check_omega(omega)
            q, r = _qr(inst.eig.apply_uh(inst.a @ v))
            qw = adjoint(q) * (np.ones_like(lam) if omega == OMEGA_INF else (lam + omega) ** -1)
            try:
                z = solve_hermitian(hermitian_part(qw @ q), qw @ beta)
            except np.linalg.LinAlgError as err:
                raise np.linalg.LinAlgError(
                    f"inner Gram matrix singular at omega = {omega}: {err}") from err
            cols.append(inst.constraint.x0 + v @ np.linalg.solve(r, z))
            ok[j] = True
        except (ValueError, np.linalg.LinAlgError) as err:
            failures.append((j, str(err)))
    return ok, failures, cols


def alpha_operator(alpha, p):
    eye = np.eye(p)
    return np.block([[alpha * eye, eye], [eye, alpha * eye]])


class TestDifferenceSubspace:
    def test_invariant_gives_zero_subspace(self):
        dec = tridiagonal_block_decomposition(np.diag([1.0, 2.0]),
                                              Subspace(np.eye(2)[:, :1]))
        y = difference_subspace(dec)
        assert y.q == 0 and y.basis.dim == 0

    def test_two_by_two_example(self):
        # T = [2], B = [1], H*H = 5: the image of V (H*H)^{-1} B* is the
        # constrained coordinate axis itself
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        dec = tridiagonal_block_decomposition(a, Subspace(np.array([[1.0], [0.0]])))
        y = difference_subspace(dec)
        assert y.basis.dim == 1
        assert subspaces_equal(y.basis, Subspace(np.array([[1.0], [0.0]])))

    def test_contained_in_constraint_subspace(self):
        rng = np.random.default_rng(1)
        a = random_hermitian_invertible(rng, 8, True)
        s = random_subspace(rng, 8, 3, True)
        dec = tridiagonal_block_decomposition(a, s)
        y = difference_subspace(dec)
        assert y.basis.dim == dec.q
        for j in range(y.basis.dim):
            assert membership_residual(y.basis.basis[:, j], s) <= 1e-10


class TestMembershipResidual:
    def test_member_by_construction(self):
        s = Subspace(np.eye(4)[:, :2])
        assert membership_residual(np.array([1.0, -2.0, 0.0, 0.0]), s) <= 1e-15

    def test_random_differences_are_members(self):
        rng = np.random.default_rng(2)
        for complex_field in (False, True):
            a = random_hermitian_invertible(rng, 10, complex_field)
            s = random_subspace(rng, 10, 4, complex_field)
            dec = tridiagonal_block_decomposition(a, s)
            if dec.q == 0:
                continue
            y = difference_subspace(dec)
            b = gaussian_vector(rng, 10, complex_field)
            inst = ProblemInstance.create(a, s, b)
            diff = (solve_weighted(inst, inst.omega_min + 0.8)
                    - solve_weighted(inst, inst.omega_min + 9.0))
            assert membership_residual(diff, y.basis) <= 1e-10

    def test_generic_vector_is_not_a_member(self):
        s = Subspace(np.eye(5)[:, :1])
        res = membership_residual(np.ones(5), s)
        assert res > 0.5


class TestSweep:
    def test_invariant_constraint_collapses(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = Subspace(np.eye(3)[:, :2])
        inst = ProblemInstance.create(a, s, np.array([1.0, 1.0, 1.0]))
        result = sweep_solutions(inst, default_omega_grid(40))
        assert result.est_dim == 0
        assert result.sigma.size == 0 or result.sigma[0] <= 1e-10
        assert not result.failures

    def test_alpha_example_dimension_one(self):
        # the index is p but the family stays on a line
        p = 4
        a = alpha_operator(2.0, p)
        s = Subspace(np.eye(2 * p)[:, :p])
        rng = np.random.default_rng(3)
        b = rng.standard_normal(2 * p)
        c, cp = b[:p], b[p:]
        assert np.linalg.norm(c - 2.0 * cp) > 1e-3  # generic right-hand side
        inst = ProblemInstance.create(a, s, b)
        assert index_of_invariance(a, s) == p
        result = sweep_solutions(inst, default_omega_grid(60))
        assert result.est_dim == 1

    def test_failures_are_flagged(self):
        inst = ProblemInstance.create(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                      Subspace(np.array([[1.0], [0.0]])),
                                      np.array([1.0, 0.0]))
        grid = np.array([-5.0, 0.5, 1.0])  # first point is below the floor
        result = sweep_solutions(inst, grid)
        assert len(result.failures) == 1 and result.failures[0][0] == 0
        assert result.ok.tolist() == [False, True, True]
        assert result.solutions.shape == (2, 2)

    def test_matches_pointwise_solver(self):
        rng = np.random.default_rng(4)
        a = random_hermitian_invertible(rng, 9, False)
        s = random_subspace(rng, 9, 3, False)
        b = rng.standard_normal(9)
        inst = ProblemInstance.create(a, s, b)
        grid = inst.omega_min + np.array([0.5, 2.0, 11.0])
        result = sweep_solutions(inst, grid)
        for j, omega in enumerate(grid):
            np.testing.assert_allclose(result.solutions[:, j],
                                       solve_weighted(inst, float(omega)),
                                       atol=1e-11)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_infinite_shift_gives_the_limit_solution(self, complex_field):
        rng = np.random.default_rng(6)
        a = random_hermitian_invertible(rng, 9, complex_field)
        s = random_subspace(rng, 9, 3, complex_field)
        space = normal_representation(gaussian_vector(rng, 9, complex_field), s)
        inst = ProblemInstance.create(a, space, gaussian_vector(rng, 9, complex_field))
        result = sweep_solutions(inst, [OMEGA_INF])
        assert not result.failures and result.ok.tolist() == [True]
        x_limit = solve_limit(inst)
        err = np.linalg.norm(result.solutions[:, 0] - x_limit)
        assert err <= 1e-12 * np.linalg.norm(x_limit)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_batch_matches_single_solves(self, complex_field):
        rng = np.random.default_rng(40)
        a = random_hermitian_invertible(rng, 30, complex_field)
        space = normal_representation(gaussian_vector(rng, 30, complex_field),
                                      random_subspace(rng, 30, 6, complex_field))
        inst = ProblemInstance.create(a, space, gaussian_vector(rng, 30, complex_field))
        grid = inst.omega_min + np.logspace(-2, 4, 50)
        result = sweep_solutions(inst, grid)
        assert result.ok.all() and not result.failures
        for j, omega in enumerate(grid):
            x = solve_weighted(inst, float(omega))
            assert np.linalg.norm(result.solutions[:, j] - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_failures_match_the_per_shift_loop(self, complex_field):
        rng = np.random.default_rng(41)
        a = random_hermitian_invertible(rng, 12, complex_field)
        inst = ProblemInstance.create(a, random_subspace(rng, 12, 4, complex_field),
                                      gaussian_vector(rng, 12, complex_field))
        threshold = guard_threshold(inst.omega_min, inst.op_norm)
        grid = [threshold + 0.5, np.nan, threshold, np.nextafter(threshold, -np.inf),
                OMEGA_INF, inst.omega_min - 3.0, threshold + 40.0, np.nan, OMEGA_INF]
        result = sweep_solutions(inst, grid)
        ok, failures, cols = per_shift_sweep(inst, grid)
        assert result.ok.tolist() == ok.tolist() == [True, False, True, False, True, False,
                                                    True, False, True]
        assert result.failures == failures
        assert [j for j, _ in failures] == [1, 3, 5, 7]
        # solutions at the guard itself carry cond(Q* W Q) ~ 1e8 and agree
        # only to that; the well-conditioned ones agree to round-off
        for j in (0, 4, 6, 8):
            x, y = result.solutions[:, ok[:j].sum()], cols[ok[:j].sum()]
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_rank_deficient_image_fails_every_admitted_shift(self):
        # A is singular on S (A V has rank 1 < p = 2); the instance is built
        # directly, since ProblemInstance.create rejects a singular A
        a = np.diag([3.0, 0.0, -1.0, 2.0])
        s = Subspace.from_vectors(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.5]]).T)
        inst = ProblemInstance(a=a, constraint=normal_representation(np.zeros(4), s),
                               b=np.ones(4), eig=hermitian_eig(a))
        grid = [5.0, 0.0, np.nan, OMEGA_INF, 2.0]
        result = sweep_solutions(inst, grid)
        ok, failures, _ = per_shift_sweep(inst, grid)
        assert result.failures == failures
        assert [j for j, _ in failures] == [0, 1, 2, 3, 4]
        assert all("rank deficient" in failures[j][1] for j in (0, 3, 4))
        assert not result.ok.any() and not ok.any()
        assert result.solutions.shape == (4, 0) and result.est_dim == 0

    def test_family_lives_on_the_constraint_basis(self):
        rng = np.random.default_rng(45)
        inst = ProblemInstance.create(random_hermitian_invertible(rng, 9, True),
                                      random_subspace(rng, 9, 3, True),
                                      gaussian_vector(rng, 9, True))
        result = sweep_solutions(inst, inst.omega_min + np.logspace(-1, 1, 5))
        assert result.v is inst.constraint.direction.basis
        assert result.y.shape == (3, 5)

    def test_takes_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(42)
        a = random_hermitian_invertible(rng, 40, False)
        inst = ProblemInstance.create(a, random_subspace(rng, 40, 5, False),
                                      rng.standard_normal(40))
        inst._factors
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, *args, _f=original, _n=name, **kw:
                                calls.append((_n, np.shape(m))) or _f(m, *args, **kw))
        sweep_solutions(inst, inst.omega_min + np.logspace(-3, 3, 200))
        # one SVD, of the p x K centered coordinates
        assert calls == [("svd", (5, 200))]

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_spectrum_matches_the_full_centered_solutions(self, complex_field):
        rng = np.random.default_rng(43)
        a = random_hermitian_invertible(rng, 25, complex_field)
        space = normal_representation(gaussian_vector(rng, 25, complex_field),
                                      random_subspace(rng, 25, 7, complex_field))
        inst = ProblemInstance.create(a, space, gaussian_vector(rng, 25, complex_field))
        result = sweep_solutions(inst, inst.omega_min + np.logspace(-2, 2, 40))
        x = result.solutions
        centered = x - x.mean(axis=1, keepdims=True)
        sigma = np.linalg.svd(centered, compute_uv=False)
        assert result.sigma.size == 7
        np.testing.assert_allclose(result.sigma, sigma[:7], rtol=1e-10,
                                   atol=1e-12 * sigma[0])
        assert np.all(sigma[7:] <= 1e-12 * sigma[0])
        coords = result.coords
        assert coords.shape == (result.est_dim, 40)
        if complex_field:
            return  # coords are real parts of complex coordinates
        np.testing.assert_allclose(coords @ coords.T,
                                   np.diag(result.sigma[:result.est_dim] ** 2),
                                   atol=1e-10 * sigma[0] ** 2)

    def test_per_shift_diagnostics(self):
        lam = np.array([4.0, 2.0, 0.5])
        u = random_unitary(np.random.default_rng(44), 3, False)
        a = hermitian_part((u * lam) @ u.T)
        inst = ProblemInstance.create(a, Subspace((u[:, :1] + u[:, 2:]) / np.sqrt(2)), np.ones(3))
        threshold = guard_threshold(-0.5, 4.0)
        grid = np.array([1.0, -1.0, np.nan, OMEGA_INF])
        result = sweep_solutions(inst, grid)
        np.testing.assert_allclose(result.gram_cond_bound[[0, 3]], [5.0 / 1.5, 1.0])
        assert np.isnan(result.gram_cond_bound[[1, 2]]).all()
        np.testing.assert_allclose(result.guard_margin[:2], grid[:2] - threshold)
        assert np.isnan(result.guard_margin[2]) and result.guard_margin[3] == np.inf

    def test_bound_chain(self):
        rng = np.random.default_rng(5)
        a = random_hermitian_invertible(rng, 10, False)
        s = random_subspace(rng, 10, 4, False)
        q = index_of_invariance(a, s)
        b = rng.standard_normal(10)
        inst = ProblemInstance.create(a, s, b)
        grid = inst.omega_min + np.logspace(-2, 2, 60)
        est_b = sweep_solutions(inst, grid).est_dim
        est_x = estimate_span_dim(a, s, grid=grid, seed=7)
        assert est_b <= est_x <= q <= s.dim


class TestDefaultOmegaGrid:
    @pytest.mark.parametrize("lo, hi, name", [
        (0.0, 1e3, "lo"), (-1.0, 1e3, "lo"), (np.nan, 1e3, "lo"), (np.inf, 1e3, "lo"),
        (1e-3, 0.0, "hi"), (1e-3, np.inf, "hi"), (1e-3, np.nan, "hi")])
    def test_rejects_a_bound_by_name(self, lo, hi, name):
        with pytest.raises(ValueError, match=rf"^grid bound {name} = .*positive, finite"):
            default_omega_grid(5, lo, hi)

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_a_count_below_one_by_name(self, count):
        with pytest.raises(ValueError, match=rf"^grid count = {count}: .*at least one shift"):
            default_omega_grid(count)

    @pytest.mark.parametrize("count, lo, hi", [(1, 1e-3, 1e3), (1, 1.0, 1.0), (5, 1.0, 1.0)])
    def test_rejects_a_grid_without_two_distinct_shifts_by_name(self, count, lo, hi):
        with pytest.raises(ValueError, match=rf"^grid count = {count}, lo = .*: the grid "
                                             rf"holds 1 distinct shift\(s\)"):
            default_omega_grid(count, lo, hi)

    def test_descending_grid(self):
        grid = default_omega_grid(5, 1e3, 1e-3)
        np.testing.assert_allclose(grid, [1e3, 1e1 ** 1.5, 1.0, 1e1 ** -1.5, 1e-3])


class TestEstimateSpanDim:
    def test_invariant_returns_zero(self):
        assert estimate_span_dim(np.diag([1.0, 2.0]), Subspace(np.eye(2)[:, :1])) == 0

    @pytest.mark.parametrize("grid", [[1.0], [2.0, 2.0]])
    def test_rejects_a_grid_without_two_distinct_shifts(self, grid):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 8)
        s = random_subspace(rng, 8, 3, False)
        with pytest.raises(ValueError, match=r"^grid holds 1 distinct shift\(s\)"):
            estimate_span_dim(a, s, grid=grid)

    def test_krylov_index_one(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 8)
        b = rng.standard_normal(8)
        s = krylov(a, b, 3)
        grid = np.logspace(-2, 2, 30)
        assert estimate_span_dim(a, s, grid=grid, seed=1) == 1

    def test_spd_reaches_the_index(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 9)
        s = random_subspace(rng, 9, 3, False)
        q = index_of_invariance(a, s)
        grid = np.logspace(-2, 2, 30)
        assert estimate_span_dim(a, s, grid=grid, seed=2) == q

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_the_solution_map_route(self, complex_field):
        # the former route: one n x n map V M(omega) per sampled shift, applied
        # to the same sampled right-hand sides
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            n, p = 14, 4 + seed % 3
            a = random_hermitian_invertible(rng, n, complex_field)
            s = random_subspace(rng, n, p, complex_field)
            q = index_of_invariance(a, s)
            grid = -float(np.linalg.eigvalsh(a)[0]) + np.logspace(-2, 2, 30)
            draws = np.random.default_rng(seed)
            pairs = []
            while len(pairs) < SPAN_PAIRS:
                i, j = draws.integers(0, grid.size, size=2)
                if grid[i] != grid[j]:
                    pairs.append((float(grid[i]), float(grid[j])))
            maps = {w: s.basis @ solution_map(a, s, w) for pair in pairs for w in pair}
            bs = gaussian_matrix(draws, n, SPAN_SAMPLES_PER_INDEX * q, complex_field)
            diffs = np.hstack([(maps[w] - maps[m]) @ bs for w, m in pairs])
            sv = np.linalg.svd(diffs, compute_uv=False)
            expected = int(np.count_nonzero(sv > EST_DIM_RATIO * sv[0]))
            assert estimate_span_dim(a, s, grid=grid, seed=seed) == expected == q


def uncompressed_kernel(a, s, omega):
    """Reference for constant_kernel: (shape of the stack, kernel) from the
    p x n functional of every eigenspace block, stacked uncompressed in the
    original coordinates, with the same rank cut."""
    m = solution_map(a, s, omega)
    r_op = np.eye(a.shape[0]) - a @ (s.basis @ m)
    f = np.vstack([s.basis.conj().T @ (q @ (q.conj().T @ r_op))
                   for _, q in eigenspace_split(hermitian_eig(a))])
    sv = np.linalg.svd(f, compute_uv=False)
    tol = max(f.shape) * np.finfo(float).eps * 32 * np.linalg.norm(r_op, 2)
    rank = int(np.count_nonzero(sv > tol))
    _, _, vh = np.linalg.svd(f, full_matrices=True)
    return f.shape, Subspace(vh[rank:].conj().T)


class TestConstantKernel:
    def test_contains_image_of_constraint(self):
        rng = np.random.default_rng(11)
        a = random_hermitian_invertible(rng, 7, False)
        s = random_subspace(rng, 7, 2, False)
        omega = -float(np.linalg.eigvalsh(a)[0]) + 2.0
        kernel = constant_kernel(a, s, omega)
        for j in range(s.dim):
            assert membership_residual(a @ s.basis[:, j], kernel) <= 1e-8

    def test_kernel_members_have_constant_solutions(self):
        rng = np.random.default_rng(12)
        a = random_hermitian_invertible(rng, 7, False)
        s = random_subspace(rng, 7, 2, False)
        assert index_of_invariance(a, s) >= 1
        omega = -float(np.linalg.eigvalsh(a)[0]) + 2.0
        kernel = constant_kernel(a, s, omega)
        assert kernel.dim < 7  # proper subspace
        b_hat = a @ (s.basis @ rng.standard_normal(2))
        inst = ProblemInstance.create(a, s, b_hat)
        x_expected = np.linalg.solve(a, b_hat)
        grid = inst.omega_min + np.logspace(-1, 2, 12)
        for w in grid:
            np.testing.assert_allclose(solve_weighted(inst, float(w)), x_expected,
                                       atol=1e-9)
        report = injectivity_scan(inst, grid, tol=1e-8)
        assert report.full
        assert sweep_solutions(inst, grid).est_dim == 0

    def test_generic_b_escapes_kernel(self):
        rng = np.random.default_rng(13)
        a = random_hermitian_invertible(rng, 8, False)
        s = random_subspace(rng, 8, 3, False)
        omega = -float(np.linalg.eigvalsh(a)[0]) + 1.5
        kernel = constant_kernel(a, s, omega)
        b = rng.standard_normal(8)
        assert membership_residual(b, kernel) > 1e-6

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_short_wide_stack_matches_two_svd_construction(self, complex_field):
        # two eigenspace blocks and p = 1 stack only 2 functionals on F^6, so
        # the kernel needs the full right singular basis
        a = np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]).astype(complex if complex_field else float)
        rng = np.random.default_rng(14)
        s = random_subspace(rng, 6, 1, complex_field)
        omega = 0.5
        kernel = constant_kernel(a, s, omega)
        shape, expected = uncompressed_kernel(a, s, omega)
        assert shape == (2, 6)
        assert 1 <= kernel.dim < 6
        assert subspaces_equal(kernel, expected)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_batched_svds_match_a_per_block_loop(self, complex_field):
        # one batched SVD per block size makes the LAPACK calls of one SVD
        # per eigenspace block, so the basis is bit-identical to that loop's;
        # the blocks of poisson_2d(8) have sizes 1, 2 and 8, and only some
        # have a nonempty left null space
        a = poisson_2d(8)
        n = a.shape[0]
        rng = np.random.default_rng(31)
        s = Subspace.zero(n, complex_field)
        for order in (5, 3):
            s = subspace_sum(s, krylov(a, gaussian_vector(rng, n, complex_field), order))
        eig = operator_eig(a)
        ut_v = eig.apply_uh(s.basis)
        tol = default_rank_tol(ut_v.shape)
        parts, start = [], 0
        for _, q_block in eigenspace_split(eig):
            stop = start + q_block.shape[1]
            left, sv, _ = np.linalg.svd(ut_v[start:stop], full_matrices=True)
            parts.append(q_block @ left[:, np.count_nonzero(sv > tol):])
            start = stop
        k = np.hstack(parts)
        expected = np.hstack([k, extend_orthonormal(k, a @ s.basis,
                                                    scale=float(np.abs(eig.lambdas).max()))])
        assert 0 < k.shape[1] < n
        np.testing.assert_array_equal(constant_kernel(a, s, 1.0).basis, expected)

    @pytest.mark.parametrize("case", ["multiplicity>p", "generic", "index-0"])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_uncompressed_stack(self, case, complex_field):
        # the stack of one R factor per eigenspace block has the Gram matrix
        # of the uncompressed stack: the same kernel, whether a block is
        # wider than p (eigenvalues 3 and 1 of multiplicity 3 > p = 2) or not
        rng = np.random.default_rng(16)
        n, p = 8, 2
        u = random_unitary(rng, n, complex_field)
        if case == "multiplicity>p":
            lam = np.array([3.0, 3.0, 3.0, 1.0, 1.0, 1.0, -2.0, 0.5])
        else:
            lam = rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
        a = hermitian_part((u * lam) @ adjoint(u))
        if case == "index-0":
            s = Subspace(u[:, :p] @ random_unitary(rng, p, complex_field))
        else:
            s = random_subspace(rng, n, p, complex_field)
        assert (index_of_invariance(a, s) == 0) == (case == "index-0")
        omega = 1.0 - float(lam.min())
        kernel = constant_kernel(a, s, omega)
        _, expected = uncompressed_kernel(a, s, omega)
        assert kernel.dim == expected.dim
        assert np.linalg.norm(kernel.projector() - expected.projector(), 2) <= 1e-10

    def test_invariant_case_kernel_is_everything(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = Subspace(np.eye(3)[:, :1])
        kernel = constant_kernel(a, s, 0.5)
        assert kernel.dim == 3


def closure_kernel(a, s):
    """Eigh-free reference for constant_kernel: the orthogonal complement of
    the last member of the invariant closure of S, plus A S. A S drops the
    round-off images of null directions on the scale of ||A||_2."""
    chain, _ = invariant_closure(a, s)
    image = Subspace(extend_orthonormal(np.zeros((a.shape[0], 0)), a @ s.basis,
                                        scale=np.linalg.norm(a, 2)))
    return subspace_sum(orthogonal_complement(chain[-1]), image)


def spectral_instance(rng, lam, p, complex_field):
    """A = U diag(lam) U* for a random unitary U, and a random p-dimensional S."""
    u = random_unitary(rng, lam.size, complex_field)
    a = hermitian_part((u * lam) @ adjoint(u))
    return a, u, random_subspace(rng, lam.size, p, complex_field)


def kernel_distance(k1, k2):
    assert k1.dim == k2.dim
    return np.linalg.norm(k1.projector() - k2.projector(), 2)


class TestConstantKernelClosedForm:
    """constant_kernel is A S (+) (invariant closure of S)^perp: checked
    against the eigh-free closure route and the uncompressed stack."""

    @pytest.mark.parametrize("case", ["multiplicity>p", "generic", "index-0", "singular"])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_closure_route(self, case, complex_field):
        rng = np.random.default_rng(17)
        n, p = 9, 2
        lam = {"multiplicity>p": [3.0, 3.0, 3.0, 1.0, 1.0, 1.0, -2.0, 0.5, 2.0],
               "generic": rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n),
               "index-0": [3.0, 3.0, 3.0, 1.0, 1.0, 1.0, -2.0, 0.5, 2.0],
               "singular": [0.0, 0.0, 1.0, 2.0, 2.0, -1.0, 3.0, 0.5, 4.0]}[case]
        a, u, s = spectral_instance(rng, np.asarray(lam), p, complex_field)
        if case == "index-0":
            # a 2-dimensional subspace of the eigenvalue-3 eigenspace
            s = Subspace(u[:, :3] @ random_unitary(rng, 3, complex_field)[:, :p])
        if case == "singular":
            # one basis vector in the null space: A S has dimension 1
            s = Subspace(orthonormalize(np.column_stack([u[:, 0], s.basis[:, 0]])))
        kernel = constant_kernel(a, s, 1.0 - min(lam))
        expected = closure_kernel(a, s)
        assert kernel_distance(kernel, expected) <= 1e-10
        if case == "index-0":
            assert kernel.dim == n
        elif case == "singular":
            assert kernel.dim < n
            assert np.linalg.matrix_rank(a @ s.basis) == 1
        else:
            assert p <= kernel.dim < n
            _, stack = uncompressed_kernel(a, s, 1.0 - min(lam))
            assert kernel_distance(kernel, stack) <= 1e-10

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_clustered_spectrum(self, complex_field):
        # Eigenvalues closer than EIG_CLUSTER_TOL share one eigenspace block,
        # so the closed form counts a cluster of width 1e-10 as one eigenvalue
        # of multiplicity 3 > p and gains the direction the closure route
        # resolves. Measured over 20 seeds (n = 9, p = 2, R and C): the
        # closed form has dimension 3 against the closure route's 2 for every
        # gap from 1e-12 to 1e-9, contains the closure route's kernel, and
        # its members move with the shift by at most 2.3 times the gap
        # between omega = 1e-3 and 1e3. The replaced stack kept dimension 2
        # down to gap 1e-10 and merged the cluster from 1e-12 on, where it
        # equals the closed form.
        for gap in (1e-10, 1e-13):
            assert gap < EIG_CLUSTER_TOL
            rng = np.random.default_rng(18)
            lam = np.array([3.0, 3.0 + gap, 3.0 + 2 * gap, 1.0, 1.0 + gap, 4.0, 0.5,
                            0.5 + gap, 2.0])
            a, _, s = spectral_instance(rng, lam, 2, complex_field)
            assert len(eigenspace_split(hermitian_eig(a))) == 5
            kernel = constant_kernel(a, s, 1.0)
            resolved = closure_kernel(a, s)
            assert (kernel.dim, resolved.dim) == (3, 2)
            assert np.linalg.norm(resolved.basis - kernel.project(resolved.basis)) <= 1e-8
            b = kernel.basis @ rng.standard_normal(kernel.dim)
            inst = ProblemInstance.create(a, s, b)
            x_lo, x_hi = solve_weighted(inst, 1e-3), solve_weighted(inst, 1e3)
            assert np.linalg.norm(x_lo - x_hi) <= 10 * gap * np.linalg.norm(x_lo)
            if gap < 1e-12:
                _, stack = uncompressed_kernel(a, s, 1.0)
                assert kernel_distance(kernel, stack) <= 1e-10

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_independent_of_the_shift(self, complex_field):
        rng = np.random.default_rng(19)
        a, _, s = spectral_instance(rng, rng.uniform(0.5, 4.0, 8), 3, complex_field)
        lam = hermitian_eig(a).lambdas
        threshold = guard_threshold(-float(lam[-1]), float(np.max(np.abs(lam))))
        shifts = (np.nextafter(threshold, np.inf), 1.0, 300.0, OMEGA_INF)
        kernels = [constant_kernel(a, s, w) for w in shifts]
        assert 3 <= kernels[0].dim < 8
        for kernel in kernels[1:]:
            assert subspaces_equal(kernel, kernels[0], tol=1e-12)

    @pytest.mark.parametrize("seed, omega", [(804, 0.02944723696474566),
                                             (812, 1.1438423749619882)])
    def test_figure1_instances_whose_stack_svd_did_not_converge(self, seed, omega):
        # the run_figure1 two-summand instances of these seeds, on which the
        # former (p * #blocks) x n stack SVD raised "SVD did not converge"
        a = poisson_2d(23)
        stream = np.random.SeedSequence(seed).spawn(3)[0]
        s = krylov_sum_subspace(a, KrylovSumSpec((11, 6), 2),
                                np.random.default_rng(stream)).subspace
        kernel = constant_kernel(a, s, omega)
        n, p = a.shape[0], s.dim
        assert p <= kernel.dim < n
        av = a @ s.basis
        assert np.linalg.norm(av - kernel.project(av)) <= 1e-10 * np.linalg.norm(av)

    def test_shift_guard(self):
        rng = np.random.default_rng(20)
        a = random_spd(rng, 6)
        s = random_subspace(rng, 6, 2, False)
        with pytest.raises(ValueError, match="omega is NaN: a shift must be a number"):
            constant_kernel(a, s, float("nan"))
        floor = -float(np.linalg.eigvalsh(a)[0])
        with pytest.raises(ValueError, match="is at or below the guard threshold"):
            constant_kernel(a, s, floor)


class TestStrongOrthogonalityCharacterization:
    def test_invariant_constraint_residual_strongly_orthogonal(self):
        # constant solution family with a genuinely nonzero residual: an
        # invariant constraint subspace leaves the outer components of b
        # untouched, and those live in eigenspaces S never meets
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        s = Subspace(np.eye(5)[:, :2])
        blocks = eigenspace_split(hermitian_eig(a))
        b = np.array([1.0, -2.0, 3.0, 1.0, -1.0])
        inst = ProblemInstance.create(a, s, b)
        x = solve_weighted(inst, 0.7)
        residual = b - a @ x
        assert np.linalg.norm(residual) > 0.5
        for j in range(s.dim):
            assert strongly_orthogonal(residual, s.basis[:, j], blocks, tol=1e-8)

    def test_kernel_member_has_vanishing_residual(self):
        # right-hand sides from the image of the constraint produce an
        # exactly attainable solution, so the residual is zero and strong
        # orthogonality holds trivially
        rng = np.random.default_rng(14)
        a = random_hermitian_invertible(rng, 7, False)
        s = random_subspace(rng, 7, 2, False)
        omega = -float(np.linalg.eigvalsh(a)[0]) + 2.0
        b = a @ (s.basis @ rng.standard_normal(2))
        inst = ProblemInstance.create(a, s, b)
        x = solve_weighted(inst, omega)
        residual = b - a @ x
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)

    def test_moving_family_violates_strong_orthogonality(self):
        rng = np.random.default_rng(15)
        a = random_hermitian_invertible(rng, 7, False)
        s = random_subspace(rng, 7, 2, False)
        assert index_of_invariance(a, s) >= 1
        blocks = eigenspace_split(hermitian_eig(a))
        b = rng.standard_normal(7)
        inst = ProblemInstance.create(a, s, b)
        grid = inst.omega_min + np.logspace(-1, 2, 20)
        est = sweep_solutions(inst, grid).est_dim
        assert est >= 1
        omega = float(grid[3])
        x = solve_weighted(inst, omega)
        residual = b - a @ x
        violated = any(
            not strongly_orthogonal(residual, s.basis[:, j], blocks, tol=1e-8)
            for j in range(s.dim))
        assert violated


class TestConditionReport:
    def test_positive_operator(self):
        rng = np.random.default_rng(16)
        a = random_spd(rng, 8)
        s = random_subspace(rng, 8, 3, False)
        dec = tridiagonal_block_decomposition(a, s)
        report = condition_report(dec, [(0.0, 1.0), (0.3, 2.4), (5.0, 0.7)])
        assert report.t_invertible
        for sample in report.samples:
            assert sample.invertible and sample.positive

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_flags_match_rank_and_smallest_eigenvalue(self, complex_field):
        rng = np.random.default_rng(19 + complex_field)
        for _ in range(6):
            a = random_hermitian_invertible(rng, 9, complex_field)
            dec = tridiagonal_block_decomposition(a, random_subspace(rng, 9, 3, complex_field))
            floor = guard_threshold(dec.omega_min, dec.op_norm)
            pairs = [(floor + x, floor + y) for x, y in [(0.1, 2.0), (1.0, 0.3), (5.0, 40.0)]]
            guard = floor + 1e-8 * max(1.0, dec.op_norm)
            pairs += [(guard, 1e3), (1e3, guard)]
            report = condition_report(dec, pairs)
            assert report.t_invertible and dec.q >= 1
            eye = np.eye(dec.E.shape[0])
            base = dec.C - dec.B @ np.linalg.solve(dec.T, adjoint(dec.B))
            for (omega, mu), sample in zip(pairs, report.samples):
                assert sample.invertible == (numerical_rank(sample.l_matrix) == dec.q)
                assert sample.positive == (np.linalg.eigvalsh(sample.l_matrix).min() > 0)
                # D* K(omega, mu) D from dense solves with E + omega I, E + mu I
                k_d = (np.linalg.solve(dec.E + omega * eye, mu * dec.D)
                       - np.linalg.solve(dec.E + mu * eye, omega * dec.D)) / (mu - omega)
                k_term = adjoint(dec.D) @ k_d
                scale = np.linalg.norm(base) + np.linalg.norm(k_term)
                assert (np.linalg.norm(sample.l_matrix - (base - k_term))
                        <= 16 * dec.n * np.finfo(float).eps * scale)

    def test_invariant_subspace_has_an_empty_l(self):
        rng = np.random.default_rng(21)
        a = random_spd(rng, 6)
        s = Subspace(hermitian_eig(a).u[:, :2])
        dec = tridiagonal_block_decomposition(a, s)
        assert (dec.p, dec.q) == (2, 0)
        (sample,) = condition_report(dec, [(0.5, 1.5)]).samples
        assert sample.l_matrix.shape == (0, 0)
        assert sample.invertible and sample.positive

    def test_degenerate_outer_block(self):
        # n = p + q: the K-term is empty and L = C - B T^{-1} B*
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        dec = tridiagonal_block_decomposition(a, Subspace(np.array([[1.0], [0.0]])))
        report = condition_report(dec, [(0.5, 1.5)])
        expected = dec.C - dec.B @ np.linalg.solve(dec.T, dec.B.T)
        np.testing.assert_allclose(report.samples[0].l_matrix, expected, atol=1e-14)

    def test_trivial_intersection_for_zero_t(self):
        # the swap witness with p = q has T = 0, so Img T = {0}
        s = Subspace(np.eye(4)[:, :2])
        s_prime = Subspace(np.eye(4))
        a0 = swap_witness(s, s_prime)
        dec = tridiagonal_block_decomposition(a0, s)
        report = condition_report(dec)
        assert report.images_trivial_intersection
        assert not report.t_invertible
        with pytest.raises(ValueError):
            condition_report(dec, [(0.5, 1.5)])

    def test_static_flags_agree_with_the_rank_of_t(self):
        # T = R diag(1, 1.2e-14) R^T has numerical rank 1 at ||A|| = 1, so Img T
        # is the line (1, 1), which B* = (0.3, 0.7) does not touch; a
        # Gram-Schmidt image of T keeps both columns and meets B*
        r = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        t = r @ np.diag([1.0, 1.2e-14]) @ r.T
        eye = np.eye(3)
        dec = TridiagDecomp(
            V=eye[:, :2], Vp=eye[:, 2:], Vpp=eye[:, 3:], T=t, B=np.array([[0.3, 0.7]]),
            C=np.array([[1.0]]), D=np.zeros((0, 1)), E=np.zeros((0, 0)),
            lambda_min=-0.5, op_norm=1.0)
        assert numerical_rank(t, scale=1.0) == 1
        report = condition_report(dec)
        assert not report.t_invertible
        assert report.images_trivial_intersection

    @pytest.mark.parametrize("omega, mu", [
        (5.0, 5.0 * (1 + 1e-8)),
        (5.0, 5.0 * (1 + 1e-12)),
        (100.0, 100.0 * (1 + 1e-12)),
        (100.0 * (1 + 1e-12), 100.0),
        (2.0, 30.0),
    ])
    def test_k_at_close_shifts_matches_50_digits(self, omega, mu):
        # T = B = C = D = I and E = diag(xi): L = -K exactly, so its diagonal
        # is k(xi) = (mu/(xi+omega) - omega/(xi+mu)) / (mu-omega), which
        # loses eps/|mu-omega| to cancellation when formed as written
        mpmath = pytest.importorskip("mpmath")
        m = 50
        xi = np.random.default_rng(23).permutation(np.linspace(-0.5, 8.0, m))
        eye, w = np.eye(m), np.eye(3 * m)
        lam = np.linalg.eigvalsh(block_tridiagonal(eye, eye, eye, eye, np.diag(xi)))
        dec = TridiagDecomp(
            V=w[:, :m], Vp=w[:, m:2 * m], Vpp=w[:, 2 * m:], T=eye, B=eye, C=eye, D=eye,
            E=np.diag(xi), lambda_min=float(lam[0]), op_norm=float(np.abs(lam).max()))
        assert dec.omega_min < 2.0
        (sample,) = condition_report(dec, [(omega, mu)]).samples
        with mpmath.workdps(50):
            om, mu_ = mpmath.mpf(omega), mpmath.mpf(mu)
            ref = np.array([float((mu_ / (x + om) - om / (x + mu_)) / (mu_ - om))
                            for x in map(mpmath.mpf, xi)])
        np.testing.assert_allclose(-np.diag(sample.l_matrix), ref, rtol=8 * np.finfo(float).eps)

    def test_rejects_equal_shifts(self):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 6)
        s = random_subspace(rng, 6, 2, False)
        dec = tridiagonal_block_decomposition(a, s)
        with pytest.raises(ValueError):
            condition_report(dec, [(1.0, 1.0)])

    def test_rejects_infinite_shifts_by_name(self):
        # 7 x 7 SPD with p = q = 2: an infinite shift used to form a NaN L
        # and fail inside the SVD
        rng = np.random.default_rng(18)
        a = random_spd(rng, 7)
        s = random_subspace(rng, 7, 2, False)
        dec = tridiagonal_block_decomposition(a, s)
        assert (dec.p, dec.q) == (2, 2)
        with pytest.raises(ValueError, match="mu = inf"):
            condition_report(dec, [(0.5, OMEGA_INF)])
        with pytest.raises(ValueError, match="omega = inf"):
            condition_report(dec, [(OMEGA_INF, 0.5)])
        with pytest.raises(ValueError, match="omega = inf"):
            condition_report(dec, [(OMEGA_INF, OMEGA_INF)])


class TestConvexity:
    def test_worked_example_coordinates(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 0.0])
        s = krylov(a, b, 1)
        inst = ProblemInstance.create(a, s, b)
        omegas = np.array([1e-8, 0.5, 1.0, 50.0, 1e8])
        conv = convexity_coordinates(inst, omegas)
        assert not conv.all_equal
        # endpoints 0.5 and 0.4: t(omega) = (0.5 - (3+2w)/(6+5w)) / 0.1
        expected = (0.5 - (3 + 2 * omegas) / (6 + 5 * omegas)) / 0.1
        np.testing.assert_allclose(conv.ts, expected, atol=1e-8)
        assert conv.ts[-1] == pytest.approx(1.0, abs=1e-7)
        assert np.all(conv.off_residuals <= 1e-10)

    def test_zero_shift_is_exact_endpoint(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 0.0])
        inst = ProblemInstance.create(a, krylov(a, b, 1), b)
        conv = convexity_coordinates(inst, np.array([0.0, 1.0]))
        assert conv.ts[0] == 0.0

    def test_invariant_constraint_flags_all_equal(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([1.0, 0.0, 0.0])
        inst = ProblemInstance.create(a, krylov(a, b, 2), b)
        conv = convexity_coordinates(inst, np.array([0.5, 2.0]))
        assert conv.all_equal

    def test_invariant_constraint_never_solves_the_grid(self):
        # q = 0: the grid is not solved, so a shift below the guard or a NaN
        # in it does not raise
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([1.0, 0.0, 0.0])
        inst = ProblemInstance.create(a, krylov(a, b, 2), b)
        conv = convexity_coordinates(inst, np.array([0.5, -5.0, np.nan]))
        assert conv.all_equal
        assert conv.ts.tolist() == conv.off_residuals.tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_array_equal(conv.x_zero, solve_weighted(inst, 0.0))

    def test_rejects_indefinite_operator(self):
        a = np.diag([1.0, -2.0])
        b = np.array([1.0, 1.0])
        inst = ProblemInstance.create(a, krylov(a, b, 1), b)
        with pytest.raises(ValueError):
            convexity_coordinates(inst, np.array([3.0, 4.0]))

    def test_matches_per_shift_coordinates(self):
        rng = np.random.default_rng(19)
        a = random_spd(rng, 12, lo=0.3, hi=30.0)
        b = rng.standard_normal(12)
        inst = ProblemInstance.create(a, krylov(a, b, 3), b)
        omegas = np.logspace(-3, 3, 40)
        conv = convexity_coordinates(inst, omegas)
        x_zero = solve_weighted(inst, 0.0)
        w = solve_limit(inst) - x_zero
        for omega, t in zip(omegas, conv.ts):
            dx = solve_weighted(inst, float(omega)) - x_zero
            assert t == pytest.approx(np.vdot(w, dx).real / np.vdot(w, w).real, abs=1e-10)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_one_kernel_call_matches_the_dense_segment(self, monkeypatch, complex_field):
        # ts and the off-segment residuals come from p-vector coordinates;
        # the reference forms the n-vectors, with x_inf from solve_limit
        rng = np.random.default_rng(20)
        a = random_spd(rng, 12, lo=0.3, hi=30.0)
        if complex_field:
            u = random_unitary(rng, 12, True)
            a = hermitian_part(u @ a @ adjoint(u))
        b = gaussian_vector(rng, 12, complex_field)
        inst = ProblemInstance.create(a, krylov(a, b, 4), b)
        omegas = np.logspace(-3, 3, 30)
        calls = []
        original = analysis._weighted_solve
        monkeypatch.setattr(analysis, "_weighted_solve",
                            lambda *args: calls.append(args[3]) or original(*args))
        conv = convexity_coordinates(inst, omegas)
        assert len(calls) == 1 and calls[0].size == omegas.size + 2
        monkeypatch.undo()
        x_zero, x_inf = solve_weighted(inst, 0.0), solve_limit(inst)
        w = x_inf - x_zero
        xs = np.column_stack([solve_weighted(inst, float(omega)) for omega in omegas])
        dx = xs - x_zero[:, None]
        ts = np.real(adjoint(w) @ dx) / np.vdot(w, w).real
        off = np.linalg.norm(dx - w[:, None] * ts, axis=0) / np.linalg.norm(w)
        np.testing.assert_allclose(conv.ts, ts, rtol=0, atol=1e-12)
        np.testing.assert_allclose(conv.off_residuals, off, rtol=0, atol=1e-12)
        np.testing.assert_allclose(conv.x_inf, x_inf, rtol=0, atol=1e-12 * np.linalg.norm(x_inf))

    def test_failed_grid_points_are_named(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 0.0])
        inst = ProblemInstance.create(a, krylov(a, b, 1), b)
        with pytest.raises(ValueError, match=r"solver failed at grid points: \[\(1, 'omega = -5.0"):
            convexity_coordinates(inst, np.array([0.5, -5.0, 2.0]))
        with pytest.raises(ValueError, match=r"\[\(0, 'omega is NaN"):
            convexity_coordinates(inst, np.array([np.nan]))

    def test_rejects_non_krylov_constraint(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        inst = ProblemInstance.create(a, Subspace(np.array([[1.0], [0.0]])),
                                      np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            convexity_coordinates(inst, np.array([0.5, 1.0]))


class TestInjectivityScan:
    def test_invariant_case_everything_collides(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = Subspace(np.eye(3)[:, :1])
        inst = ProblemInstance.create(a, s, np.array([1.0, 1.0, 1.0]))
        report = injectivity_scan(inst, np.logspace(-2, 2, 8))
        assert report.full and report.n_points == 8

    def test_alpha_example_injective(self):
        p = 2
        a = alpha_operator(2.0, p)
        s = Subspace(np.eye(2 * p)[:, :p])
        rng = np.random.default_rng(18)
        b = rng.standard_normal(2 * p)
        assert np.linalg.norm(b[:p] - 2.0 * b[p:]) > 1e-3
        inst = ProblemInstance.create(a, s, b)
        report = injectivity_scan(inst, np.logspace(-2, 2, 12))
        assert report.empty

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_factored_distances_match_the_dense_family(self, complex_field):
        # scale and distances come from x0, V and the p-row coordinates;
        # an anchored constraint exercises the cross term of the norms
        rng = np.random.default_rng(19)
        a = random_hermitian_invertible(rng, 10, complex_field)
        space = normal_representation(gaussian_vector(rng, 10, complex_field),
                                      random_subspace(rng, 10, 3, complex_field))
        inst = ProblemInstance.create(a, space, gaussian_vector(rng, 10, complex_field))
        grid = inst.omega_min + np.logspace(-1, 2, 6)
        report = injectivity_scan(inst, grid, tol=1e10)
        x = sweep_solutions(inst, grid).solutions
        assert report.full
        np.testing.assert_allclose(report.scale, np.linalg.norm(x, axis=0).max(), rtol=1e-13)
        for i, j, dist in report.pairs:
            np.testing.assert_allclose(dist, np.linalg.norm(x[:, i] - x[:, j]), rtol=1e-9)

    def test_rejects_unsorted_grid(self):
        inst = ProblemInstance.create(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                      Subspace(np.array([[1.0], [0.0]])),
                                      np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            injectivity_scan(inst, np.array([1.0, 0.5]))
