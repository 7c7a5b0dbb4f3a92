import numpy as np
import pytest

from omegals.analysis import (
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
from omegals.decomposition import tridiagonal_block_decomposition
from omegals.linalg import adjoint, hermitian_part
from omegals.manifolds import swap_witness
from omegals.sampling import (
    gaussian_vector,
    random_hermitian_invertible,
    random_spd,
    random_subspace,
    random_unitary,
)
from omegals.solver import (
    OMEGA_INF,
    ProblemInstance,
    solution_map,
    solve_limit,
    solve_weighted,
)
from omegals.subspaces import (
    Subspace,
    eigenspace_split,
    index_of_invariance,
    krylov,
    normal_representation,
    strongly_orthogonal,
    subspaces_equal,
)


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
            assert s.contains(y.basis.basis[:, j], tol=1e-10)


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


class TestEstimateSpanDim:
    def test_invariant_returns_zero(self):
        assert estimate_span_dim(np.diag([1.0, 2.0]), Subspace(np.eye(2)[:, :1])) == 0

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

    def test_sample_count_validation(self):
        rng = np.random.default_rng(10)
        a = random_spd(rng, 8)
        s = random_subspace(rng, 8, 3, False)
        q = index_of_invariance(a, s)
        assert q >= 2
        with pytest.raises(ValueError):
            estimate_span_dim(a, s, n_samples=q - 1)


def uncompressed_kernel(a, s, omega):
    """Reference for constant_kernel: (shape of the stack, kernel) from the
    p x n functional of every eigenspace block, stacked uncompressed in the
    original coordinates, with the same rank cut."""
    m = solution_map(a, s, omega)
    r_op = np.eye(a.shape[0]) - a @ (s.basis @ m)
    f = np.vstack([s.basis.conj().T @ (q @ (q.conj().T @ r_op))
                   for _, q in eigenspace_split(a).blocks])
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
            assert kernel.contains(a @ s.basis[:, j], tol=1e-8)

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
        assert not kernel.contains(b, tol=1e-6)

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


class TestStrongOrthogonalityCharacterization:
    def test_invariant_constraint_residual_strongly_orthogonal(self):
        # constant solution family with a genuinely nonzero residual: an
        # invariant constraint subspace leaves the outer components of b
        # untouched, and those live in eigenspaces S never meets
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        s = Subspace(np.eye(5)[:, :2])
        split = eigenspace_split(a)
        b = np.array([1.0, -2.0, 3.0, 1.0, -1.0])
        inst = ProblemInstance.create(a, s, b)
        x = solve_weighted(inst, 0.7)
        residual = b - a @ x
        assert np.linalg.norm(residual) > 0.5
        for j in range(s.dim):
            assert strongly_orthogonal(residual, s.basis[:, j], split, tol=1e-8)

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
        split = eigenspace_split(a)
        b = rng.standard_normal(7)
        inst = ProblemInstance.create(a, s, b)
        grid = inst.omega_min + np.logspace(-1, 2, 20)
        est = sweep_solutions(inst, grid).est_dim
        assert est >= 1
        omega = float(grid[3])
        x = solve_weighted(inst, omega)
        residual = b - a @ x
        violated = any(
            not strongly_orthogonal(residual, s.basis[:, j], split, tol=1e-8)
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

    def test_rejects_indefinite_operator(self):
        a = np.diag([1.0, -2.0])
        b = np.array([1.0, 1.0])
        inst = ProblemInstance.create(a, krylov(a, b, 1), b)
        with pytest.raises(ValueError):
            convexity_coordinates(inst, np.array([3.0, 4.0]))

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

    def test_rejects_unsorted_grid(self):
        inst = ProblemInstance.create(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                      Subspace(np.array([[1.0], [0.0]])),
                                      np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            injectivity_scan(inst, np.array([1.0, 0.5]))
