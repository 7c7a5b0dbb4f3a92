import itertools
import math

import numpy as np
import pytest

from omegals.analysis import sweep_solutions
from omegals.decomposition import (
    block_tridiagonal,
    check_omega,
    guard_threshold,
    nullspace_of_hstar,
    shift_weights,
    shifted_blocks,
    tridiagonal_block_decomposition,
)
from omegals.linalg import (
    adjoint,
    default_rank_tol,
    hermitian_eig,
    hermitian_part,
    solve_hermitian,
)
from omegals.sampling import (
    gaussian_matrix,
    gaussian_vector,
    random_hermitian,
    random_hermitian_invertible,
    random_spd,
    random_subspace,
    random_unitary,
)
from omegals import solver
from omegals.solver import (
    OMEGA_INF,
    ProblemInstance,
    gram_cond_bound,
    difference_via_blocks,
    limit_difference_via_blocks,
    solution_map,
    solution_map_diff,
    solve_limit,
    solve_weighted,
)
from omegals.subspaces import (
    AffineSubspace,
    Subspace,
    index_of_invariance,
    normal_representation,
    subspace_sum,
)


def two_by_two_instance(b=None):
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = Subspace(np.array([[1.0], [0.0]]))
    b = np.array([1.0, 0.0]) if b is None else b
    return ProblemInstance.create(a, s, b)


def alpha_operator(alpha, p):
    """[[alpha I, I], [I, alpha I]] of size 2p."""
    eye = np.eye(p)
    return np.block([[alpha * eye, eye], [eye, alpha * eye]])


def alpha_coords(alpha, omega, c, cp):
    """Closed-form coordinate of the weighted solution for the block
    operator above with the leading-coordinate subspace."""
    num = (alpha**2 + alpha * omega - 1) * c + omega * cp
    den = alpha**3 + alpha**2 * omega - alpha + omega
    return num / den


def brute_force_1d(a, omega, b, tol=1e-8):
    """Golden-section scan of t -> ||(A + omega I)^{-1/2}(b - t A e_1)||^2.

    Independent of the solver path: the objective is evaluated through a
    dense inverse and minimized by interval shrinking.
    """
    a_omega_inv = np.linalg.inv(a + omega * np.eye(a.shape[0]))

    def objective(t):
        r = b - t * a[:, 0]
        return float(r @ a_omega_inv @ r)

    lo, hi = -10.0, 10.0
    phi = (np.sqrt(5.0) - 1) / 2
    while hi - lo > tol:
        m1 = hi - phi * (hi - lo)
        m2 = lo + phi * (hi - lo)
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


class TestClosedFormExample:
    def test_weighted_coordinates(self):
        inst = two_by_two_instance()
        for omega in (0.0, 1.0, 3.7):
            x = solve_weighted(inst, omega)
            expected = (3 + 2 * omega) / (6 + 5 * omega)
            assert x[0] == pytest.approx(expected, abs=1e-12)
            assert x[1] == pytest.approx(0.0, abs=1e-14)

    def test_brute_force_oracle(self):
        inst = two_by_two_instance()
        for omega in (0.0, 1.0):
            x = solve_weighted(inst, omega)
            t_star = brute_force_1d(inst.a, omega, inst.b)
            assert x[0] == pytest.approx(t_star, abs=1e-6)

    def test_difference_both_paths(self):
        inst = two_by_two_instance()
        d_direct = (solve_weighted(inst, 0.0) - solve_weighted(inst, 1.0))[0]
        assert d_direct == pytest.approx(1 / 22, abs=1e-12)
        dec = tridiagonal_block_decomposition(inst.a, inst.constraint.direction)
        sol = difference_via_blocks(dec, inst.b, 0.0, 1.0)
        assert sol.d[0] == pytest.approx(1 / 22, abs=1e-12)

    def test_limit_coordinate(self):
        inst = two_by_two_instance()
        x = solve_limit(inst)
        assert x[0] == pytest.approx(2 / 5, abs=1e-14)

    @pytest.mark.parametrize("alpha,p", [(2.0, 1), (2.0, 3), (-3.0, 2), (1.5, 4)])
    def test_alpha_family(self, alpha, p):
        rng = np.random.default_rng(17)
        a = alpha_operator(alpha, p)
        s = Subspace(np.eye(2 * p)[:, :p])
        b = rng.standard_normal(2 * p)
        c, cp = b[:p], b[p:]
        inst = ProblemInstance.create(a, s, b)
        assert index_of_invariance(a, s) == p
        for omega in (inst.omega_min + 0.5, inst.omega_min + 4.0):
            coords = solve_weighted(inst, omega)[:p]
            np.testing.assert_allclose(coords, alpha_coords(alpha, omega, c, cp),
                                       atol=1e-12)


class TestSolveParametric:
    def test_invariant_subspace_independent_of_omega_and_s(self):
        a = np.diag([1.0, 2.0, 5.0])
        s = Subspace(np.eye(3)[:, :2])
        b = np.array([1.0, 2.0, 3.0])
        inst = ProblemInstance.create(a, s, b)
        ref = solve_weighted(inst, 0.5)
        for omega in (2.0, 40.0):
            np.testing.assert_allclose(solve_weighted(inst, omega), ref, atol=1e-11)
        np.testing.assert_allclose(solve_limit(inst), ref, atol=1e-11)

    def test_affine_shift_equivalence(self):
        rng = np.random.default_rng(23)
        a = random_hermitian_invertible(rng, 6, False)
        direction = random_subspace(rng, 6, 2, False)
        x0_raw = rng.standard_normal(6)
        aff = normal_representation(x0_raw, direction)
        b = rng.standard_normal(6)
        inst_affine = ProblemInstance.create(a, aff, b)
        inst_sub = ProblemInstance.create(a, direction, b - a @ aff.x0)
        omega = inst_affine.omega_min + 1.4
        np.testing.assert_allclose(solve_weighted(inst_affine, omega),
                                   aff.x0 + solve_weighted(inst_sub, omega),
                                   atol=1e-11)

    def test_basis_invariance(self):
        rng = np.random.default_rng(25)
        a = random_hermitian_invertible(rng, 7, False)
        raw = rng.standard_normal((7, 3))
        s1 = Subspace.from_vectors(raw)
        s2 = Subspace(s1.basis @ random_unitary(rng, 3, False))
        b = rng.standard_normal(7)
        i1 = ProblemInstance.create(a, s1, b)
        i2 = ProblemInstance.create(a, s2, b)
        omega = i1.omega_min + 2.5
        assert np.linalg.norm(solve_weighted(i1, omega) - solve_weighted(i2, omega)) <= 1e-12

    def test_guard_errors(self):
        inst = two_by_two_instance()
        with pytest.raises(ValueError):
            solve_weighted(inst, inst.omega_min)
        with pytest.raises(ValueError, match="use solve_limit"):
            solve_weighted(inst, OMEGA_INF)

    @staticmethod
    def _guards():
        """(guard, threshold) for the instance, the decomposition and the
        solution map, which share one shift guard."""
        inst = two_by_two_instance()
        s = inst.constraint.direction
        dec = tridiagonal_block_decomposition(inst.a, s)
        return [
            (inst.check_omega, guard_threshold(inst.omega_min, inst.op_norm)),
            (lambda w: check_omega(dec, w), guard_threshold(dec.omega_min, dec.op_norm)),
            (lambda w: solution_map(inst.a, s, w), guard_threshold(inst.omega_min, inst.op_norm)),
        ]

    def test_guard_rejects_nan(self):
        for guard, _ in self._guards():
            with pytest.raises(ValueError, match="NaN"):
                guard(math.nan)

    def test_guard_rejects_shift_just_below_threshold(self):
        for guard, threshold in self._guards():
            with pytest.raises(ValueError, match="guard threshold"):
                guard(np.nextafter(threshold, -np.inf))
            guard(threshold)

    def test_instance_accepts_infinite_shift(self):
        inst = two_by_two_instance()
        inst.check_omega(OMEGA_INF)
        with pytest.raises(ValueError, match="guard threshold"):
            inst.check_omega(-OMEGA_INF)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance.create(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   Subspace(np.eye(2)[:, :1]), np.ones(2))
        with pytest.raises(ValueError):
            ProblemInstance.create(np.diag([1.0, 0.0]),
                                   Subspace(np.eye(2)[:, :1]), np.ones(2))
        with pytest.raises(ValueError):
            ProblemInstance.create(np.eye(2), Subspace.zero(2), np.ones(2))

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_instance_rejects_non_finite_input(self, complex_field):
        rng = np.random.default_rng(32)
        a = random_hermitian_invertible(rng, 5, complex_field)
        s = random_subspace(rng, 5, 2, complex_field)
        b = gaussian_vector(rng, 5, complex_field)
        space = normal_representation(gaussian_vector(rng, 5, complex_field), s)
        a_bad, b_bad, x0_bad = a.copy(), b.copy(), space.x0.copy()
        a_bad[1, 1] = np.nan
        b_bad[2] = np.inf
        x0_bad[0] = np.nan
        cases = [("operator", a_bad, space, b), ("b", a, space, b_bad),
                 ("constraint anchor x0", a, AffineSubspace(x0_bad, s), b)]
        for name, a_in, space_in, b_in in cases:
            with pytest.raises(ValueError, match=f"^{name} has a non-finite entry"):
                ProblemInstance.create(a_in, space_in, b_in)

    def test_instance_rejects_a_singular_operator(self):
        # the same singularity rule as solve_hermitian, with its own error
        cut = default_rank_tol((3, 3)) * 2.0
        s = Subspace(np.eye(3)[:, :1])
        with pytest.raises(ValueError, match="^operator is singular to working precision"):
            ProblemInstance.create(np.diag([2.0, 1.0, cut]), s, np.ones(3))
        ProblemInstance.create(np.diag([2.0, 1.0, 2 * cut]), s, np.ones(3))

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_instance_takes_a_given_factorization(self, complex_field):
        rng = np.random.default_rng(41)
        a = random_hermitian_invertible(rng, 6, complex_field)
        s = random_subspace(rng, 6, 2, complex_field)
        b = gaussian_vector(rng, 6, complex_field)
        eig = hermitian_eig(a)
        given = ProblemInstance.create(a, s, b, eig=eig)
        assert given.eig is eig
        omega = given.omega_min + 1.0
        np.testing.assert_array_equal(solve_weighted(given, omega),
                                      solve_weighted(ProblemInstance.create(a, s, b), omega))
        # the probe catches a factorization of a nearby operator
        other = hermitian_eig(a + 1e-8 * hermitian_part(gaussian_matrix(rng, 6, 6, complex_field)))
        with pytest.raises(ValueError, match="^factorization does not match the operator"):
            ProblemInstance.create(a, s, b, eig=other)

    def test_weighted_approaches_limit(self):
        rng = np.random.default_rng(26)
        a = random_hermitian_invertible(rng, 8, False)
        s = random_subspace(rng, 8, 3, False)
        b = rng.standard_normal(8)
        inst = ProblemInstance.create(a, s, b)
        x_far = solve_weighted(inst, 1e8)
        x_lim = solve_limit(inst)
        assert np.linalg.norm(x_far - x_lim) <= 1e-6 * max(1.0, np.linalg.norm(x_lim))


class TestSolveLimit:
    def test_exact_data(self):
        rng = np.random.default_rng(27)
        a = random_hermitian_invertible(rng, 6, False)
        s = random_subspace(rng, 6, 3, False)
        x_true = s.basis @ rng.standard_normal(3)
        inst = ProblemInstance.create(a, s, a @ x_true)
        x = solve_limit(inst)
        np.testing.assert_allclose(x, x_true, atol=1e-10)
        assert np.linalg.norm(inst.b - a @ x) <= 1e-10

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(28)
        a = random_spd(rng, 9)
        b = rng.standard_normal(9)
        from omegals.subspaces import krylov
        s = krylov(a, b, 4)
        inst = ProblemInstance.create(a, s, b)
        y, *_ = np.linalg.lstsq(a @ s.basis, b, rcond=None)
        np.testing.assert_allclose(solve_limit(inst), s.basis @ y, atol=1e-10)


class TestSolutionMaps:
    def test_operator_reproduces_solutions(self):
        rng = np.random.default_rng(29)
        a = random_hermitian_invertible(rng, 7, True)
        s = random_subspace(rng, 7, 3, True)
        omega = -float(np.linalg.eigvalsh(a)[0]) + 2.0
        m = solution_map(a, s, omega)
        assert m.shape == (3, 7)
        for _ in range(3):
            b = gaussian_vector(rng, 7, True)
            inst = ProblemInstance.create(a, s, b)
            np.testing.assert_allclose(s.basis @ (m @ b), solve_weighted(inst, omega),
                                       atol=1e-10)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_infinite_shift_gives_the_limit_map(self, complex_field):
        rng = np.random.default_rng(33)
        a = random_hermitian_invertible(rng, 7, complex_field)
        s = random_subspace(rng, 7, 3, complex_field)
        b = gaussian_vector(rng, 7, complex_field)
        x_limit = solve_limit(ProblemInstance.create(a, s, b))
        np.testing.assert_allclose(s.basis @ (solution_map(a, s, OMEGA_INF) @ b), x_limit,
                                   atol=1e-12 * np.linalg.norm(x_limit))

    def test_rank_deficient_image_raises(self):
        # A is singular on S, so A V has rank 1 < p = 2
        a = np.diag([3.0, 0.0, -1.0, 2.0])
        s = Subspace.from_vectors(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.5]]).T)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            solution_map(a, s, 5.0)

    def test_diff_vanishes_at_equal_shifts(self):
        rng = np.random.default_rng(30)
        a = random_hermitian_invertible(rng, 6, False)
        s = random_subspace(rng, 6, 2, False)
        omega = -float(np.linalg.eigvalsh(a)[0]) + 3.0
        d = solution_map_diff(a, s, omega, omega)
        assert np.linalg.norm(d) <= 1e-12

    def test_diff_zero_for_invariant_subspace(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = Subspace(np.eye(3)[:, :2])
        d = solution_map_diff(a, s, 0.5, 4.0)
        assert np.linalg.norm(d) <= 1e-12

    def test_rank_one_difference_with_constant_image(self):
        rng = np.random.default_rng(31)
        a = random_spd(rng, 8)
        b = rng.standard_normal(8)
        from omegals.subspaces import krylov
        s = krylov(a, b, 3)
        assert index_of_invariance(a, s) == 1
        images = []
        for omega, mu in [(0.1, 2.0), (0.5, 7.0), (3.0, 90.0)]:
            d = solution_map_diff(a, s, omega, mu)
            sv = np.linalg.svd(d, compute_uv=False)
            assert sv[0] > 1e-10 and sv[1] <= 1e-10 * sv[0]
            u, _, _ = np.linalg.svd(d)
            images.append(u[:, 0])
        for vec in images[1:]:
            overlap = abs(np.vdot(images[0], vec))
            assert overlap == pytest.approx(1.0, abs=1e-8)


def rotated_instance(lambdas, p, seed, complex_field=False):
    """An instance with spectrum ``lambdas`` in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    n = len(lambdas)
    u = random_unitary(rng, n, complex_field)
    a = hermitian_part((u * np.asarray(lambdas)) @ adjoint(u))
    return ProblemInstance.create(a, random_subspace(rng, n, p, complex_field),
                                  gaussian_vector(rng, n, complex_field))


def scaled_lstsq_solution(inst, omega):
    """argmin ||(A + omega I)^{-1/2} (b - A x)|| over the subspace, by least
    squares on the problem scaled in the eigenbasis of A."""
    lam, u = inst.eig.lambdas, inst.eig.u
    scale = (lam + omega) ** -0.5
    v = inst.constraint.direction.basis
    y, *_ = np.linalg.lstsq(scale[:, None] * (adjoint(u) @ (inst.a @ v)),
                            scale * (adjoint(u) @ inst.b), rcond=None)
    return v @ y


# cond(A) = 1e6; near the guard, A + omega I has the eigenvalue ~1e-8 from
# -1 while all the others stay near 1
INDEFINITE_SPECTRUM = [1.0, 0.5, 0.1, 1e-2, 1e-4, 1e-6, -1e-3, -1.0]


class TestWeightedSolveKernel:
    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_the_bound_holds(self):
        rng = np.random.default_rng(41)
        for complex_field in (False, True):
            a = random_hermitian_invertible(rng, 9, complex_field)
            inst = ProblemInstance.create(a, random_subspace(rng, 9, 4, complex_field),
                                          gaussian_vector(rng, 9, complex_field))
            q = inst._factors[0]
            omegas = inst.omega_min + np.array([1e-6, 0.1, 3.0, 1e4])
            bounds = gram_cond_bound(inst.eig.lambdas, omegas)
            weights = shift_weights(inst.eig.lambdas, [*omegas, OMEGA_INF])
            for omega, bound, row in zip(omegas, bounds, weights):
                w = 1.0 / (inst.eig.lambdas + omega)
                np.testing.assert_array_equal(row, w)
                assert np.linalg.cond(adjoint(q) @ (w[:, None] * q)) <= bound * (1 + 1e-6)
            assert (weights[-1] == 1.0).all()
        assert gram_cond_bound(np.array([3.0, -1.0]), [OMEGA_INF]).tolist() == [1.0]

    def test_a_shift_at_s_minus_one_takes_no_eigvalsh(self, eigvalsh_calls):
        # the guard caps cond(Q* W Q) at 1 + 2e8, far inside the singularity
        # test; at the threshold itself the computed lambda_min + omega ~ 1e-8
        # carries the rounding of omega, up to 2 eps / 1e-8 relative
        eps = np.finfo(float).eps
        inst = rotated_instance(INDEFINITE_SPECTRUM, 3, seed=42)
        omega = guard_threshold(inst.omega_min, inst.op_norm) + 1e-8
        ref = scaled_lstsq_solution(inst, omega)
        assert np.linalg.norm(solve_weighted(inst, omega) - ref) <= 1e-8 * np.linalg.norm(ref)
        for complex_field, seed in itertools.product((False, True), range(42, 62)):
            inst = rotated_instance(INDEFINITE_SPECTRUM, 3, seed, complex_field)
            threshold = guard_threshold(inst.omega_min, inst.op_norm)
            for omega in (threshold, threshold + 1e-8):
                bound = gram_cond_bound(inst.eig.lambdas, [omega])[0]
                assert bound <= (1 + 2e8) * (1 + 2e8 * eps)
                # the kernel's forward error is of order n eps cond(Q* W Q):
                # up to 3.8e-8 here, against about 1e-11 for the reference
                ref = scaled_lstsq_solution(inst, omega)
                assert (np.linalg.norm(solve_weighted(inst, omega) - ref)
                        <= inst.n * eps * bound * np.linalg.norm(ref))
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_chunk_boundaries(self, monkeypatch, complex_field):
        # n = 10 rows in chunks of 3 (3 + 3 + 3 + 1) against one chunk
        rng = np.random.default_rng(44)
        n, p = 10, 2
        a = random_hermitian_invertible(rng, n, complex_field)
        s = random_subspace(rng, n, p, complex_field)
        inst = ProblemInstance.create(a, s, gaussian_vector(rng, n, complex_field))
        omegas = inst.omega_min + np.array([0.3, 1.0, 7.0])
        whole = [solve_weighted(inst, w) for w in omegas], solution_map_diff(a, s, *omegas[:2])
        itemsize = 16 if complex_field else 8
        monkeypatch.setattr(solver, "GRAM_CHUNK_BYTES", 3 * itemsize * p * (p + 1) + 1)
        chunked = [solve_weighted(inst, w) for w in omegas], solution_map_diff(a, s, *omegas[:2])
        for x, y in zip(whole[0], chunked[0]):
            assert np.linalg.norm(x - y) <= 1e-13 * np.linalg.norm(x)
        assert np.linalg.norm(whole[1] - chunked[1]) <= 1e-13 * np.linalg.norm(whole[1])

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_factors_hold_one_n_by_p_array(self, complex_field):
        # Q, R and beta: the solutions are x0 + V y on the constraint basis
        # itself, so no second n x p basis is kept
        rng = np.random.default_rng(45)
        inst = ProblemInstance.create(random_hermitian_invertible(rng, 11, complex_field),
                                      random_subspace(rng, 11, 4, complex_field),
                                      gaussian_vector(rng, 11, complex_field))
        q, r, beta = inst._factors
        assert (q.shape, r.shape, beta.shape) == ((11, 4), (4, 4), (11,))
        p_mat = inst.eig.apply_uh(inst.a @ inst.constraint.direction.basis)
        np.testing.assert_allclose(q @ r, p_mat, atol=1e-13)


def graded_instance(seed, complex_field, indefinite, n=14, p=5):
    """A with the graded spectrum 1 ... 1e-6 (every third eigenvalue negated
    when ``indefinite``) in a random eigenbasis, a random S and b."""
    rng = np.random.default_rng(seed)
    lam = np.logspace(0, -6, n)
    if indefinite:
        lam[::3] *= -1
    u = random_unitary(rng, n, complex_field)
    a = hermitian_part((u * lam) @ adjoint(u))
    return ProblemInstance.create(a, random_subspace(rng, n, p, complex_field),
                                  gaussian_vector(rng, n, complex_field))


def mp_weighted_solution(inst, omega):
    """The s = -1 minimizer (plain residual minimizer at OMEGA_INF) over the
    constraint subspace, from the normal equations
    (AV)* (A + omega I)^{-1} A V y = (AV)* (A + omega I)^{-1} b solved with
    50 significant digits on the float64 data taken as exact."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, v, b = (mpmath.matrix(m.tolist())
                   for m in (inst.a, inst.constraint.direction.basis, inst.b))
        av = a * v
        wav, wb = av, b
        if omega != OMEGA_INF:
            inv = mpmath.inverse(a + mpmath.mpf(omega) * mpmath.eye(inst.n))
            wav, wb = inv * av, inv * b
        x = v * mpmath.lu_solve(av.H * wav, av.H * wb)
        return np.array([complex(x[i]) for i in range(inst.n)])


class TestHighPrecisionReference:
    # worst relative errors measured over these instances (float64 against
    # 50 digits): 5.4e-11 at omega_min + 1e-6, where A + omega I has
    # condition number 1e6, and 2.6e-14 at every other shift
    BOUNDS = {"near guard": 2e-10, "mid-range": 1e-13, "large": 1e-13, "limit": 1e-13}

    @pytest.mark.parametrize("indefinite", [False, True])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_solvers_and_sweep_match_the_reference(self, complex_field, indefinite):
        for seed in range(3):
            inst = graded_instance(seed, complex_field, indefinite)
            shifts = {"near guard": inst.omega_min + 1e-6, "mid-range": inst.omega_min + 1.0,
                      "large": 1e6, "limit": OMEGA_INF}
            assert shifts["near guard"] > guard_threshold(inst.omega_min, inst.op_norm)
            sweep = sweep_solutions(inst, list(shifts.values()))
            for j, (name, omega) in enumerate(shifts.items()):
                ref = mp_weighted_solution(inst, omega)
                single = solve_limit(inst) if omega == OMEGA_INF else solve_weighted(inst, omega)
                for x in (single, sweep.solutions[:, j]):
                    err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
                    assert err <= self.BOUNDS[name], (seed, name, err)


class TestDifferenceViaBlocks:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_direct_formula(self, complex_field):
        rng = np.random.default_rng(33)
        for _ in range(5):
            n = int(rng.integers(5, 12))
            p = int(rng.integers(1, n - 1))
            a = random_hermitian_invertible(rng, n, complex_field)
            s = random_subspace(rng, n, p, complex_field)
            dec = tridiagonal_block_decomposition(a, s)
            if dec.q == 0:
                continue
            b = gaussian_vector(rng, n, complex_field)
            inst = ProblemInstance.create(a, s, b)
            omega = inst.omega_min + 0.9
            mu = inst.omega_min + 6.0
            sol = difference_via_blocks(dec, b, omega, mu)
            direct = adjoint(dec.V) @ (solve_weighted(inst, omega) - solve_weighted(inst, mu))
            np.testing.assert_allclose(sol.d, direct, atol=1e-10)
            # the certificate u reproduces d through (H*H)^{-1} B*
            hh = hermitian_part(adjoint(dec.H) @ dec.H)
            np.testing.assert_allclose(solve_hermitian(hh, adjoint(dec.B) @ sol.u),
                                       sol.d, atol=1e-10)
            assert max(sol.residuals.values()) <= 1e-9

    def test_positive_zero_shift_reduction(self):
        # for positive operators the mu = 0 case collapses to one equation;
        # its oracle takes f(omega) from a dense solve with E + omega I, over
        # R and C, 1e-8 max(1, ||A||) above the guard and at 1e3 as well
        for complex_field in (False, True):
            rng = np.random.default_rng(34)
            a = random_spd(rng, 9, complex_field)
            s = random_subspace(rng, 9, 3, complex_field)
            dec = tridiagonal_block_decomposition(a, s)
            assert dec.q >= 1
            b = gaussian_vector(rng, 9, complex_field)
            guard = guard_threshold(dec.omega_min, dec.op_norm) + 1e-8 * max(1.0, dec.op_norm)
            for omega in (1.7, guard, 1e3):
                sol = difference_via_blocks(dec, b, omega, 0.0)
                c, cp, cpp = dec.coefficients(b)
                sb = shifted_blocks(dec, omega)
                e_omega = dec.E + omega * np.eye(dec.E.shape[0])
                z = (adjoint(dec.D) @ np.linalg.solve(e_omega, cpp)
                     + dec.B @ np.linalg.solve(dec.T, c) - cp)
                h = dec.H
                g_inv_h = np.linalg.solve(sb.G_omega, h)
                lhs = hermitian_part(adjoint(h) @ g_inv_h)
                rhs = -adjoint(g_inv_h) @ np.concatenate([np.zeros(dec.p), z])
                d_oracle = np.linalg.solve(lhs, rhs)
                # both routes solve with G_omega, whose condition number
                # (about 4e7 next to the guard) bounds their agreement there
                scale = 16 * (dec.p + dec.q) * np.finfo(float).eps * np.linalg.cond(sb.G_omega)
                np.testing.assert_allclose(sol.d, d_oracle,
                                           atol=max(1e-10, scale * np.linalg.norm(d_oracle)))

    def test_equal_shifts_give_zero(self):
        rng = np.random.default_rng(35)
        a = random_hermitian_invertible(rng, 7, False)
        s = random_subspace(rng, 7, 2, False)
        dec = tridiagonal_block_decomposition(a, s)
        b = rng.standard_normal(7)
        omega = dec.omega_min + 2.2
        sol = difference_via_blocks(dec, b, omega, omega)
        assert np.linalg.norm(sol.d) <= 1e-11

    def test_u_matches_zprime_route(self):
        # z' takes f(omega) and f(mu) from dense solves with E + sigma I, over
        # R and C, at close shifts and at 1e-8 max(1, ||A||) above the guard
        # against 1e3 either way round
        for complex_field in (False, True):
            rng = np.random.default_rng(36)
            a = random_hermitian_invertible(rng, 8, complex_field)
            s = random_subspace(rng, 8, 3, complex_field)
            dec = tridiagonal_block_decomposition(a, s)
            ns = nullspace_of_hstar(dec)
            b = gaussian_vector(rng, 8, complex_field)
            guard = guard_threshold(dec.omega_min, dec.op_norm) + 1e-8 * max(1.0, dec.op_norm)
            for omega, mu in [(dec.omega_min + 1.1, dec.omega_min + 5.5),
                              (guard, 1e3), (1e3, guard)]:
                sol = difference_via_blocks(dec, b, omega, mu)
                sb_omega = shifted_blocks(dec, omega)
                sb_mu = shifted_blocks(dec, mu)
                c, cp, cpp = dec.coefficients(b)
                eye = np.eye(dec.E.shape[0])
                z_t = (adjoint(dec.D) @ (np.linalg.solve(dec.E + omega * eye, cpp)
                                         - np.linalg.solve(dec.E + mu * eye, cpp))
                       + np.hstack([dec.B, dec.C - sb_mu.F_omega]) @ (ns.N @ sol.t))
                z_prime = (np.hstack([dec.B, dec.C - sb_omega.F_omega]) @ (ns.N @ sol.t_prime)
                           - z_t)
                # t and t' come from solves with G_omega and G_mu: their
                # condition number bounds the agreement next to the guard
                cond = max(np.linalg.cond(sb.G_omega) for sb in (sb_omega, sb_mu))
                scale = 16 * (dec.p + dec.q) * np.finfo(float).eps * cond
                np.testing.assert_allclose(sol.u, z_prime,
                                           atol=max(1e-9, scale * np.linalg.norm(z_prime)))

    def test_q_zero_raises(self):
        dec = tridiagonal_block_decomposition(np.diag([1.0, 2.0]),
                                              Subspace(np.eye(2)[:, :1]))
        with pytest.raises(ValueError):
            difference_via_blocks(dec, np.ones(2), 0.5, 1.5)


class TestLimitDifferenceViaBlocks:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_direct(self, complex_field):
        rng = np.random.default_rng(37)
        a = random_hermitian_invertible(rng, 9, complex_field)
        s = random_subspace(rng, 9, 4, complex_field)
        dec = tridiagonal_block_decomposition(a, s)
        assert dec.q >= 1
        b = gaussian_vector(rng, 9, complex_field)
        inst = ProblemInstance.create(a, s, b)
        omega = inst.omega_min + 1.8
        sol = difference_via_blocks(dec, b, omega, OMEGA_INF)
        direct = adjoint(dec.V) @ (solve_weighted(inst, omega) - solve_limit(inst))
        np.testing.assert_allclose(sol.d, direct, atol=1e-10)
        assert max(sol.residuals.values()) <= 1e-9
        np.testing.assert_array_equal(limit_difference_via_blocks(dec, b, omega).d, sol.d)
        # a finite mu approaches it at O(1/mu), and mu t(mu) approaches its t
        gaps = []
        for scale in (1e6, 1e8):
            mu = scale * dec.op_norm
            near = difference_via_blocks(dec, b, omega, mu)
            gaps.append(np.linalg.norm(near.d - sol.d) / np.linalg.norm(sol.d))
            assert np.linalg.norm(mu * near.t - sol.t) <= 1e2 / scale * np.linalg.norm(sol.t)
        assert gaps[1] <= 1e-6
        assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.05)

    def test_bad_shifts_raise(self):
        rng = np.random.default_rng(38)
        a = random_hermitian_invertible(rng, 7, False)
        s = random_subspace(rng, 7, 2, False)
        dec = tridiagonal_block_decomposition(a, s)
        b = rng.standard_normal(7)
        omega = dec.omega_min + 1.0
        below = guard_threshold(dec.omega_min, dec.op_norm) - 1e-3
        with pytest.raises(ValueError, match="NaN"):
            difference_via_blocks(dec, b, omega, math.nan)
        with pytest.raises(ValueError, match="guard"):
            difference_via_blocks(dec, b, omega, below)
        with pytest.raises(ValueError, match="guard"):
            limit_difference_via_blocks(dec, b, below)
        with pytest.raises(ValueError, match="finite"):
            difference_via_blocks(dec, b, OMEGA_INF, omega)


@pytest.mark.parametrize("complex_field", [False, True])
def test_block_routes_without_outer_block(complex_field):
    # n = p + q: E is 0 x 0 and every D* (E + sigma I)^{-1} c'' term is zero
    rng = np.random.default_rng(39)
    a = random_hermitian_invertible(rng, 8, complex_field)
    s = random_subspace(rng, 8, 4, complex_field)
    dec = tridiagonal_block_decomposition(a, s)
    assert dec.p + dec.q == dec.n
    b = gaussian_vector(rng, 8, complex_field)
    inst = ProblemInstance.create(a, s, b)
    omega, mu = inst.omega_min + 0.9, inst.omega_min + 6.0
    x_omega = solve_weighted(inst, omega)
    np.testing.assert_allclose(difference_via_blocks(dec, b, omega, mu).d,
                               adjoint(dec.V) @ (x_omega - solve_weighted(inst, mu)), atol=1e-10)
    np.testing.assert_allclose(difference_via_blocks(dec, b, omega, OMEGA_INF).d,
                               adjoint(dec.V) @ (x_omega - solve_limit(inst)), atol=1e-10)


@pytest.mark.parametrize("complex_field", [False, True])
def test_recover_u_falls_back_to_lstsq(monkeypatch, complex_field):
    # A from designed blocks: B has singular values 1 and 1e-9, so
    # B (H*H)^{-1} B* is singular to working precision while H*H = T^2 + B*B
    # stays well conditioned, and u comes from the lstsq fallback
    rng = np.random.default_rng(7)
    p = q = r = 2
    b_block = (random_unitary(rng, q, complex_field) @ np.diag([1.0, 1e-9])
               @ random_unitary(rng, p, complex_field))
    compressed = block_tridiagonal(np.diag([1.5, -0.8]), b_block,
                                   random_hermitian(rng, q, complex_field),
                                   gaussian_matrix(rng, r, q, complex_field),
                                   random_hermitian(rng, r, complex_field))
    w = random_unitary(rng, p + q + r, complex_field)
    a = hermitian_part(w @ compressed @ adjoint(w))
    s = Subspace(w[:, :p])
    dec = tridiagonal_block_decomposition(a, s)
    assert dec.q == q
    b = gaussian_vector(rng, p + q + r, complex_field)
    inst = ProblemInstance.create(a, s, b)
    calls, lstsq = [], np.linalg.lstsq

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return lstsq(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    omega = inst.omega_min + 1.0
    for mu in (inst.omega_min + 5.0, OMEGA_INF):
        del calls[:]
        sol = difference_via_blocks(dec, b, omega, mu)
        assert calls == [(p, q)]
        assert max(sol.residuals.values()) <= 1e-12
        x_mu = solve_limit(inst) if mu == OMEGA_INF else solve_weighted(inst, mu)
        np.testing.assert_allclose(sol.d, adjoint(dec.V) @ (solve_weighted(inst, omega) - x_mu),
                                   atol=1e-10)


class TestDecouplingAndWeakBound:
    def make_split_instance(self, seed=38):
        # S = (span of two eigenvectors) + (2 extra random directions
        # orthogonal to them): the eigenvector part is invariant.
        rng = np.random.default_rng(seed)
        a = random_hermitian_invertible(rng, 9, False)
        eig_u = np.linalg.eigh(a)[1]
        s1 = Subspace(eig_u[:, :2])
        extra_raw = rng.standard_normal((9, 2))
        extra_raw -= s1.basis @ (s1.basis.T @ extra_raw)
        s_prime = Subspace.from_vectors(extra_raw)
        s = subspace_sum(s1, s_prime)
        assert s.dim == 4
        return a, s, s1, s_prime, rng

    def test_invariant_component_is_shift_independent(self):
        a, s, s1, s_prime, rng = self.make_split_instance()
        b = rng.standard_normal(9)
        inst = ProblemInstance.create(a, s, b)
        omegas = [inst.omega_min + w for w in (0.5, 1.5, 8.0, 40.0)]
        comps = [s1.basis.T @ x
                 for x in [solve_weighted(inst, omega) for omega in omegas] + [solve_limit(inst)]]
        for comp in comps[1:]:
            np.testing.assert_allclose(comp, comps[0], atol=1e-9)
        # and the fixed component solves the restricted problem
        inst1 = ProblemInstance.create(a, s1, s1.basis @ (s1.basis.T @ b))
        y_fixed = s1.basis.T @ solve_weighted(inst1, omegas[0])
        np.testing.assert_allclose(comps[0], y_fixed, atol=1e-9)

    def test_weak_bound_on_affine_hull(self):
        a, s, s1, s_prime, rng = self.make_split_instance(39)
        b = rng.standard_normal(9)
        inst = ProblemInstance.create(a, s, b)
        omegas = np.linspace(inst.omega_min + 0.5, inst.omega_min + 30, 12)
        xs = np.column_stack([solve_weighted(inst, w) for w in omegas])
        centered = xs - xs.mean(axis=1, keepdims=True)
        sv = np.linalg.svd(centered, compute_uv=False)
        hull_dim = int(np.count_nonzero(sv > 1e-8 * sv[0]))
        assert hull_dim <= s_prime.dim
        # full chain: hull dim <= index <= dim of the non-invariant part <= dim S
        q = index_of_invariance(a, s)
        assert hull_dim <= q <= s_prime.dim <= s.dim


class TestInvariantEquivalence:
    def test_invariant_implies_constant(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        s = Subspace(np.eye(4)[:, 1:3])
        rng = np.random.default_rng(40)
        for _ in range(3):
            b = rng.standard_normal(4)
            inst = ProblemInstance.create(a, s, b)
            xs = [solve_weighted(inst, w) for w in (0.2, 1.0, 9.0)]
            for x in xs[1:]:
                np.testing.assert_allclose(x, xs[0], atol=1e-11)

    def test_constant_implies_invariant(self):
        # contrapositive on a generic non-invariant instance: some b moves
        rng = np.random.default_rng(41)
        a = random_hermitian_invertible(rng, 5, False)
        s = random_subspace(rng, 5, 2, False)
        assert index_of_invariance(a, s) >= 1
        moved = False
        for _ in range(5):
            b = rng.standard_normal(5)
            inst = ProblemInstance.create(a, s, b)
            x1 = solve_weighted(inst, inst.omega_min + 0.7)
            x2 = solve_weighted(inst, inst.omega_min + 7.0)
            if np.linalg.norm(x1 - x2) > 1e-8:
                moved = True
                break
        assert moved
