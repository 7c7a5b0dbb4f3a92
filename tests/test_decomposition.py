import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from omegals.analysis import difference_subspace
from omegals.decomposition import (
    _coupled_solve,
    guard_threshold,
    j_matrix,
    nullspace_of_hstar,
    shifted_blocks,
    tridiagonal_block_decomposition,
    tridiagonal_block_decompositions,
)
from omegals.linalg import (
    adjoint,
    extend_orthonormal,
    hermitian_part,
    numerical_rank,
    orthonormalize,
    solve_hermitian,
)
from omegals.manifolds import swap_witness
from omegals.sampling import (
    gaussian_matrix,
    random_hermitian,
    random_hermitian_invertible,
    random_spd,
    random_subspace,
    random_unitary,
)
from omegals.subspaces import PaddedGroup, Subspace, index_of_invariance, subspaces_equal


def coupling_shifts(dec, *shifts):
    """The given shifts plus 1e-8 max(1, ||A||) above the guard and 1e3."""
    near = guard_threshold(dec.omega_min, dec.op_norm) + 1e-8 * max(1.0, dec.op_norm)
    return (*shifts, near, 1e3)


def assert_coupling_matches_dense(dec, shifts, complex_field):
    """F_sigma and f(sigma) = D* (E + sigma I)^{-1} x, read from the cached
    coupling of E, against dense solves with E + sigma I, within
    16 r eps cond(E + sigma I) relative."""
    rng = np.random.default_rng(0)
    r = dec.E.shape[0]
    x = gaussian_matrix(rng, r, 2, complex_field)
    u_e = dec.E_coupling[1]
    for sigma in shifts:
        e_sigma = dec.E + sigma * np.eye(r)
        tol = 16 * r * np.finfo(float).eps * (np.linalg.cond(e_sigma) if r else 1.0)
        for got, want in ((shifted_blocks(dec, sigma).F_omega, dec.D),
                          (_coupled_solve(dec, sigma, adjoint(u_e) @ x), x)):
            want = adjoint(dec.D) @ np.linalg.solve(e_sigma, want)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want), sigma


def hermitian(seed, n, complex_field=False):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if complex_field:
        m = m + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


class TestTridiagonalDecomposition:
    def test_two_by_two_example(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        dec = tridiagonal_block_decomposition(a, Subspace(np.array([[1.0], [0.0]])))
        assert (dec.p, dec.q, dec.n) == (1, 1, 2)
        np.testing.assert_allclose(dec.T, [[2.0]])
        np.testing.assert_allclose(np.abs(dec.B), [[1.0]])
        assert dec.Vpp.shape == (2, 0)
        assert dec.E.shape == (0, 0)

    def test_invariant_subspace_block_diagonal(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        dec = tridiagonal_block_decomposition(a, Subspace(np.eye(4)[:, :2]))
        assert dec.q == 0
        assert dec.B.shape == (0, 2) and dec.Vp.shape == (4, 0)
        # block-diagonal: the compression splits into T and E
        np.testing.assert_allclose(dec.T, np.diag([1.0, 2.0]), atol=1e-14)
        np.testing.assert_allclose(dec.E, np.diag([3.0, 4.0]), atol=1e-14)
        # D is 2 x 0: F_omega is 0 x 0 and f(sigma) has no rows
        assert_coupling_matches_dense(dec, coupling_shifts(dec, 0.5), False)

    def test_swap_witness_block_pattern(self):
        # n=4, p=2, q=1: the witness swaps v1 <-> v3, fixes v2 and v4
        s = Subspace(np.eye(4)[:, :2])
        s_prime = Subspace(np.eye(4)[:, :3])
        a0 = swap_witness(s, s_prime)
        dec = tridiagonal_block_decomposition(a0, s)
        assert (dec.p, dec.q) == (2, 1)
        np.testing.assert_allclose(dec.T, np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(np.abs(dec.B), [[1.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(dec.C, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(dec.D, np.zeros((1, 1)), atol=1e-14)
        np.testing.assert_allclose(dec.E, [[1.0]], atol=1e-14)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_reconstruction(self, complex_field):
        rng = np.random.default_rng(3)
        a = hermitian(4, 9, complex_field)
        s = random_subspace(rng, 9, 3, complex_field)
        dec = tridiagonal_block_decomposition(a, s)
        w = dec.W
        np.testing.assert_allclose(w @ adjoint(w), np.eye(9), atol=1e-12)
        recon = w @ dec.compressed() @ adjoint(w)
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_rank_of_coupling_block(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(4, 10))
            p = int(rng.integers(1, n))
            a = random_hermitian_invertible(rng, n, bool(trial % 2))
            s = random_subspace(rng, n, p, bool(trial % 2))
            dec = tridiagonal_block_decomposition(a, s)
            assert numerical_rank(dec.B) == dec.q
            assert numerical_rank(dec.H) == dec.p
            assert dec.q == index_of_invariance(a, s)

    def test_images_of_bases(self):
        rng = np.random.default_rng(6)
        a = hermitian(7, 8)
        s = random_subspace(rng, 8, 3, False)
        dec = tridiagonal_block_decomposition(a, s)
        assert subspaces_equal(Subspace(dec.V), s)
        from omegals.subspaces import reach
        assert subspaces_equal(Subspace(np.hstack([dec.V, dec.Vp])), reach(a, s))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            tridiagonal_block_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                            Subspace(np.array([[1.0], [0.0]])))

    def test_zero_dim_subspace(self):
        a = hermitian(8, 4)
        dec = tridiagonal_block_decomposition(a, Subspace.zero(4))
        assert (dec.p, dec.q) == (0, 0)
        assert dec.E.shape == (4, 4)
        np.testing.assert_allclose(dec.E, a, atol=1e-14)

    def test_difference_subspace_basis_independent(self):
        rng = np.random.default_rng(9)
        a = hermitian(10, 7)
        s = random_subspace(rng, 7, 3, False)
        dec1 = tridiagonal_block_decomposition(a, s)
        rotated = Subspace(s.basis @ random_unitary(rng, 3, False))
        dec2 = tridiagonal_block_decomposition(a, rotated)
        y1 = difference_subspace(dec1)
        y2 = difference_subspace(dec2)
        assert y1.basis.dim == y2.basis.dim == dec1.q
        assert subspaces_equal(y1.basis, y2.basis, tol=1e-9)

    def test_inverse_operator_same_q(self):
        rng = np.random.default_rng(11)
        a = random_hermitian_invertible(rng, 8, False)
        s = random_subspace(rng, 8, 3, False)
        dec = tridiagonal_block_decomposition(a, s)
        dec_inv = tridiagonal_block_decomposition(np.linalg.inv(a), s)
        assert dec_inv.q == dec.q


def edge_shape_instance(seed, n, shape, complex_field):
    """(A, S, expected q) for one edge shape of the adapted basis: q = 0 (S
    spanned by eigenvectors of A, rotated inside their span; p = n allowed),
    q = 0 for the eigenvectors of the two smallest eigenvalues of
    diag(100, 50, 20, 1e-3, 2e-3, 5e-3) rotated (n = 6; their round-off is of
    the size of ||A||, not of ||A S||), n = p + q (p >= n/2, generic S) and
    p = n - 1 (generic S)."""
    rng = np.random.default_rng(seed)
    if shape == "small-invariant":
        u = random_unitary(rng, 6, complex_field)
        a = hermitian_part((u * np.array([100.0, 50.0, 20.0, 1e-3, 2e-3, 5e-3])) @ adjoint(u))
        return a, Subspace(np.linalg.eigh(a)[1][:, :2]), 0
    if shape == "invariant":
        p = int(rng.integers(1, n + 1))
        u = random_unitary(rng, n, complex_field)
        lam = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        a = hermitian_part((u * lam) @ adjoint(u))
        basis = u[:, rng.permutation(n)[:p]] @ random_unitary(rng, p, complex_field)
        return a, Subspace(basis), 0
    p = n - 1 if shape == "codim-one" else int(rng.integers((n + 1) // 2, n))
    return random_hermitian(rng, n, complex_field), random_subspace(rng, n, p, complex_field), n - p


class TestAdaptedBasisEdgeShapes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 9),
           st.sampled_from(["invariant", "small-invariant", "n=p+q", "codim-one"]),
           st.booleans())
    def test_unitary_and_reassembles(self, seed, n, shape, complex_field):
        a, s, q_expected = edge_shape_instance(seed, n, shape, complex_field)
        n = a.shape[0]
        dec = tridiagonal_block_decomposition(a, s)
        w = dec.W
        assert w.shape == (n, n)
        assert np.linalg.norm(adjoint(w) @ w - np.eye(n)) <= 1e-12
        q = index_of_invariance(a, s)
        assert dec.q == q == q_expected <= min(dec.p, n - dec.p)
        assert np.linalg.norm(w @ dec.compressed() @ adjoint(w) - a) <= 1e-12 * np.linalg.norm(a)


def complement_instance(shape, complex_field):
    """(A, S, q) on F^11: a generic S of dimension 4 (q = 4), p = 0, q = 0
    (S spanned by 3 rotated eigenvectors of A), n = p + q (p = 6), and S
    spanned by e_1 and a generic vector, whose first reflector has tau = 0."""
    rng = np.random.default_rng(23)
    n = 11
    a = random_hermitian(rng, n, complex_field)
    if shape == "p=0":
        return a, Subspace.zero(n, complex_field), 0
    if shape == "q=0":
        u = np.linalg.eigh(a)[1]
        return a, Subspace(u[:, [0, 4, 7]] @ random_unitary(rng, 3, complex_field)), 0
    if shape == "tau=0":
        x = gaussian_matrix(rng, n, 1, complex_field)
        x[0] = 0.0
        basis = np.hstack([np.eye(n)[:, :1], x / np.linalg.norm(x)])
        return a, Subspace(basis.astype(x.dtype)), 2
    p = 6 if shape == "n=p+q" else 4
    return a, random_subspace(rng, n, p, complex_field), n - p if shape == "n=p+q" else p


class TestHouseholderComplement:
    """V'', D and E built from the Householder reflectors of [V V']."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", ["generic", "p=0", "q=0", "n=p+q", "tau=0"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_blocks_are_the_compression_by_a_unitary_w(self, shape, sparse, complex_field):
        a, s, q = complement_instance(shape, complex_field)
        n = a.shape[0]
        dec = tridiagonal_block_decomposition(sp.csr_matrix(a) if sparse else a, s)
        assert (dec.p, dec.q) == (s.dim, q)
        assert dec.Vpp.shape == (n, n - dec.p - dec.q)
        w = dec.W
        assert np.linalg.norm(adjoint(w) @ w - np.eye(n)) <= 1e-13
        d_dense = adjoint(dec.Vpp) @ a @ dec.Vp
        e_dense = adjoint(dec.Vpp) @ a @ dec.Vpp
        assert np.linalg.norm(dec.D - d_dense) <= 1e-13 * np.linalg.norm(d_dense)
        assert np.linalg.norm(dec.E - e_dense) <= 1e-13 * np.linalg.norm(e_dense)
        assert_coupling_matches_dense(dec, coupling_shifts(dec, dec.omega_min + 1.0),
                                      complex_field)


def stacked_instances(complex_field):
    """(A, S, q) of several n in one field: generic with q < p, p = q, q = 0
    (S spanned by rotated eigenvectors of A), n = p + q, and p = 0."""
    rng = np.random.default_rng(31)
    cases = []
    for n, p in [(7, 4), (8, 3), (6, 2), (5, 3), (4, 0)]:
        a = random_hermitian(rng, n, complex_field)
        if n == 6:
            u = np.linalg.eigh(a)[1][:, [1, 4]]
            cases.append((a, Subspace(u @ random_unitary(rng, 2, complex_field)), 0))
        elif p == 0:
            cases.append((a, Subspace.zero(n, complex_field), 0))
        else:
            cases.append((a, random_subspace(rng, n, p, complex_field), min(p, n - p)))
    return cases


def stacked(cases):
    """The group, the operator stack and the space of ``cases``."""
    group = PaddedGroup(np.array([a.shape[0] for a, _, _ in cases]))
    return group, group.pad([a for a, _, _ in cases])[0], group.pad([s.basis for _, s, _ in cases])


class TestStackedDecompositions:
    """The stacked pass of the verify suites against the single path, one
    instance at a time."""

    @pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
    def test_blocks_agree_with_the_single_path(self, complex_field):
        cases = stacked_instances(complex_field)
        decs = tridiagonal_block_decompositions(*stacked(cases))
        for (a, s, q), dec in zip(cases, decs):
            one = tridiagonal_block_decomposition(a, s)
            assert (dec.n, dec.p, dec.q) == (one.n, one.p, one.q) == (a.shape[0], s.dim, q)
            for got, want in [(dec.V, one.V), (dec.Vp, one.Vp), (dec.T, one.T), (dec.B, one.B),
                              (dec.C, one.C), (adjoint(dec.D) @ dec.D, adjoint(one.D) @ one.D),
                              (np.linalg.eigvalsh(dec.E), np.linalg.eigvalsh(one.E))]:
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
            assert dec.lambda_min == pytest.approx(one.lambda_min, rel=1e-14, abs=1e-14)
            assert dec.op_norm == pytest.approx(one.op_norm, rel=1e-14)
            w = dec.W
            assert np.linalg.norm(adjoint(w) @ w - np.eye(dec.n)) <= 1e-13
            reassembled = w @ dec.compressed() @ adjoint(w)
            assert np.linalg.norm(reassembled - a) <= 1e-13 * np.linalg.norm(a)

    def test_a_spectrum_past_the_padding(self):
        # a positive definite A next to a larger one: the padding moves
        # neither end of its spectrum
        rng = np.random.default_rng(3)
        cases = [(random_spd(rng, 3), random_subspace(rng, 3, 1, False), 1),
                 (-random_spd(rng, 6), random_subspace(rng, 6, 2, False), 2)]
        for (a, _, _), dec in zip(cases, tridiagonal_block_decompositions(*stacked(cases))):
            lam = np.linalg.eigvalsh(a)
            assert dec.lambda_min == pytest.approx(lam[0], rel=1e-14)
            assert dec.op_norm == pytest.approx(np.abs(lam).max(), rel=1e-14)

    def test_a_non_hermitian_operator_fails_its_batch(self):
        cases = stacked_instances(True)
        a, s, q = cases[2]
        cases[2] = (a + 1e-6 * np.triu(np.ones_like(a), 1), s, q)
        with pytest.raises(ValueError, match="^operator is not Hermitian within tolerance$"):
            tridiagonal_block_decomposition(*cases[2][:2])
        with pytest.raises(ValueError, match="^operator is not Hermitian within tolerance$"):
            tridiagonal_block_decompositions(*stacked(cases))


class TestNullspace:
    def test_q_zero_raises(self):
        dec0 = tridiagonal_block_decomposition(np.diag([1.0, 2.0]),
                                               Subspace(np.eye(2)[:, :1]))
        assert dec0.q == 0  # invariant coordinate subspace
        with pytest.raises(ValueError):
            nullspace_of_hstar(dec0)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_identities(self, complex_field):
        rng = np.random.default_rng(13)
        a = random_hermitian_invertible(rng, 9, complex_field)
        s = random_subspace(rng, 9, 4, complex_field)
        dec = tridiagonal_block_decomposition(a, s)
        assert dec.q >= 1
        ns = nullspace_of_hstar(dec)
        hstar = np.hstack([dec.T, adjoint(dec.B)])
        assert np.linalg.norm(hstar @ ns.N) <= 1e-10 * np.linalg.norm(hstar)
        assert numerical_rank(ns.N) == dec.q
        assert numerical_rank(ns.N1) == dec.q
        bbstar = hermitian_part(dec.B @ adjoint(dec.B))
        predicted = -solve_hermitian(bbstar, dec.B @ (dec.T @ ns.N1))
        np.testing.assert_allclose(ns.N2, predicted, atol=1e-10)

    def test_invertible_t_choice(self):
        rng = np.random.default_rng(14)
        a = random_spd(rng, 7)
        s = random_subspace(rng, 7, 3, False)
        dec = tridiagonal_block_decomposition(a, s)
        ns = nullspace_of_hstar(dec)
        candidate = np.vstack([-solve_hermitian(dec.T, adjoint(dec.B)),
                               np.eye(dec.q)])
        assert subspaces_equal(Subspace(orthonormalize(ns.N)),
                               Subspace(orthonormalize(candidate)))

    def test_square_coupling_block(self):
        # p = q forces B to be square invertible, hence N1 invertible
        rng = np.random.default_rng(15)
        a = random_hermitian_invertible(rng, 8, False)
        s = random_subspace(rng, 8, 3, False)
        dec = tridiagonal_block_decomposition(a, s)
        assert dec.q == dec.p  # generic for n >= 2p
        ns = nullspace_of_hstar(dec)
        assert numerical_rank(ns.N1) == dec.p


class TestShiftedBlocks:
    def test_guard(self):
        a = np.diag([1.0, 2.0, 3.0])
        dec = tridiagonal_block_decomposition(a, Subspace(np.eye(3)[:, :1]))
        assert dec.omega_min == -1.0
        with pytest.raises(ValueError):
            shifted_blocks(dec, dec.omega_min)
        assert guard_threshold(dec.omega_min, dec.op_norm) > dec.omega_min

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_block_inverse_identities(self, complex_field):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 8, complex_field)
        s = random_subspace(rng, 8, 3, complex_field)
        dec = tridiagonal_block_decomposition(a, s)
        omega = 0.7
        sb = shifted_blocks(dec, omega)
        vvp = np.hstack([dec.V, dec.Vp])
        a_omega_inv = np.linalg.inv(a + omega * np.eye(8))
        # compressed resolvent block
        lhs = np.linalg.inv(sb.G_omega)
        rhs = adjoint(vvp) @ a_omega_inv @ vvp
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)
        # coupling to the outer block
        r = dec.n - dec.p - dec.q
        e_omega = dec.E + omega * np.eye(r)
        if r:
            lhs2 = -lhs @ np.vstack([np.zeros((dec.p, r)),
                                     adjoint(dec.D) @ np.linalg.inv(e_omega)])
            rhs2 = adjoint(vvp) @ a_omega_inv @ dec.Vpp
            assert np.linalg.norm(lhs2 - rhs2) <= 1e-10 * max(1.0, np.linalg.norm(rhs2))
        # positivity of the shifted blocks as formed
        assert np.linalg.eigvalsh(sb.G_omega)[0] > 0
        if r:
            assert np.linalg.eigvalsh(e_omega)[0] > 0
            assert np.linalg.eigvalsh(sb.F_omega)[0] >= -1e-12
        assert_coupling_matches_dense(dec, coupling_shifts(dec, omega), complex_field)

    def test_zero_shift_row_identity_for_positive_operator(self):
        rng = np.random.default_rng(18)
        a = random_spd(rng, 7)
        s = random_subspace(rng, 7, 2, False)
        dec = tridiagonal_block_decomposition(a, s)
        sb0 = shifted_blocks(dec, 0.0)
        lhs = adjoint(dec.H) @ np.linalg.inv(sb0.G_omega)
        expected = np.hstack([np.eye(dec.p), np.zeros((dec.p, dec.q))])
        np.testing.assert_allclose(lhs, expected, atol=1e-10)

    def test_empty_outer_block(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        dec = tridiagonal_block_decomposition(a, Subspace(np.array([[1.0], [0.0]])))
        sb = shifted_blocks(dec, 0.5)
        assert sb.F_omega.shape == (1, 1)
        np.testing.assert_allclose(sb.F_omega, 0.0)
        assert dec.E.shape == (0, 0)
        assert_coupling_matches_dense(dec, coupling_shifts(dec, 0.5), False)
        # with no E to factor, an infinite shift would give an inf/NaN G_omega
        with pytest.raises(ValueError, match="finite"):
            shifted_blocks(dec, np.inf)

    def test_j_matrix_image_matches_nullspace(self):
        rng = np.random.default_rng(19)
        a = random_hermitian_invertible(rng, 9, False)
        s = random_subspace(rng, 9, 4, False)
        dec = tridiagonal_block_decomposition(a, s)
        ns = nullspace_of_hstar(dec)
        mu = dec.omega_min + 1.3
        j = j_matrix(dec, mu)
        img_j = Subspace(extend_orthonormal(np.zeros((j.shape[0], 0)), j,
                                            scale=float(np.linalg.norm(j, 2))))
        assert img_j.dim == dec.q
        assert subspaces_equal(img_j, Subspace(ns.N), tol=1e-8)
