import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from omegals.analysis import membership_residual
from omegals.linalg import EigDecomposition, hermitian_eig, hermitian_part, is_hermitian
from omegals.sampling import random_unitary
from omegals.subspaces import (
    EIG_CLUSTER_TOL,
    AffineSubspace,
    Subspace,
    eigenspace_split,
    index_of_invariance,
    invariant_closure,
    krylov,
    normal_representation,
    orthogonal_complement,
    reach,
    strongly_orthogonal,
    subspace_intersect,
    subspace_sum,
    subspaces_equal,
)


def span(*vectors):
    return Subspace.from_vectors([np.asarray(v, dtype=float) for v in vectors])


class TestSubspaceType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_basis(self, complex_field, bad):
        basis = np.array([[bad], [0.0], [0.0]], dtype=complex if complex_field else float)
        with pytest.raises(ValueError, match="basis has a non-finite entry"):
            Subspace(basis)

    def test_zero_subspace(self):
        z = Subspace.zero(3)
        assert z.dim == 0 and z.ambient_dim == 3
        assert membership_residual(np.zeros(3), z) <= 1e-10

    def test_projector(self):
        s = span([1, 0, 0])
        np.testing.assert_allclose(s.projector(), np.diag([1.0, 0.0, 0.0]))


class TestSumIntersectComplement:
    def test_sum_of_axes(self):
        s = subspace_sum(span([1, 0, 0]), span([0, 1, 0]))
        assert s.dim == 2

    def test_intersect_with_complement_is_trivial(self):
        s = span([1, 2, 0], [0, 1, 1])
        assert subspace_intersect(s, orthogonal_complement(s)).dim == 0

    def test_plane_intersection(self):
        s = subspace_intersect(span([1, 0, 0], [0, 1, 0]), span([0, 1, 0], [0, 0, 1]))
        assert s.dim == 1
        assert subspaces_equal(s, span([0, 1, 0]))

    def test_complement_dimension(self):
        s = span([1, 1, 1, 1])
        c = orthogonal_complement(s)
        assert c.dim == 3
        assert np.linalg.norm(c.basis.conj().T @ s.basis) <= 1e-12

    def test_complement_of_zero(self):
        assert orthogonal_complement(Subspace.zero(4)).dim == 4

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_sum(span([1, 0]), span([1, 0, 0]))


class TestKrylov:
    def test_identity_operator(self):
        s = krylov(np.eye(4), np.array([1.0, 2.0, 0.0, 1.0]), 5)
        assert s.dim == 1

    def test_two_distinct_modes(self):
        # (1,1) and (1,2) are independent
        s = krylov(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), 2)
        assert s.dim == 2

    def test_two_modes_in_three_dims(self):
        # the third coordinate of b is zero, so powers stay in a plane
        s = krylov(np.diag([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 0.0]), 3)
        assert s.dim == 2

    def test_zero_seed(self):
        s = krylov(np.eye(3), np.zeros(3), 4)
        assert s.dim == 0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            krylov(np.eye(2), np.ones(2), 0)

    def test_order_above_n_is_capped_at_n(self):
        # a Krylov space has at most n dimensions
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        b = rng.standard_normal(6)
        full = krylov(a, b, 6)
        assert full.dim == 6
        for k in (7, 12, 100):
            np.testing.assert_array_equal(krylov(a, b, k).basis, full.basis)


class TestIndexOfInvariance:
    def test_identity_is_invariant(self):
        for p in (1, 2):
            s = span(*np.eye(3)[:, :p].T)
            assert index_of_invariance(np.eye(3), s) == 0

    def test_krylov_index_is_one(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        a = 0.5 * (a + a.T) + 6 * np.eye(6)
        s = krylov(a, rng.standard_normal(6), 3)
        assert index_of_invariance(a, s) == 1

    def test_two_by_two(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert index_of_invariance(a, span([1, 0])) == 1

    def test_zero_subspace(self):
        assert index_of_invariance(np.eye(3), Subspace.zero(3)) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 9), st.booleans())
    def test_bounds(self, seed, n, complex_field):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, n))
        raw = rng.standard_normal((n, p))
        a = rng.standard_normal((n, n))
        if complex_field:
            raw = raw + 1j * rng.standard_normal((n, p))
            a = a + 1j * rng.standard_normal((n, n))
        s = Subspace.from_vectors(raw)
        q = index_of_invariance(a, s)
        assert 0 <= q <= min(s.dim, n - s.dim)


    @pytest.mark.parametrize("complex_field", [False, True])
    def test_takes_no_matrix_two_norm(self, monkeypatch, complex_field):
        # the new-direction scale is the O(n^2) bound sqrt(||A||_1 ||A||_inf)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((7, 7))
        raw = rng.standard_normal((7, 3))
        if complex_field:
            a = a + 1j * rng.standard_normal((7, 7))
            raw = raw + 1j * rng.standard_normal((7, 3))
        s = Subspace.from_vectors(raw)
        two_norms = []
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                two_norms.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        assert index_of_invariance(a, s) == 3
        assert two_norms == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 9), st.booleans())
    def test_scale_bounds_the_image_norm(self, seed, n, complex_field):
        # ||A V||_2 <= ||A||_2 <= sqrt(||A||_1 ||A||_inf) for orthonormal V,
        # which is why the scale needs no ||A V||_2 term
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, n))
        raw = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        if complex_field:
            a = a + 1j * rng.standard_normal((n, n))
            raw = raw + 1j * rng.standard_normal(raw.shape)
        v = Subspace.from_vectors(raw).basis
        bound = np.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))
        assert np.linalg.norm(a @ v, 2) <= bound * (1 + 1e-12)


class TestSparseOperators:
    """Routines that only apply A take a SciPy sparse operator and give the
    results of its dense copy."""

    @staticmethod
    def sparse_hermitian(seed, n, complex_field):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        if complex_field:
            a = a + 1j * rng.standard_normal((n, n))
        a = np.where(rng.random((n, n)) < 0.3, a, 0.0)
        return rng, a + a.conj().T

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_krylov_and_index(self, seed, complex_field):
        rng, a = self.sparse_hermitian(seed, 12, complex_field)
        csr = sp.csr_array(a)
        b = rng.standard_normal(12) + (1j * rng.standard_normal(12) if complex_field else 0)
        dense_k, sparse_k = krylov(a, b, 5), krylov(csr, b, 5)
        assert sparse_k.dim == dense_k.dim == 5
        np.testing.assert_allclose(sparse_k.basis, dense_k.basis, rtol=0, atol=1e-12)
        invariant = Subspace(hermitian_eig(a).u[:, :4])
        generic = Subspace.from_vectors(rng.standard_normal((12, 3)))
        for space, q in ((dense_k, 1), (invariant, 0), (generic, 3)):
            assert index_of_invariance(csr, space) == index_of_invariance(a, space) == q

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_is_hermitian(self, complex_field):
        _, a = self.sparse_hermitian(7, 9, complex_field)
        assert is_hermitian(sp.csr_array(a)) and is_hermitian(a)
        a[0, 1] += 1e-3
        assert not is_hermitian(sp.csr_array(a)) and not is_hermitian(a)
        assert is_hermitian(sp.csr_array((3, 3)))


class TestInvariantClosure:
    def test_invariant_start(self):
        chain, j = invariant_closure(np.diag([1.0, 2.0, 3.0]), span([1, 0, 0]))
        assert j == 0 and len(chain) == 1

    def test_krylov_closure_fills_space(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = krylov(a, np.array([1.0, 1.0, 1.0]), 2)
        chain, j = invariant_closure(a, s)
        assert j == 1
        assert chain[-1].dim == 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_indices_non_increasing(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        s = Subspace.from_vectors(rng.standard_normal((n, int(rng.integers(1, n)))))
        chain, j = invariant_closure(a, s)
        indices = [index_of_invariance(a, member) for member in chain]
        assert indices[-1] == 0
        assert all(indices[i] >= indices[i + 1] for i in range(len(indices) - 1))


class TestNormalRepresentation:
    def test_point_inside_direction(self):
        aff = normal_representation(np.array([2.0, 0.0]), span([1, 0]))
        np.testing.assert_allclose(aff.x0, [0.0, 0.0], atol=1e-15)

    def test_drop_direction_component(self):
        aff = normal_representation(np.array([5.0, 3.0]), span([1, 0]))
        np.testing.assert_allclose(aff.x0, [0.0, 3.0], atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_projection_shrinks_norm(self, seed, n):
        rng = np.random.default_rng(seed)
        direction = Subspace.from_vectors(rng.standard_normal((n, int(rng.integers(1, n)))))
        raw = rng.standard_normal(n)
        aff = normal_representation(raw, direction)
        assert np.linalg.norm(aff.x0) <= np.linalg.norm(raw) + 1e-12

    def test_affine_rejects_misaligned_anchor(self):
        with pytest.raises(ValueError):
            AffineSubspace(np.array([1.0, 0.0]), span([1, 0]))


class TestEigenspaceSplit:
    def test_identity_single_block(self):
        blocks = eigenspace_split(hermitian_eig(np.eye(4)))
        assert len(blocks) == 1
        lam, q = blocks[0]
        assert lam == pytest.approx(1.0) and q.shape == (4, 4)

    def test_repeated_eigenvalue(self):
        blocks = eigenspace_split(hermitian_eig(np.diag([1.0, 1.0, 2.0])))
        lams = [lam for lam, _ in blocks]
        dims = [q.shape[1] for _, q in blocks]
        assert lams == pytest.approx([2.0, 1.0])
        assert dims == [1, 2]

    def test_precomputed_factorization_gives_the_same_blocks(self):
        a = np.diag([1.0, 1.0, 2.0, 3.0, 3.0])
        eig = hermitian_eig(a)
        blocks = eigenspace_split(eig)
        assert [lam for lam, _ in blocks] == pytest.approx([3.0, 2.0, 1.0])
        start = 0
        for _, q in blocks:
            np.testing.assert_array_equal(q, eig.u[:, start:start + q.shape[1]])
            start += q.shape[1]
        assert start == 5

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cluster_scale_is_the_operator_norm(self, sign):
        # the scale is max(1, ||A||_2) whichever end of the spectrum holds it
        a = np.diag([sign * 100.0, sign * 100.0 + 1e-7, 1.0])
        blocks = eigenspace_split(hermitian_eig(a))
        assert len(blocks) == 2

    def test_two_by_two_eigenvectors(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        (lam1, q1), (lam2, q2) = eigenspace_split(hermitian_eig(a))
        assert (lam1, lam2) == pytest.approx((3.0, 1.0))
        np.testing.assert_allclose(np.abs(q1[:, 0]), np.ones(2) / np.sqrt(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(q2[:, 0]), np.ones(2) / np.sqrt(2), atol=1e-14)

    def test_blocks_span_everything(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7))
        a = 0.5 * (a + a.T)
        blocks = eigenspace_split(hermitian_eig(a))
        lams = [lam for lam, _ in blocks]
        assert sum(q.shape[1] for _, q in blocks) == 7
        assert all(x > y for x, y in zip(lams, lams[1:]))
        stacked = np.hstack([q for _, q in blocks])
        np.testing.assert_allclose(stacked.conj().T @ stacked, np.eye(7), atol=1e-12)


    @pytest.mark.parametrize("gap, blocks", [(0.5, 1), (2.0, 6)])
    def test_gap_test_chains_along_the_spectrum(self, gap, blocks):
        # six eigenvalues gap * tol apart (||A|| < 1, so the scale is 1): at
        # half the tolerance they chain into one block although the ends are
        # 2.5 tol apart; at twice the tolerance every one stands alone
        lam = 0.5 - gap * EIG_CLUSTER_TOL * np.arange(6)
        split = eigenspace_split(EigDecomposition(np.eye(6), lam))
        assert [q.shape[1] for _, q in split] == [6 // blocks] * blocks

    def test_empty_spectrum(self):
        assert eigenspace_split(EigDecomposition(np.zeros((0, 0)), np.zeros(0))) == ()

    def test_block_value_is_the_mean_of_its_slice(self):
        # clusters of 1 to 40 eigenvalues spread below the tolerance; the
        # blocks' sums run in another order than np.mean's, so they agree
        # within the summation bound len * eps * max |lambda| of the slice
        rng = np.random.default_rng(4)
        centres = np.repeat([7.25, 3.0, 1.0 / 3.0, 0.0, -2.5], [40, 1, 17, 8, 3])
        lam = np.sort(centres + 1e-10 * rng.standard_normal(centres.size))[::-1]
        split = eigenspace_split(EigDecomposition(np.eye(lam.size), lam))
        assert [q.shape[1] for _, q in split] == [40, 1, 17, 8, 3]
        start = 0
        for value, q in split:
            block = lam[start:start + q.shape[1]]
            bound = block.size * np.finfo(float).eps * np.abs(block).max()
            assert abs(value - np.mean(block)) <= bound
            start += q.shape[1]


class TestStrongOrthogonality:
    def test_different_eigenspaces(self):
        blocks = eigenspace_split(hermitian_eig(np.diag([1.0, 2.0])))
        assert strongly_orthogonal(np.array([1.0, 0.0]), np.array([0.0, 1.0]), blocks)

    def test_self_not_strongly_orthogonal(self):
        blocks = eigenspace_split(hermitian_eig(np.diag([1.0, 2.0])))
        v = np.array([1.0, 1.0])
        assert not strongly_orthogonal(v, v, blocks)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 7))
    def test_strong_implies_plain(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        blocks = eigenspace_split(hermitian_eig(a))
        # build a strongly orthogonal pair: per block, u gets one random
        # direction and v one orthogonal to it
        u = np.zeros(n)
        v = np.zeros(n)
        for _, q in blocks:
            k = q.shape[1]
            cu = rng.standard_normal(k)
            u = u + q @ cu
            if k >= 2:
                cv = rng.standard_normal(k)
                cv -= cu * (cu @ cv) / (cu @ cu)
                v = v + q @ cv
        assert strongly_orthogonal(u, v, blocks)
        assert abs(np.vdot(u, v)) <= 1e-10 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v))


class TestShiftAndInverseInvariance:
    def test_shift(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 5))
        s = Subspace.from_vectors(rng.standard_normal((5, 2)))
        q = index_of_invariance(a, s)
        assert index_of_invariance(a + 0.7 * np.eye(5), s) == q

    def test_inverse(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        s = Subspace.from_vectors(rng.standard_normal((5, 2)))
        assert index_of_invariance(np.linalg.inv(a), s) == index_of_invariance(a, s)

    def test_hermitian_complement(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 6))
        a = 0.5 * (a + a.T)
        s = Subspace.from_vectors(rng.standard_normal((6, 2)))
        q = index_of_invariance(a, s)
        assert index_of_invariance(a, orthogonal_complement(s)) == q
        between = subspace_intersect(orthogonal_complement(s), reach(a, s))
        assert between.dim == q
        assert index_of_invariance(a, between) == q

    def test_complement_in_sum_for_singular_operator(self):
        # S holds a null vector of A: the first column of A V is round-off
        # (norm ~5e-16), so S + A S has dimension 3, not 4
        rng = np.random.default_rng(17)
        u = random_unitary(rng, 9, False)
        lam = np.array([0.0, 0.0, 1.0, 2.0, 2.0, -1.0, 3.0, 0.5, 4.0])
        a = hermitian_part((u * lam) @ u.T)
        s = Subspace.from_vectors([u[:, 0], rng.standard_normal(9)])
        between = subspace_intersect(orthogonal_complement(s), reach(a, s))
        assert between.dim == index_of_invariance(a, s) == 1
