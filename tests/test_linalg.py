import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegals import linalg
from omegals.linalg import (
    EigDecomposition,
    _kept,
    adjoint,
    check_orthonormal,
    default_rank_tol,
    extend_orthonormal,
    extend_orthonormal_stacked,
    hermitian_eig,
    hermitian_part,
    is_singular,
    numerical_rank,
    orthonormalize,
    solve_hermitian,
)


def random_hermitian(seed, n, complex_field=False):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if complex_field:
        m = m + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(eig.lambdas, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(eig.u @ eig.u.conj().T, np.eye(3), atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial (2-l)^2 - 1 = 0 -> l in {3, 1}
        eig = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.lambdas, [3.0, 1.0], atol=1e-14)

    def test_exchange(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.lambdas, [1.0, -1.0], atol=1e-14)

    def test_descending_order(self):
        eig = hermitian_eig(random_hermitian(3, 9))
        assert np.all(np.diff(eig.lambdas) <= 0)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_eigenvectors_are_contiguous(self, complex_field):
        # a reversed view of eigh's output would make every product with U copy it
        m = random_hermitian(4, 9, complex_field)
        eig = hermitian_eig(m)
        assert eig.u.flags.c_contiguous
        lam, u = np.linalg.eigh(hermitian_part(m))
        np.testing.assert_array_equal(eig.lambdas, lam[::-1])
        np.testing.assert_array_equal(eig.u, u[:, ::-1])

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_reconstruction_residual(self, complex_field):
        m = random_hermitian(7, 200, complex_field)
        eig = hermitian_eig(m)
        scale = np.linalg.norm(m)
        assert np.linalg.norm((eig.u * eig.lambdas) @ adjoint(eig.u) - m) <= 1e-10 * scale
        assert np.linalg.norm(eig.u.conj().T @ eig.u - np.eye(200)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestOrthonormalize:
    def test_scaled_orthogonal_pair(self):
        q = orthonormalize([np.array([2.0, 0.0]), np.array([0.0, 3.0])])
        np.testing.assert_allclose(q, np.eye(2), atol=1e-14)

    def test_dependent_pair_dropped(self):
        q = orthonormalize([np.array([1.0, 1.0]), np.array([2.0, 2.0])])
        assert q.shape == (2, 1)
        np.testing.assert_allclose(q[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))

    def test_gram_schmidt_order(self):
        q = orthonormalize([np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])])
        np.testing.assert_allclose(np.abs(q), np.eye(3)[:, :2], atol=1e-14)

    def test_empty_input(self):
        assert orthonormalize([]).shape == (0, 0)
        assert orthonormalize(np.zeros((4, 0))).shape == (4, 0)

    def test_zero_vectors_dropped(self):
        q = orthonormalize([np.zeros(3), np.array([0.0, 1.0, 0.0])])
        assert q.shape == (3, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 12),
           st.booleans())
    def test_idempotent_and_orthonormal(self, seed, k, n, complex_field):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, k))
        if complex_field:
            m = m + 1j * rng.standard_normal((n, k))
        q = orthonormalize(m)
        assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12
        q2 = orthonormalize(q)
        assert q2.shape == q.shape
        # same span: projectors agree
        np.testing.assert_allclose(q @ q.conj().T, q2 @ q2.conj().T, atol=1e-10)
        # span equals the input span
        assert numerical_rank(np.hstack([m, q])) == q.shape[1]


def loop_reference(q, cols, drop_tol, scale=None):
    """Column-by-column modified Gram-Schmidt, re-orthogonalized once, with
    the drop rule of extend_orthonormal: the loop the block kernel replaced."""
    kept = [q[:, i] for i in range(q.shape[1])]
    new = []
    for j in range(cols.shape[1]):
        v = cols[:, j].astype(complex if np.iscomplexobj(cols) else float)
        orig = np.linalg.norm(v)
        if orig == 0.0 or (scale is not None and orig <= drop_tol * scale):
            continue
        for _ in range(2):
            for b in kept:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm > drop_tol * (max(orig, scale) if scale is not None else orig):
            kept.append(v / nrm)
            new.append(v / nrm)
    return np.column_stack(new) if new else np.zeros((cols.shape[0], 0))


class TestExtendOrthonormal:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 10), st.booleans(), st.booleans())
    def test_matches_loop_reference(self, seed, n, complex_field, scaled):
        rng = np.random.default_rng(seed)

        def draw(k):
            m = rng.standard_normal((n, k))
            return m + 1j * rng.standard_normal((n, k)) if complex_field else m

        q = orthonormalize(draw(int(rng.integers(0, n))))
        cols = draw(int(rng.integers(1, n + 2)))
        # a zero column, and one inside span(q, first column of cols)
        cols = np.hstack([cols, np.zeros((n, 1)), q @ draw(q.shape[1])[:1].T + 2 * cols[:, :1]])
        tol = default_rank_tol(cols.shape)
        scale = float(np.linalg.norm(cols, 2)) if scaled else None
        new = extend_orthonormal(q, cols, scale=scale)
        ref = loop_reference(q, cols, tol, scale)
        assert new.shape == ref.shape == (n, min(n - q.shape[1], cols.shape[1] - 2))
        np.testing.assert_allclose(new, ref, atol=1e-12)
        w = np.hstack([q, new])
        assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1])) <= 1e-13

    @pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
    @pytest.mark.parametrize("m", [0, 3, 7])
    def test_more_columns_than_the_complement_fill_it(self, m, complex_field):
        # [q, new] reaches all of F^n before the columns run out: the rest
        # are not projected, and the loop drops them as round-off anyway
        rng = np.random.default_rng(m)
        n = 7
        cols = rng.standard_normal((n, n - m + 4))
        if complex_field:
            cols = cols + 1j * rng.standard_normal(cols.shape)
        q = orthonormalize(rng.standard_normal((n, m)))
        new = extend_orthonormal(q, cols)
        ref = loop_reference(q, cols, default_rank_tol(cols.shape))
        assert new.shape == ref.shape == (n, n - m)
        np.testing.assert_allclose(new, ref, atol=1e-12)
        w = np.hstack([q, new])
        assert np.linalg.norm(w.conj().T @ w - np.eye(n)) <= 1e-13

    def test_columns_inside_q_add_nothing(self):
        q = np.eye(4)[:, :2]
        assert extend_orthonormal(q, np.array([[1.0], [2.0], [0.0], [0.0]])).shape == (4, 0)
        new = extend_orthonormal(q, np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [3.0, 5.0]]))
        np.testing.assert_allclose(np.abs(new), np.eye(4)[:, 3:], atol=1e-15)

    def test_scale_drops_round_off_columns(self):
        cols = np.array([[1.0, 0.0], [0.0, 1e-15]])
        assert extend_orthonormal(np.zeros((2, 0)), cols).shape == (2, 2)
        assert extend_orthonormal(np.zeros((2, 0)), cols, scale=1.0).shape == (2, 1)


def extend_before_the_shared_rule(q, cols, scale=None):
    """extend_orthonormal with its drop rule written inline, as it was
    before the rule moved into ``_kept``: the bits the kernel keeps."""
    q, cols = np.asarray(q), np.asarray(cols)
    (n, m), k = q.shape, cols.shape[1]
    drop_tol = default_rank_tol((n, max(k, 1)))
    basis = np.empty((n, m + k), dtype=np.result_type(q, cols, np.float64), order="F")
    basis[:, :m] = q
    width = m
    for j in range(k):
        if width == n:
            break
        v = cols[:, j].astype(basis.dtype)
        orig = np.linalg.norm(v)
        if orig == 0.0 or (scale is not None and orig <= drop_tol * scale):
            continue
        kept = basis[:, :width]
        for _ in range(2):
            v -= kept @ (adjoint(kept) @ v)
        nrm = np.linalg.norm(v)
        if nrm > drop_tol * (max(orig, scale) if scale is not None else orig):
            basis[:, width] = v / nrm
            width += 1
    return basis[:, m:width]


def gaussian(rng, complex_field, *shape):
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if complex_field else m


def extension_cases(complex_field):
    """(q, cols, scale) instances of several n: an invariant subspace,
    rank-deficient and zero columns, columns dropped by the scale, a width
    that reaches n in mid-loop, k = 0, m = 0 and a generic case."""
    rng = np.random.default_rng(12)
    g = lambda *shape: gaussian(rng, complex_field, *shape)  # noqa: E731
    u = orthonormalize(g(6, 6))
    a = u @ np.triu(g(6, 6)) @ adjoint(u)  # span of u[:, :2] is A-invariant
    q = orthonormalize(g(5, 1))
    c = g(5, 2)
    deficient = np.column_stack([c[:, 0], np.zeros(5), c[:, 0] + 2 * q[:, 0], c[:, 1],
                                 c[:, 0] - c[:, 1]])
    return [
        (u[:, :2], a @ u[:, :2], float(np.linalg.norm(a, 2))),
        (q, deficient, None),
        (orthonormalize(g(4, 2)), np.column_stack([1e-18 * g(4), g(4), 1e-17 * g(4)]), 1.0),
        (orthonormalize(g(7, 3)), g(7, 6), None),
        (orthonormalize(g(3, 2)), np.zeros((3, 0)), None),
        (np.zeros((8, 0)), g(8, 3), 2.0),
        (orthonormalize(g(10, 4)), g(10, 5), 30.0),
    ]


@pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
def test_single_call_kernel_keeps_its_bits(complex_field):
    for q, cols, scale in extension_cases(complex_field):
        new = extend_orthonormal(q, cols, scale=scale)
        ref = extend_before_the_shared_rule(q, cols, scale)
        assert new.dtype == ref.dtype and new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()


def parent_rule(orig, nrm, scale, drop_tol):
    """The drop rule as extend_orthonormal wrote it inline; scale None."""
    if orig == 0.0 or (scale is not None and orig <= drop_tol * scale):
        return False
    return nrm > drop_tol * (max(orig, scale) if scale is not None else orig)


def test_drop_rule_reads_the_same_on_scalars_and_arrays():
    # values that hit both boundaries exactly, and the next float past them
    d = default_rank_tol((7, 3))
    values = [0.0, 1e-300, 0.5, 1.0, 3.0]
    cases = [(o, n, s) for o in values for s in (0.0, 1.0, 3.0)
             for n in (*values, d * o, d * s, np.nextafter(d * max(o, s), 1.0))]
    cases += [(d * s, 1.0, s) for s in (1.0, 3.0)]
    expected = [parent_rule(o, n, s or None, d) for o, n, s in cases]
    assert True in expected and False in expected
    orig, nrm, scale = np.array(cases).T
    assert _kept(orig, nrm, scale, d).tolist() == expected
    assert [bool(_kept(o, n, s, d)) for o, n, s in cases] == expected


def padded_stack(cases):
    """The cases as the zero-padded inputs of extend_orthonormal_stacked."""
    size = max(q.shape[0] for q, _, _ in cases)
    count = max(cols.shape[1] for _, cols, _ in cases)
    dtype = np.result_type(*(x for q, cols, _ in cases for x in (q, cols)), np.float64)
    q_stack = np.zeros((len(cases), size, size), dtype=dtype)
    cols_stack = np.zeros((len(cases), size, count), dtype=dtype)
    for t, (q, cols, _) in enumerate(cases):
        q_stack[t, : q.shape[0], : q.shape[1]] = q
        cols_stack[t, : cols.shape[0], : cols.shape[1]] = cols
    dims = np.array([[q.shape[0], q.shape[1], cols.shape[1], scale or 0.0]
                     for q, cols, scale in cases]).T
    n, m, k = dims[:3].astype(int)
    return q_stack, m, cols_stack, k, dims[3], n


class TestExtendOrthonormalStacked:
    @pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
    def test_matches_one_call_per_instance(self, complex_field):
        cases = extension_cases(complex_field)
        q, m, cols, k, scale, n = padded_stack(cases)
        basis = q.copy()
        width = extend_orthonormal_stacked(basis, m, cols, k, scale, n)
        check_orthonormal(basis, width)
        for t, (q_t, cols_t, scale_t) in enumerate(cases):
            new = extend_orthonormal(q_t, cols_t, scale=scale_t)
            assert width[t] == m[t] + new.shape[1]
            stacked = basis[t, : n[t], : width[t]]
            one = np.hstack([q_t, new])
            np.testing.assert_allclose(stacked @ adjoint(stacked), one @ adjoint(one), atol=1e-13)
            assert not basis[t, n[t]:].any() and not basis[t, :, width[t]:].any()
        # invariant, a zero and two dependent columns of 5 dropped, 2 of 3
        # dropped by the scale, F^7 filled in mid-loop, k = 0 and m = 0
        assert (width - m).tolist() == [0, 2, 1, 4, 0, 3, 5]

    def test_no_columns_leave_the_bases(self):
        q, m, cols, k, scale, n = padded_stack([(np.eye(3)[:, :1], np.zeros((3, 0)), None)] * 2)
        basis = q.copy()
        width = extend_orthonormal_stacked(basis, m, cols, k, scale, n)
        assert width.tolist() == [1, 1] and basis.tobytes() == q.tobytes()

    def test_a_basis_of_another_field_is_refused(self):
        q, m, cols, k, scale, n = padded_stack([(np.eye(3)[:, :1], np.ones((3, 1)) * 1j, None)])
        with pytest.raises(TypeError, match="cannot hold"):
            extend_orthonormal_stacked(q.real.copy(), m, cols, k, scale, n)


class TestCheckOrthonormal:
    def stack(self):
        rng = np.random.default_rng(5)
        cases = [(orthonormalize(gaussian(rng, True, 6, w)), np.zeros((6, 0)), None)
                 for w in (0, 2, 6)]
        q, m, *_ = padded_stack(cases)
        return q, m

    def test_a_zero_padded_stack_passes(self):
        check_orthonormal(*self.stack())

    def test_one_bad_basis_fails_the_stack(self):
        q, m = self.stack()
        q[1, 0, 0] += 1e-7
        with pytest.raises(ValueError, match="not orthonormal"):
            check_orthonormal(q, m)
        q, m = self.stack()
        q[2, 3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check_orthonormal(q, m)

    def test_a_stack_past_gram_stack_is_checked_in_parts(self, monkeypatch):
        # two bases per part: the bad basis 2 sits in the second part
        monkeypatch.setattr(linalg, "GRAM_STACK", 2)
        check_orthonormal(*self.stack())
        q, m = self.stack()
        q[2, 0, 0] += 1e-7
        with pytest.raises(ValueError, match="not orthonormal"):
            check_orthonormal(q, m)

    def test_the_tolerance_grows_with_the_width(self):
        # ||B*B - I||_F = 2e-8 passes with 2 or more columns, not with 1
        q = np.eye(3)[:, :2] * np.sqrt(1 + 1e-8)
        check_orthonormal(q)
        with pytest.raises(ValueError, match="not orthonormal"):
            check_orthonormal(q[:, :1] * np.sqrt(1 + 1e-8))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_rank_one(self):
        assert numerical_rank(np.ones((2, 2))) == 1

    def test_threshold_arithmetic(self):
        assert numerical_rank(np.diag([1.0, 1e-20])) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.zeros((0, 3))) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_unitary_invariance(self, seed, n, k):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, k)) @ rng.standard_normal((k, k))
        qs = [np.linalg.qr(rng.standard_normal((d, d)))[0] for d in (n, k)]
        assert numerical_rank(qs[0] @ m @ qs[1]) == numerical_rank(m)


class TestSolveHermitian:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(solve_hermitian(np.eye(3), b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(
            solve_hermitian(np.diag([2.0, 4.0]), np.array([2.0, 8.0])),
            [1.0, 2.0])

    def test_two_by_two(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = solve_hermitian(m, np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(m @ x, [3.0, 3.0], atol=1e-14)

    def test_matrix_rhs(self):
        m = random_hermitian(11, 7) + 9 * np.eye(7)
        rhs = np.random.default_rng(2).standard_normal((7, 3))
        x = solve_hermitian(m, rhs)
        np.testing.assert_allclose(m @ x, rhs, atol=1e-10)

    def test_precomputed_decomposition(self):
        m = random_hermitian(12, 5) + 7 * np.eye(5)
        eig = hermitian_eig(m)
        b = np.arange(5.0)
        np.testing.assert_array_equal(solve_hermitian(eig, b), solve_hermitian(m, b))
        assert isinstance(eig, EigDecomposition)

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_hermitian(np.diag([1.0, 0.0]), np.ones(2))

    def test_residual_bound(self):
        m = random_hermitian(13, 30, complex_field=True) + 1j * 0  # Hermitian complex
        m = m + 12 * np.eye(30)
        b = np.random.default_rng(3).standard_normal(30)
        x = solve_hermitian(m, b)
        tol = 1e-10 * (np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(m @ x - b) <= tol


class TestIsSingular:
    def test_empty_spectrum_is_not_singular(self):
        assert not is_singular(np.zeros(0))

    def test_boundary_counts_as_singular(self):
        cut = default_rank_tol((3, 3)) * 4.0
        assert is_singular(np.array([4.0, 1.0, cut]))
        assert is_singular(np.array([1.0, -cut, -4.0]))
        assert not is_singular(np.array([4.0, 1.0, np.nextafter(cut, 1.0)]))

    def test_zero_spectrum_is_singular(self):
        assert is_singular(np.zeros(2))

    def test_solve_hermitian_uses_it(self):
        cut = default_rank_tol((2, 2))
        with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
            solve_hermitian(np.diag([1.0, cut]), np.ones(2))
        np.testing.assert_allclose(
            solve_hermitian(np.diag([1.0, 2 * cut]), np.ones(2)), [1.0, 0.5 / cut])


@pytest.mark.parametrize("complex_field", [False, True])
def test_hermitian_part_of_a_stack(complex_field):
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((3, 4, 4))
    if complex_field:
        stack = stack + 1j * rng.standard_normal((3, 4, 4))
    parts = hermitian_part(stack)
    for m, part in zip(stack, parts):
        np.testing.assert_array_equal(part, hermitian_part(m))
        np.testing.assert_array_equal(part, part.conj().T)
