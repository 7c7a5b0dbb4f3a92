"""operator_eig keeps the factorization of the last dense operator it
factored: the same object while that array lives with the same bytes, a new
one after an in-place change, nothing once the array is gone, and nothing
for sparse operators or given factorizations. Derived blocks are factored
per decomposition."""

import gc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse

from omegals import linalg
from omegals.analysis import constant_kernel, estimate_span_dim
from omegals.decomposition import tridiagonal_block_decomposition
from omegals.experiments import poisson_2d, poisson_2d_factored
from omegals.linalg import adjoint, hermitian_eig, operator_eig
from omegals.sampling import gaussian_vector, random_hermitian, random_spd, random_subspace
from omegals.solver import ProblemInstance, solution_map, solution_map_diff, solve_weighted
from omegals.subspaces import krylov, subspaces_equal

FIELDS = pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(linalg, "_operator_memo", None)


def _instance_data(seed, complex_field, n=12, p=3):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n, complex_field)
    return rng, a, random_subspace(rng, n, p, complex_field), gaussian_vector(rng, n, complex_field)


@FIELDS
def test_hit_is_the_same_object_and_bit_identical_to_a_fresh_factorization(complex_field):
    _, a, s, b = _instance_data(60, complex_field)
    inst = ProblemInstance.create(a, s, b)
    assert operator_eig(a) is inst.eig
    fresh = hermitian_eig(a.copy())
    assert np.array_equal(inst.eig.u, fresh.u)
    assert np.array_equal(inst.eig.lambdas, fresh.lambdas)


@FIELDS
def test_in_place_change_factors_again(complex_field):
    rng, a, s, b = _instance_data(61, complex_field)
    before = ProblemInstance.create(a, s, b).eig
    dec_before = tridiagonal_block_decomposition(a, s)
    a += 0.3 * random_hermitian(rng, a.shape[0], complex_field)
    after = operator_eig(a)
    assert after is not before
    dec = tridiagonal_block_decomposition(a, s)
    kernel = constant_kernel(a, s, 0.5)
    assert dec.lambda_min != dec_before.lambda_min
    copy = a.copy()
    dec_copy = tridiagonal_block_decomposition(copy, s)
    assert np.array_equal(dec.E, dec_copy.E)
    # the copy is factored afresh, A's spectrum comes from the kept factorization
    np.testing.assert_allclose([dec.lambda_min, dec.op_norm],
                               [dec_copy.lambda_min, dec_copy.op_norm], rtol=1e-13)
    assert np.array_equal(kernel.basis, constant_kernel(copy, s, 0.5).basis)


def test_memo_does_not_outlive_its_array():
    a = random_spd(np.random.default_rng(62), 8)
    operator_eig(a)
    assert linalg._operator_memo is not None
    del a
    gc.collect()
    assert linalg._operator_memo is None


@FIELDS
def test_sparse_operators_and_given_factorizations_are_not_kept(complex_field):
    _, a, s, b = _instance_data(63, complex_field)
    sparse = scipy.sparse.csr_array(a)
    first = operator_eig(sparse)
    assert operator_eig(sparse) is not first
    assert linalg._operator_memo is None
    given = hermitian_eig(a)
    assert ProblemInstance.create(a, s, b, eig=given).eig is given
    assert linalg._operator_memo is None


@FIELDS
def test_two_decompositions_of_one_operator_factor_e_twice(complex_field, monkeypatch):
    _, a, s, b = _instance_data(64, complex_field)
    ProblemInstance.create(a, s, b)
    orders = Counter()
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        orders[np.shape(m)[-1]] += 1
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    decs = [tridiagonal_block_decomposition(a, s) for _ in range(2)]
    for dec in decs:
        dec.E_coupling
        dec.E_coupling
    r = a.shape[0] - decs[0].p - decs[0].q
    assert r not in (a.shape[0], decs[0].p, decs[0].q)
    assert orders == Counter({r: 2})


@FIELDS
def test_shared_factorization_is_read_only(complex_field):
    _, a, s, b = _instance_data(65, complex_field)
    eig = ProblemInstance.create(a, s, b).eig
    assert operator_eig(a) is eig
    for array in (eig.u, eig.lambdas):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_structure_routines_take_the_figure1_operator_in_either_form(form):
    # the CSR operator of run_figure1 used to be wrapped by np.asarray in a
    # 0-d object array, and each routine failed with an error naming
    # another cause
    m = 5
    dense = poisson_2d(m)
    a = poisson_2d_factored(m)[0] if form == "sparse" else dense
    s = krylov(a, np.ones(m * m), 3)
    dec = tridiagonal_block_decomposition(a, s)
    np.testing.assert_allclose(dec.compressed(), adjoint(dec.W) @ dense @ dec.W, atol=1e-14)
    assert (dec.p, dec.q) == (3, 1)
    assert estimate_span_dim(a, s, seed=4) == dec.q
    kernel = constant_kernel(a, s, 1.0)
    assert subspaces_equal(kernel, constant_kernel(dense, s, 1.0))
    b = np.random.default_rng(7).standard_normal(m * m)
    inst = ProblemInstance.create(dense, s, b)
    x_one, x_nine = solve_weighted(inst, 1.0), solve_weighted(inst, 9.0)
    np.testing.assert_allclose(s.basis @ (solution_map(a, s, 1.0) @ b), x_one, atol=1e-14)
    np.testing.assert_allclose(solution_map_diff(a, s, 1.0, 9.0) @ b, x_one - x_nine,
                               atol=1e-14)
