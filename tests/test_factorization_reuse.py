"""The structural checks factor A, the outer block E and H*H once each:
counted as np.linalg.eigh calls by matrix order, or by the matrix itself.
The whole pipeline on one operator array takes one eigh of A and no
eigvalsh of A. The constant kernel takes no SVD of order n and no solution
map, and the condition report none of order q, no full SVD and no
Subspace."""

from collections import Counter

import numpy as np
import pytest

from omegals import analysis, solver
from omegals.analysis import (
    condition_report,
    constant_kernel,
    difference_subspace,
    estimate_span_dim,
)
from omegals.decomposition import tridiagonal_block_decomposition
from omegals.linalg import adjoint
from omegals.sampling import gaussian_vector, random_spd, random_subspace
from omegals.solver import (
    ProblemInstance,
    difference_via_blocks,
    limit_difference_via_blocks,
    solution_map,
    solution_map_diff,
)
from omegals.subspaces import Subspace, index_of_invariance, krylov


@pytest.fixture
def eigh_orders(monkeypatch):
    """Counter of np.linalg.eigh calls keyed by the order of the matrix."""
    orders = Counter()
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        orders[np.shape(m)[0]] += 1
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return orders


@pytest.fixture
def eigvalsh_orders(monkeypatch):
    """Counter of np.linalg.eigvalsh calls keyed by the order of the matrix
    (of each matrix, for a stack)."""
    orders = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(m, *args, **kwargs):
        orders[np.shape(m)[-1]] += 1
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return orders


@pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
def test_pipeline_on_one_operator_factors_it_once(complex_field, eigh_orders, eigvalsh_orders):
    # once with an instance built first, once with no instance: then the
    # decomposition factors A itself and every later routine reads that
    # factorization. Each pass gets a new array, which the kept factorization
    # of the previous one cannot serve.
    n = 12
    for with_instance in (True, False):
        rng = np.random.default_rng(55)
        a = random_spd(rng, n, complex_field)
        s = random_subspace(rng, n, 2, complex_field)
        b = gaussian_vector(rng, n, complex_field)
        eigh_orders.clear()
        if with_instance:
            ProblemInstance.create(a, s, b)
        dec = tridiagonal_block_decomposition(a, s)
        # n differs from every block order (p, q, p + q, n - p - q)
        assert (dec.p, dec.q) == (2, 2)
        difference_subspace(dec)
        assert estimate_span_dim(a, s, grid=np.logspace(-2, 2, 30), seed=3) == dec.q
        constant_kernel(a, s, 0.5)
        solution_map(a, s, 0.7)
        solution_map_diff(a, s, 0.7, 40.0)
        assert eigh_orders[n] == 1, with_instance
        assert eigvalsh_orders[n] == 0, with_instance


def test_block_route_and_condition_report_share_one_factorization_of_e(eigh_orders):
    rng = np.random.default_rng(50)
    n = 12
    a = random_spd(rng, n)
    s = random_subspace(rng, n, 2, False)
    dec = tridiagonal_block_decomposition(a, s)
    r = dec.n - dec.p - dec.q
    # the order of E differs from every other block order (p, q, p + q, n)
    assert (dec.p, dec.q, r) == (2, 2, 8)
    b = rng.standard_normal(n)
    for omega, mu in [(0.1, 2.0), (0.5, 7.0), (3.0, 90.0)]:
        difference_via_blocks(dec, b, omega, mu)
    limit_difference_via_blocks(dec, b, 1.5)
    condition_report(dec, [(0.1, 2.0), (0.5, 7.0)])
    assert eigh_orders[r] == 1
    # the decomposition's own factorization of A, for lambda_min and ||A||_2
    assert eigh_orders[n] == 1


def test_span_estimate_and_constant_kernel_factor_a_once(eigh_orders):
    rng = np.random.default_rng(51)
    n = 10
    a = random_spd(rng, n)
    s = random_subspace(rng, n, 3, False)
    q = index_of_invariance(a, s)
    assert estimate_span_dim(a, s, grid=np.logspace(-2, 2, 30), seed=2) == q
    assert eigh_orders[n] <= 1
    eigh_orders.clear()
    kernel = constant_kernel(a, s, 0.5)
    assert kernel.dim < n
    assert eigh_orders[n] <= 1


def test_constant_kernel_takes_one_eigh_and_only_small_svds(eigh_orders, monkeypatch):
    rng = np.random.default_rng(53)
    n = 10
    a = random_spd(rng, n)
    s = random_subspace(rng, n, 3, False)
    widths = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        widths.append(np.shape(m)[-1])
        return svd(m, *args, **kwargs)

    def no_solution_maps(*args, **kwargs):
        raise AssertionError("constant_kernel solved for a solution map")

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(analysis, "_solution_maps", no_solution_maps)
    monkeypatch.setattr(solver, "_solution_maps", no_solution_maps)
    kernel = constant_kernel(a, s, 0.5)
    assert s.dim <= kernel.dim < n
    assert eigh_orders == Counter({n: 1})
    # one dim_i x p SVD per eigenspace block, none with n columns
    assert widths and all(width == s.dim for width in widths)


def test_condition_report_takes_no_svd_of_l(monkeypatch):
    rng = np.random.default_rng(54)
    n = 12
    a = random_spd(rng, n)
    dec = tridiagonal_block_decomposition(a, krylov(a, rng.standard_normal(n), 4))
    # p != q, so no other matrix of the report is q x q
    assert (dec.p, dec.q) == (4, 1)
    shapes, full_svds = [], []
    svd = np.linalg.svd

    def recording_svd(m, full_matrices=True, compute_uv=True, **kwargs):
        shapes.append(np.shape(m))
        if full_matrices and compute_uv:
            full_svds.append(np.shape(m))
        return svd(m, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    def no_subspace(self):
        raise AssertionError("condition_report built a Subspace")

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(Subspace, "__post_init__", no_subspace)
    report = condition_report(dec, [(0.1, 2.0), (0.5, 7.0), (3.0, 90.0)])
    assert len(report.samples) == 3
    assert (dec.q, dec.q) not in shapes
    # the static flags are rank counts: singular values only, no image bases
    assert full_svds == []


def test_difference_routes_share_one_factorization_of_hh(monkeypatch):
    rng = np.random.default_rng(52)
    n = 12
    a = random_spd(rng, n)
    s = random_subspace(rng, n, 3, False)
    dec = tridiagonal_block_decomposition(a, s)
    hh = adjoint(dec.H) @ dec.H
    factored = []
    eigh = np.linalg.eigh

    def recording_eigh(m, *args, **kwargs):
        factored.append(np.array(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    difference_subspace(dec)
    b = rng.standard_normal(n)
    for omega, mu in [(0.1, 2.0), (0.5, 7.0), (3.0, 90.0)]:
        difference_via_blocks(dec, b, omega, mu)
    limit_difference_via_blocks(dec, b, 1.5)
    # the routes factor other order-p matrices (H* G^{-1} H); count H*H itself
    assert sum(m.shape == hh.shape and np.linalg.norm(m - hh) <= 1e-12 * np.linalg.norm(hh)
               for m in factored) == 1
