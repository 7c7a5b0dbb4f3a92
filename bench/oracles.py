"""Reference computations the benchmark checks the library against.

Nothing here imports omegals: every reference is computed from the inputs
with plain NumPy/SciPy, so a check compares the library with a separate
computation, not with itself.

- ``laplacian_2d``: the 5-point-stencil Laplacian on an m x m grid.
- ``krylov_sum_basis``: orthonormal basis of a sum of Krylov subspaces, by
  Arnoldi per summand and an SVD of the stacked summand bases.
- ``rank_index``: the index of invariance as rank[V, AV] - p, with the rank
  read from the singular values of [V, AV].
- ``reference_solve``: the weighted minimizer over span(V), by whitening the
  residual with the Cholesky factor of A + omega I and solving the
  resulting least-squares problem with ``lstsq``; omega = inf gives the plain
  residual minimizer ``lstsq(A V, b)``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# Singular values of [V, AV] above this share of the largest count toward
# the rank of S + AS.
RANK_TOL = 1e-10


def laplacian_2d(m: int) -> np.ndarray:
    """Dense 5-point-stencil Laplacian of order m^2 (Dirichlet, unit spacing),
    filled in place so that no temporary of the same size is made."""
    n = m * m
    a = np.zeros((n, n))
    a.flat[:: n + 1] = 4.0
    rows = np.arange(n)
    right = rows[(rows % m) != m - 1]     # grid neighbour in the same row
    a[right, right + 1] = a[right + 1, right] = -1.0
    a[rows[:-m], rows[:-m] + m] = a[rows[:-m] + m, rows[:-m]] = -1.0
    return a


def krylov_sum_basis(a: np.ndarray, seeds, orders) -> np.ndarray:
    """Orthonormal basis of K_{k1}(A, s1) + K_{k2}(A, s2) + ... .

    Each summand gets its own Arnoldi basis (two classical Gram-Schmidt
    passes per step; a direction that falls into the summand's span, with
    relative residual below 1e-12, ends it). The sum is spanned by the left
    singular vectors of the stacked summand bases above 1e-12 of the largest
    singular value.
    """
    summands = []
    for seed, order in zip(seeds, orders):
        q = np.zeros((a.shape[0], 0), dtype=np.result_type(a, seed, np.float64))
        w = np.asarray(seed, dtype=q.dtype)
        for _ in range(order):
            scale = np.linalg.norm(w)
            for _ in range(2):
                w = w - q @ (q.conj().T @ w)
            if np.linalg.norm(w) <= 1e-12 * scale:
                break
            q = np.column_stack([q, w / np.linalg.norm(w)])
            w = a @ q[:, -1]
        summands.append(q)
    u, sigma, _ = np.linalg.svd(np.hstack(summands), full_matrices=False)
    return u[:, : int(np.count_nonzero(sigma > 1e-12 * sigma[0]))]


def rank_index(a: np.ndarray, v: np.ndarray) -> tuple[int, float, float]:
    """(index, smallest kept ratio, largest dropped ratio) for S = span(V).

    The ratios are singular values of [V, AV] over the largest one; the
    rank cut sits at RANK_TOL, so the two ratios show how wide the gap is.
    """
    stacked = np.hstack([v, a @ v])
    sigma = np.linalg.svd(stacked, compute_uv=False)
    ratios = sigma / sigma[0]
    rank = int(np.count_nonzero(ratios > RANK_TOL))
    kept = float(ratios[rank - 1])
    dropped = float(ratios[rank]) if rank < ratios.size else 0.0
    return rank - v.shape[1], kept, dropped


def reference_solve(a: np.ndarray, v: np.ndarray, b: np.ndarray, omega: float) -> np.ndarray:
    """argmin over x in span(V) of ||(A + omega I)^(-1/2) (b - A x)||.

    With L L* = A + omega I the objective is ||L^(-1) (b - A V y)||, a plain
    least-squares problem in y. omega = inf gives argmin ||b - A x||.
    """
    av = a @ v
    if math.isinf(omega):
        y, *_ = np.linalg.lstsq(av, b, rcond=None)
        return v @ y
    shifted = a.copy()
    shifted.flat[:: a.shape[0] + 1] += omega
    chol = scipy.linalg.cholesky(shifted, lower=True, overwrite_a=True)
    lhs = scipy.linalg.solve_triangular(chol, av, lower=True)
    rhs = scipy.linalg.solve_triangular(chol, b, lower=True)
    y, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return v @ y


def relative_error(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def outside_share(x: np.ndarray, basis: np.ndarray) -> float:
    """||x - P x|| / ||x|| for the orthogonal projector P onto span(basis),
    with the projection taken by least squares (basis need not be
    orthonormal)."""
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.linalg.norm(x - basis @ coef) / np.linalg.norm(x))
