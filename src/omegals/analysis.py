"""Empirical verification tools: the difference subspace, dimension
estimates for the solution family, the constant-solution kernel, sufficient
condition reports, convexity coordinates, and the injectivity scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decomposition import TridiagDecomp, check_omega, check_shift, guard_threshold
from .linalg import (
    adjoint,
    as_operator,
    default_rank_tol,
    extend_orthonormal,
    hermitian_eig,
    hermitian_part,
    is_singular,
    numerical_rank,
    operator_eig,
    orthonormalize,
    solve_hermitian,
)
from .sampling import gaussian_matrix
from .solver import (
    OMEGA_INF,
    ProblemInstance,
    _solution_maps,
    _weighted_solve,
    gram_cond_bound,
)
from .subspaces import (
    Subspace,
    eigenspace_split,
    index_of_invariance,
    krylov,
    subspaces_equal,
)

# Singular values below this ratio of sigma_1 count as numerically zero when
# estimating the dimension of a sampled solution family.
EST_DIM_RATIO = 1e-8

# Shift pairs sampled by estimate_span_dim, and its random right-hand sides
# per unit of the index q.
SPAN_PAIRS = 4
SPAN_SAMPLES_PER_INDEX = 4

# Bytes of one column block of a swept solution family (SweepResult.
# solution_blocks): large enough that x0 + V Y[:, block] is one GEMM over
# tens of columns at N of a few thousand, small enough that a writer holds
# only a block, not the n x K family.
SOLUTION_BLOCK_BYTES = 2**20


def default_omega_grid(count: int = 200, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    """Log-spaced shift grid, omega_j = lo * (hi/lo)^((j-1)/(count-1)); the
    count must be at least 1, both bounds positive and finite (lo > hi
    gives a descending grid), and the grid must hold at least two distinct
    shifts, since a sweep estimates the family's dimension from how its
    solutions move between shifts."""
    if count < 1:
        raise ValueError(f"grid count = {count}: a shift grid needs at least one shift")
    for name, bound in (("lo", lo), ("hi", hi)):
        if not 0 < bound < np.inf:
            raise ValueError(f"grid bound {name} = {bound}: a log-spaced shift grid "
                             f"needs positive, finite bounds")
    grid = np.logspace(np.log10(lo), np.log10(hi), count)
    distinct = np.unique(grid).size
    if distinct < 2:
        raise ValueError(f"grid count = {count}, lo = {lo}, hi = {hi}: the grid holds "
                         f"{distinct} distinct shift(s), and a sweep needs at least two")
    return grid


@dataclass(frozen=True)
class DifferenceSubspace:
    """The q-dimensional subspace containing every solution difference
    x_{b,omega} - x_{b,mu}, independent of b and of the adapted basis."""

    basis: Subspace
    q: int


def difference_subspace(dec: TridiagDecomp) -> DifferenceSubspace:
    """Image of V (H* H)^{-1} B*, orthonormalized; the zero subspace if q = 0."""
    if dec.q == 0:
        return DifferenceSubspace(Subspace.zero(dec.n, np.iscomplexobj(dec.V)), 0)
    raw = dec.V @ dec.HH_inv_Bstar
    return DifferenceSubspace(Subspace(orthonormalize(raw)), dec.q)


def membership_residual(x_diff: np.ndarray, s: Subspace) -> float:
    """||(I - P_S) x_diff|| / max(||x_diff||, tiny); membership iff small."""
    out = x_diff - s.project(x_diff)
    return float(np.linalg.norm(out) / max(np.linalg.norm(x_diff), np.finfo(np.float64).tiny))


@dataclass(frozen=True)
class SweepResult:
    """Solutions along a shift grid plus the centered singular spectrum.

    The family is kept factored: the solution at the k-th successful grid
    point (columns align with ``omegas[ok]``) is x0 + V y_k: the anchor
    ``x0`` (n), ``v`` the constraint basis V itself (n x p, orthonormal
    columns) and the coordinates ``y`` (p x K), so no n x K matrix is stored.
    ``solution_rows`` forms the solutions of a column slice as rows, and
    ``solution_blocks`` yields the family in column blocks of about
    SOLUTION_BLOCK_BYTES. ``solutions``, the dense n x K matrix, is
    assembled from those blocks on first read (then kept), so it agrees bit
    for bit with every consumer of the blocks, such as solutions.csv.

    ``sigma`` is the spectrum of the column-centered solutions and
    ``est_dim`` the number of singular values above EST_DIM_RATIO times the
    largest. ``coords`` (est_dim x columns) are the centered solutions in the
    leading est_dim principal directions. The centered solutions are
    V (y - mean), so the SVD is taken of the p x K coordinates and
    ``sigma`` has min(p, K) entries: the rest of the n x K spectrum is zero
    in exact arithmetic.

    Per grid point, ``gram_cond_bound`` is the a-priori bound max w / min w
    on the condition number of the inner Gram matrix (NaN where the shift was
    rejected) and ``guard_margin`` is omega minus the guard threshold
    (negative below the guard, NaN for NaN).
    """

    omegas: np.ndarray
    ok: np.ndarray
    x0: np.ndarray
    v: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    est_dim: int
    coords: np.ndarray
    gram_cond_bound: np.ndarray
    guard_margin: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the solutions, that of x0 + V y."""
        return np.result_type(self.x0, self.v, self.y)

    def solution_columns(self) -> list[slice]:
        """The block partition of the family: consecutive column slices of
        about SOLUTION_BLOCK_BYTES each (at least one column)."""
        n, k = self.v.shape[0], self.y.shape[1]
        step = max(1, SOLUTION_BLOCK_BYTES // (n * self.dtype.itemsize))
        return [slice(lo, min(lo + step, k)) for lo in range(0, k, step)]

    def solution_rows(self, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The solutions of the columns ``cols`` as the rows of a (c, n)
        array, y[:, cols]^T V^T + x0: one GEMM, written straight into
        ``out`` when it is given (x0 is then added in place)."""
        rows = np.matmul(self.y[:, cols].T, self.v.T, out=out)
        return rows + self.x0 if out is None else np.add(rows, self.x0, out=rows)

    def solution_blocks(self):
        """Yield (cols, ``solution_rows(cols)``) for each slice of
        ``solution_columns``."""
        for cols in self.solution_columns():
            yield cols, self.solution_rows(cols)

    @cached_property
    def solutions(self) -> np.ndarray:
        """The dense n x K solution matrix, filled from ``solution_blocks``."""
        x = np.empty((self.x0.size, self.y.shape[1]), dtype=self.dtype)
        for cols, rows in self.solution_blocks():
            x[:, cols] = rows.T
        return x


def _family_dim(sigma: np.ndarray) -> int:
    """Number of singular values above EST_DIM_RATIO times the largest; 0 for
    an empty or zero spectrum."""
    return int(np.count_nonzero(sigma > EST_DIM_RATIO * sigma[0])) if sigma.size else 0


def _column_norms(x0: np.ndarray, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||x0 + V y_k|| for every column y_k of y, without forming the
    columns: V has orthonormal columns, so
    ||x0 + V y_k||^2 = ||x0||^2 + 2 Re((V* x0)* y_k) + ||y_k||^2."""
    c = adjoint(v) @ x0
    sq = np.vdot(x0, x0).real + 2.0 * np.real(c.conj() @ y) + np.sum(np.abs(y) ** 2, axis=0)
    return np.sqrt(np.maximum(sq, 0.0))


def _centered_spectrum(x0: np.ndarray, v: np.ndarray,
                       y: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """(sigma, est_dim, coords) of the column-centered solutions x0 + V y
    (V with orthonormal columns) from one thin SVD of the centered p-row
    coordinates y: both have the same singular values and coordinates."""
    if y.shape[1] == 0:
        return np.zeros(0), 0, np.zeros((0, 0))
    centered = y - y.mean(axis=1, keepdims=True)
    u, sigma, _ = np.linalg.svd(centered, full_matrices=False)
    # a constant family centers to pure round-off; the leading singular value
    # only counts as signal when it clears the noise floor of the solutions
    # themselves, taken on ||x||_F >= ||x||_2 (from the factors) so that
    # neither x nor a second SVD is needed
    norm_x = float(np.linalg.norm(_column_norms(x0, v, y)))
    floor = default_rank_tol((x0.size, y.shape[1])) * norm_x
    est = _family_dim(sigma) if sigma.size and sigma[0] > floor else 0
    return sigma, est, np.real(adjoint(u[:, :est]) @ centered)


def sweep_solutions(inst: ProblemInstance, omegas) -> SweepResult:
    """Solve the weighted problem at every grid point and estimate the
    dimension of the affine family from the centered singular spectrum.

    All admitted grid points are one call of the batched weighted-solve
    kernel, the one ``solve_weighted`` uses; omega = OMEGA_INF takes the
    limit weights 1 and gives the ``solve_limit`` solution. Grid points that
    fail (a shift below the guard or NaN, or every admitted shift when U* A V
    is rank deficient) are recorded in ``failures``, in grid order, and
    skipped.
    """
    omegas = np.asarray(omegas, dtype=float)
    threshold = guard_threshold(inst.omega_min, inst.op_norm)
    guard_margin = omegas - threshold
    ok = omegas >= threshold
    failures = []
    for j in np.flatnonzero(~ok):
        try:
            inst.check_omega(float(omegas[j]))
        except ValueError as err:
            failures.append((int(j), str(err)))
    admitted = np.flatnonzero(ok)
    bound = np.full(omegas.size, np.nan)
    bound[admitted] = gram_cond_bound(inst.eig.lambdas, omegas[admitted])
    x0, v = inst.constraint.x0, inst.constraint.direction.basis
    y = np.zeros((inst.p, 0))
    if admitted.size:
        try:
            q, r, beta = inst._factors
        except np.linalg.LinAlgError as err:
            failures = sorted(failures + [(int(j), str(err)) for j in admitted])
            ok[:] = False
        else:
            y = _weighted_solve(q, r, inst.eig.lambdas, omegas[admitted], beta).T
    sigma, est, coords = _centered_spectrum(x0, v, y)
    return SweepResult(omegas=omegas, ok=ok, x0=x0, v=v, y=y, sigma=sigma, est_dim=est,
                       coords=coords, gram_cond_bound=bound, guard_margin=guard_margin,
                       failures=failures)


def estimate_span_dim(
    a: np.ndarray,
    s: Subspace,
    grid=None,
    seed: int = 0,
) -> int:
    """Numerical dimension of the span of solution differences over random
    right-hand sides (SPAN_SAMPLES_PER_INDEX * q of them) and SPAN_PAIRS
    sampled shift pairs; bounded by the index q. A is factored through
    :func:`linalg.operator_eig`, so an instance built on the same array has
    already paid for it, and all sampled shifts and right-hand sides are one
    call of the batched weighted-solve kernel. The grid must hold at least
    two distinct shifts, since each pair is drawn from it with unequal ones.
    """
    a = as_operator(a)
    grid = default_omega_grid() if grid is None else np.asarray(grid, dtype=float)
    distinct = np.unique(grid).size
    if distinct < 2:
        raise ValueError(f"grid holds {distinct} distinct shift(s): the sampled shift "
                         f"pairs need at least two")
    q = index_of_invariance(a, s)
    if q == 0:
        return 0
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < SPAN_PAIRS:
        i, j = rng.integers(0, grid.size, size=2)
        if grid[i] != grid[j]:
            pairs.append((float(grid[i]), float(grid[j])))
    shifts = sorted({w for pair in pairs for w in pair})
    bs = gaussian_matrix(rng, a.shape[0], SPAN_SAMPLES_PER_INDEX * q, np.iscomplexobj(a))
    # coordinates M(omega) bs of the solutions for every sampled shift; V has
    # orthonormal columns, so the differences keep their singular values in
    # these coordinates
    coords = dict(zip(shifts, _solution_maps(operator_eig(a), a @ s.basis, shifts, bs)))
    diffs = np.hstack([coords[omega] - coords[mu] for omega, mu in pairs])
    return _family_dim(np.linalg.svd(diffs, compute_uv=False))


def constant_kernel(a: np.ndarray, s: Subspace, omega: float) -> Subspace:
    """Subspace of right-hand sides whose solution curve is constant in the
    shift: A S (+) K, with K the orthogonal complement of the smallest
    A-invariant subspace containing S. It contains A S, is proper whenever
    the index is >= 1, and is all of F^n when the index is 0 and A is
    invertible on S. The result does not depend on ``omega``; the shift is
    only checked against the shift guard.

    This is the kernel of b -> (V* P_i P b)_i over the eigenprojectors P_i,
    with P = I - A V M(omega). The P_i S span the invariant closure of S, so
    K = {y : V* P_i y = 0 for all i}. Proof of the identity:
      1. M(omega) A V = I, so P is a projector with kernel A S.
      2. Every y in K has V* g(A) y = 0 for every g, so M(omega) y = 0 and
         K lies in range(P).
      3. Hence the kernel, {b : P b in K}, is A S (+) K.

    The factorization A = U diag(lambda) U* of :func:`linalg.operator_eig`
    (shared with an instance built on the same array) gives the eigenspace
    blocks Q_i (column slices of U). K's part in block i is Q_i times the
    left null space of Q_i* V, read off the rows of U* V, from one
    dim_i x p SVD (one batched SVD per block size); the rank cut is
    ``default_rank_tol`` of U* V against ||V||_2 = 1. Only blocks with a
    nonempty left null space contribute columns. A V is then appended by
    :func:`extend_orthonormal` on the scale of ||A||_2, so a round-off image
    of a null direction of A counts as zero.
    """
    a = as_operator(a)
    eig = operator_eig(a)
    op_norm = float(np.max(np.abs(eig.lambdas)))
    check_shift(omega, -float(eig.lambdas[-1]), op_norm)
    v = s.basis
    ut_v = eig.apply_uh(v)
    tol = default_rank_tol(ut_v.shape)
    blocks = eigenspace_split(eig)
    sizes = np.array([q_block.shape[1] for _, q_block in blocks])
    starts = np.cumsum(sizes) - sizes
    null = {}
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        left, sv, _ = np.linalg.svd(ut_v[starts[which, None] + np.arange(size)], full_matrices=True)
        for i, u_i, rank in zip(which, left, np.count_nonzero(sv > tol, axis=1)):
            if rank < size:
                null[i] = u_i[:, rank:]
    k = np.hstack([np.zeros((v.shape[0], 0), dtype=ut_v.dtype)]
                  + [blocks[i][1] @ null[i] for i in sorted(null)])
    return Subspace(np.hstack([k, extend_orthonormal(k, a @ v, scale=op_norm)]))


@dataclass(frozen=True)
class LSample:
    """One sampled shift pair and its coupling matrix
    L(omega, mu) = C - B T^{-1} B* - D* K(omega, mu) D."""

    omega: float
    mu: float
    l_matrix: np.ndarray
    invertible: bool
    positive: bool


@dataclass(frozen=True)
class ConditionReport:
    """Status of the two sufficient conditions for a tight difference span:
    invertibility of T, trivial intersection of the images of T and B*, and
    per-sample invertibility/positivity of L(omega, mu)."""

    t_invertible: bool
    images_trivial_intersection: bool
    samples: tuple


def condition_report(dec: TridiagDecomp, omega_mu_samples=()) -> ConditionReport:
    """The sufficient conditions as rank counts under :func:`numerical_rank`
    at the scale ||A||_2. T is invertible iff rank T = p; Img T + Img B* is
    the column space of H* = [T B*], so the images meet only in 0 iff
    rank T + rank B* = rank H*. Each (omega, mu) gives L = C - B T^{-1} B*
    - D* K D, K = U diag(k) U* for E = U diag(xi) U*, so D* K D is
    (U* D)* diag(k) U* D from ``dec.E_coupling``, with k formed as
    (xi + omega + mu) / ((xi + omega)(xi + mu)): (mu/(xi+omega) -
    omega/(xi+mu)) / (mu - omega) without its cancellation at close shifts.
    One spectrum of L decides its invertibility and positivity."""
    op_scale = max(dec.op_norm, 1e-300)
    rank_t = numerical_rank(dec.T, scale=op_scale)
    t_invertible = dec.p > 0 and rank_t == dec.p
    trivial = (rank_t + numerical_rank(adjoint(dec.B), scale=op_scale)
               == numerical_rank(adjoint(dec.H), scale=op_scale))
    samples = []
    if len(omega_mu_samples) and not t_invertible:
        raise ValueError("T is singular: L(omega, mu) is not defined")
    if len(omega_mu_samples):
        base = dec.C - dec.B @ solve_hermitian(dec.T, adjoint(dec.B))
        xi, _, ud = dec.E_coupling
    for omega, mu in omega_mu_samples:
        for name, shift in (("omega", omega), ("mu", mu)):
            check_omega(dec, shift)
            if shift == np.inf:
                raise ValueError(f"{name} = inf: L(omega, mu) needs finite shifts")
        if omega == mu:
            raise ValueError("L(omega, mu) requires omega != mu")
        k_diag = (xi + omega + mu) / ((xi + omega) * (xi + mu))
        l_matrix = hermitian_part(base - adjoint(ud) @ (k_diag[:, None] * ud))
        lam = hermitian_eig(l_matrix).lambdas
        invertible = not is_singular(lam)
        positive = bool(dec.q == 0 or lam[-1] > 0)
        samples.append(LSample(float(omega), float(mu), l_matrix, invertible, positive))
    return ConditionReport(t_invertible, trivial, tuple(samples))


@dataclass(frozen=True)
class ConvexityResult:
    """Segment coordinates of the weighted solutions between the zero-shift
    solution and the plain residual minimizer."""

    all_equal: bool
    ts: np.ndarray
    off_residuals: np.ndarray
    x_zero: np.ndarray
    x_inf: np.ndarray


def convexity_coordinates(inst: ProblemInstance, omegas) -> ConvexityResult:
    """For positive A and a Krylov constraint generated by b itself, express
    every sampled solution as x_zero + t (x_inf - x_zero); t is the real
    least-squares coefficient and the off-segment residual is reported
    relative to the segment length, both read from the p-vector coordinates
    y of one :func:`sweep_solutions` call over 0, the grid and OMEGA_INF
    (x = x0 + V y, V orthonormal). A failed point raises a ValueError naming
    the failures (-1 is the zero shift). An invariant constraint (q = 0)
    solves only the two endpoints: every t is 0 there.
    """
    if inst.eig.lambdas[-1] <= 0:
        raise ValueError("operator must be positive definite")
    if np.linalg.norm(inst.constraint.x0) > 1e-12 * max(1.0, float(np.linalg.norm(inst.b))):
        raise ValueError("constraint set must be a subspace (zero anchor)")
    s = inst.constraint.direction
    if not subspaces_equal(s, krylov(inst.a, inst.b, s.dim)):
        raise ValueError("constraint is not the Krylov subspace generated by b")
    omegas = np.asarray(omegas, dtype=float)
    q = index_of_invariance(inst.a, s)
    # the endpoints ride in the same sweep as the grid, so that a grid point
    # at omega = 0 reproduces x_zero bit for bit
    sweep = sweep_solutions(inst, np.concatenate([[0.0], omegas if q else [], [OMEGA_INF]]))
    failures = [(j - 1, message) for j, message in sweep.failures]
    if failures:
        raise ValueError(f"solver failed at grid points: {failures}")
    y_zero, ys, y_inf = sweep.y[:, 0], sweep.y[:, 1:-1], sweep.y[:, -1]
    x_zero, x_inf = (inst.constraint.x0 + s.basis @ y for y in (y_zero, y_inf))
    if q == 0:
        return ConvexityResult(True, np.zeros(omegas.size), np.zeros(omegas.size),
                               x_zero, x_inf)
    w = y_inf - y_zero
    seg = float(np.linalg.norm(w))
    if seg == 0.0:
        raise ValueError("degenerate segment: endpoint solutions coincide")
    dy = ys - y_zero[:, None]
    ts = np.real(adjoint(w) @ dy) / seg**2
    off = np.linalg.norm(dy - w[:, None] * ts, axis=0) / seg
    return ConvexityResult(False, ts, off, x_zero, x_inf)


@dataclass(frozen=True)
class CollisionReport:
    """Pairs of grid points whose solutions coincide within tolerance."""

    pairs: tuple            # of (i, j, distance)
    scale: float
    n_points: int

    @property
    def full(self) -> bool:
        return len(self.pairs) == self.n_points * (self.n_points - 1) // 2

    @property
    def empty(self) -> bool:
        return not self.pairs


def injectivity_scan(inst: ProblemInstance, omegas, tol: float = 1e-10) -> CollisionReport:
    """Report all grid pairs with ||x_i - x_j|| <= tol * scale, where scale
    is the largest sampled solution norm. An empty report means no collision
    was detected at this sampling (not a proof of injectivity). Distances and
    norms come from the sweep's factors (x_i - x_j = V (y_i - y_j) with V
    orthonormal), so no n x K matrix is formed."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size and (np.diff(omegas) <= 0).any():
        raise ValueError("omega grid must be sorted and distinct")
    result = sweep_solutions(inst, omegas)
    if result.failures:
        raise ValueError(f"solver failed at grid points: {result.failures}")
    y = result.y
    norms = _column_norms(result.x0, result.v, y)
    scale = float(max(norms.max() if norms.size else 0.0, 1e-300))
    pairs = []
    for i in range(y.shape[1]):
        dist = np.linalg.norm(y[:, i + 1:] - y[:, i:i + 1], axis=0)
        for off, dval in enumerate(dist):
            if dval <= tol * scale:
                pairs.append((i, i + 1 + off, float(dval)))
    return CollisionReport(tuple(pairs), scale, y.shape[1])
