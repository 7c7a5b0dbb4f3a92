"""Solvers for the shift-weighted least-squares family over an affine
subspace, the coordinate solution maps, and the equivalent block-system
route for solution differences.

For Hermitian invertible A = U diag(lambda) U*, a constraint set x0 + S with
semi-unitary basis V of S, and a shift omega above the spectral floor, the
minimizer of || (A + omega I)^{-1/2} (b - A x) || over the constraint set is

    x = x0 + V (P* W P)^{-1} P* W beta,  P = U* A V,  beta = U* (b - A x0),

with W = diag(1/(lambda + omega)), and W = I for the plain residual
minimizer (omega -> infinity). All of them share one kernel on the thin QR
P = Q R, so the Gram matrix carries cond(W), not cond(P)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decomposition import (
    TridiagDecomp,
    _coupled_solve,
    _oblique_projection,
    check_shift,
    nullspace_of_hstar,
    shift_weights,
    shifted_blocks,
)
from .linalg import (
    EigDecomposition,
    adjoint,
    as_operator,
    default_rank_tol,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
    is_singular,
    operator_eig,
    solve_hermitian,
    stored_entries,
)
from .subspaces import AffineSubspace, Subspace, normal_representation

# Sentinel for the omega -> infinity endpoint in public interfaces.
OMEGA_INF = math.inf

# Bytes of the Gram factor M (n x p^2) and of the expanded right-hand sides
# formed per row chunk in the weighted-solve kernel.
GRAM_CHUNK_BYTES = 2**20

# Relative residual ||U*(A x) - lambda U* x|| / (max|lambda| ||x||) above which
# a factorization handed to ProblemInstance.create does not factor A.
FACTORIZATION_PROBE_TOL = 1e-12


def _qr(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of P = U* A V; raises LinAlgError if A is singular on S."""
    q, r = np.linalg.qr(p)
    diag = np.abs(np.diag(r))
    if diag.size and diag.min() <= default_rank_tol(p.shape) * diag.max():
        raise np.linalg.LinAlgError("U* A V is rank deficient to working precision")
    return q, r


def gram_cond_bound(lam: np.ndarray, omegas) -> np.ndarray:
    """max w / min w = (lam_max + omega) / (lam_min + omega) for
    W = diag(1/(lam + omega)) at each shift (1 at OMEGA_INF): for Q with
    orthonormal columns, cond(Q* W Q) is at most this."""
    ends = shift_weights(np.array([lam.min(), lam.max()]), omegas)
    return ends.max(axis=1) / ends.min(axis=1)


def _weighted_solve(q, r, lam, omegas, rhs) -> np.ndarray:
    """Y[k] = R^{-1} (Q* W_k Q)^{-1} Q* W_k rhs = (P* W_k P)^{-1} P* W_k rhs
    for P = Q R, W_k = diag(1/(lam + omegas[k])), W_k = I at OMEGA_INF, for
    all K shifts at once: the one place the weighted Gram matrix is formed;
    R^{-1} is one solve on the right-hand sides of all K shifts side by side.
    Returns Y (K x p, or K x p x m for an n x m ``rhs``).

    With the rows of Q as an n x p^2 matrix M = (conj(q_ia) q_ib), ``W @ M``
    holds all K Gram matrices; M is formed in row chunks of about
    GRAM_CHUNK_BYTES, together with the right-hand sides expanded the same
    way, and each chunk's K columns of W come from
    :func:`decomposition.shift_weights`. One batched solve handles the K
    systems.

    No shift needs a singularity test. Above the guard, lam_min + omega >=
    OMEGA_GUARD max(1, ||A||) and lam_max - lam_min <= 2 ||A||, so
    cond(Q* W Q) <= (lam_max + omega) / (lam_min + omega) <= 1 + 2e8
    (:func:`gram_cond_bound`). The n-term sums move the Gram matrix by about
    n eps max w, so its smallest eigenvalue stays above
    min w - n eps max w, while ``is_singular`` cuts at 32 p eps times the
    largest, at most max w. A Gram matrix could thus fail that test only if
    min w / max w <= (n + 32 p) eps, that is n + 32 p >= 1 / (eps (1 + 2e8)),
    about 2.2e7. Even the cruder a-priori test bound * 32 p max(n, p) eps >= 1
    could fire only for p n >= 7e5."""
    omegas = np.asarray(omegas, dtype=float)
    (n, p), kk = q.shape, omegas.size
    cols = rhs.reshape(n, -1)
    m = cols.shape[1]
    gram = np.zeros((kk, p * p), dtype=q.dtype)
    proj = np.zeros((kk, p, m), dtype=np.result_type(q, cols))
    qbar = q.conj()
    step = max(1, GRAM_CHUNK_BYTES // (q.itemsize * p * (p + m)))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        w = shift_weights(lam[rows], omegas)    # K x chunk
        qbar_c = qbar[rows]
        gram += w @ (qbar_c[:, :, None] * q[rows, None, :]).reshape(-1, p * p)
        proj += (w @ (qbar_c[:, :, None] * cols[rows, None, :]).reshape(-1, p * m)).reshape(kk, p, m)
    gram = hermitian_part(gram.reshape(kk, p, p))
    z = np.linalg.solve(gram, proj).transpose(1, 0, 2)  # p x K x m
    # a C-order copy: the SVD of the sweep's coordinates rounds differently
    # on a transposed layout
    y = np.linalg.solve(r, z.reshape(p, -1)).reshape(z.shape).transpose(1, 0, 2).copy()
    return y[:, :, 0] if rhs.ndim == 1 else y


def _probe_factorization(a, eig) -> None:
    """Raise ValueError unless ``eig`` factors A: its order must be n, and
    for one fixed vector x, ||U*(A x) - lambda U* x|| <= FACTORIZATION_PROBE_TOL
    max|lambda| ||x||."""
    n = a.shape[0]
    if eig.lambdas.shape != (n,):
        raise ValueError(f"factorization has {eig.lambdas.size} eigenvalues for an "
                         f"operator of order {n}")
    x = np.random.default_rng(0).standard_normal(n)
    mismatch = np.linalg.norm(eig.apply_uh(a @ x) - eig.lambdas * eig.apply_uh(x))
    bound = FACTORIZATION_PROBE_TOL * float(np.max(np.abs(eig.lambdas))) * np.linalg.norm(x)
    if not mismatch <= bound:
        raise ValueError(f"factorization does not match the operator: "
                         f"||U*(Ax) - lambda U*x|| = {mismatch:.3e} > {bound:.3e}")


@dataclass(frozen=True)
class ProblemInstance:
    """One solvable problem: Hermitian invertible A (dense, or sparse with a
    given factorization), constraint set, and b. ``eig`` is read only
    through ``lambdas`` (descending) and ``apply_uh``."""

    a: np.ndarray
    constraint: AffineSubspace
    b: np.ndarray
    eig: EigDecomposition

    @classmethod
    def create(cls, a, space, b: np.ndarray, eig=None) -> "ProblemInstance":
        """Check and assemble an instance. A given factorization ``eig`` (an
        object with ``lambdas`` and ``apply_uh``) replaces the eigendecomposition
        of A, after a probe that it factors A; every other check runs on A.
        Without one, A is factored by :func:`linalg.operator_eig`, which
        later calls on the same array reuse."""
        a = as_operator(a)
        b = np.asarray(b)
        if isinstance(space, Subspace):
            space = normal_representation(np.zeros(space.ambient_dim, dtype=b.dtype), space)
        for name, value in (("operator", stored_entries(a)), ("b", b),
                            ("constraint anchor x0", space.x0)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
        if not is_hermitian(a):
            raise ValueError("operator is not Hermitian within tolerance")
        if space.dim < 1:
            raise ValueError("constraint set must have dimension >= 1")
        if b.shape[0] != a.shape[0] or space.ambient_dim != a.shape[0]:
            raise ValueError("shape mismatch between operator, constraint set, and b")
        if eig is None:
            eig = operator_eig(a)
        else:
            _probe_factorization(a, eig)
        if is_singular(eig.lambdas):
            raise ValueError("operator is singular to working precision")
        return cls(a=a, constraint=space, b=b, eig=eig)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.constraint.dim

    @property
    def omega_min(self) -> float:
        return -float(self.eig.lambdas[-1])

    @property
    def op_norm(self) -> float:
        return float(np.max(np.abs(self.eig.lambdas)))

    def check_omega(self, omega: float) -> None:
        check_shift(omega, self.omega_min, self.op_norm)

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q, R, beta) with Q R = U* A V (thin QR) and beta = U* (b - A x0),
        made on first solve; the solutions are x0 + V y, y from the
        weighted-solve kernel."""
        uh = self.eig.apply_uh
        q, r = _qr(uh(self.a @ self.constraint.direction.basis))
        return q, r, uh(self.b - self.a @ self.constraint.x0)

    def _solve(self, omega: float) -> np.ndarray:
        """x0 + V y with y from the weighted-solve kernel at one shift; no
        shift guard."""
        q, r, beta = self._factors
        y = _weighted_solve(q, r, self.eig.lambdas, [omega], beta)
        return self.constraint.x0 + self.constraint.direction.basis @ y[0]


def solve_weighted(inst: ProblemInstance, omega: float) -> np.ndarray:
    """Minimizer of ||(A + omega I)^{-1/2} (b - A x)|| over the constraint
    set, one kernel solve; the omega -> infinity endpoint is
    :func:`solve_limit`."""
    inst.check_omega(omega)
    if omega == OMEGA_INF:
        raise ValueError("use solve_limit for the omega -> infinity endpoint")
    return inst._solve(omega)


def solve_limit(inst: ProblemInstance) -> np.ndarray:
    """argmin ||b - A x|| over the constraint set (the omega -> inf limit)."""
    return inst._solve(OMEGA_INF)


def _solution_maps(eig: EigDecomposition, av: np.ndarray, omegas, rhs=None) -> np.ndarray:
    """M(omega) = (AV* A_omega^{-1} AV)^{-1} AV* A_omega^{-1} for each shift
    (K x p x n), or M(omega) rhs (K x p x r) for an n x r ``rhs``, from the
    factorization ``eig`` of A and the product AV: one QR of U* A V and one
    kernel call. At OMEGA_INF it is the map of the limit solution."""
    lam = eig.lambdas
    for omega in omegas:
        check_shift(omega, -float(lam[-1]), float(np.max(np.abs(lam))))
    return _weighted_solve(*_qr(eig.apply_uh(av)), lam, omegas,
                           adjoint(eig.u) if rhs is None else eig.apply_uh(rhs))


def solution_map(a: np.ndarray, s: Subspace, omega: float) -> np.ndarray:
    """The p x n coordinate solution map M(omega) with V M(omega) b the
    weighted minimizer over the subspace S for every b. A is factored
    through :func:`linalg.operator_eig`, so once per operator array.
    """
    a = as_operator(a)
    return _solution_maps(operator_eig(a), a @ s.basis, [omega])[0]


def solution_map_diff(a: np.ndarray, s: Subspace, omega: float, mu: float) -> np.ndarray:
    """The n x n difference V (M(omega) - M(mu)) of the solution operators;
    its image sits inside the q-dimensional difference subspace. A is
    factored through :func:`linalg.operator_eig`, and both shifts are one
    kernel call."""
    a = as_operator(a)
    maps = _solution_maps(operator_eig(a), a @ s.basis, [omega, mu])
    return s.basis @ (maps[0] - maps[1])


@dataclass(frozen=True)
class SystemSolution:
    """Solution of the block system for one coordinate difference d.

    d is the V-coordinate vector of x_{b,omega} - x_{b,mu}; t and t_prime are
    the nullspace coefficients entering the two equations, and u certifies
    d = (H* H)^{-1} B* u. ``residuals`` records the per-equation residuals.
    """

    d: np.ndarray
    t: np.ndarray
    t_prime: np.ndarray
    u: np.ndarray
    residuals: dict


def _recover_u(dec: TridiagDecomp, d: np.ndarray) -> tuple[np.ndarray, float]:
    """u with d = (H*H)^{-1} B* u, via the positive matrix B (H*H)^{-1} B*."""
    hh_inv_bstar = dec.HH_inv_Bstar
    m = hermitian_part(dec.B @ hh_inv_bstar)   # q x q, positive definite
    try:
        u = solve_hermitian(m, dec.B @ d)
    except np.linalg.LinAlgError:
        u, *_ = np.linalg.lstsq(hh_inv_bstar, d, rcond=None)
    res = np.linalg.norm(hh_inv_bstar @ u - d)
    return u, float(res)


def difference_via_blocks(dec: TridiagDecomp, b: np.ndarray, omega: float,
                          mu: float) -> SystemSolution:
    """Coordinate difference d between the weighted solutions at omega and mu,
    computed from the block system instead of the explicit formula; at
    mu = OMEGA_INF the second solution is the plain residual minimizer. c''
    is rotated into E's eigenbasis once, so f(sigma) = D* (E + sigma I)^{-1} c''
    at both shifts, like F_omega and F_mu, is a weighting of
    ``dec.E_coupling``, and G_omega and G_mu are each factored once.

    Requires q >= 1 and a finite omega. The two equations are

        H* G_omega^{-1} (H d + mu N t + [0; z(t)]) = 0,
        N t = J(mu) w = G_mu^{-1} (H (H* G_mu^{-1} H)^{-1} H* G_mu^{-1} - I) w,

    with w = [c; c' - f(mu)] and z(t) the shift-difference term
    f(omega) - f(mu) + [B  C - F_mu] N t. As mu -> infinity, mu J(mu) tends
    to H (H*H)^{-1} H* - I while f(mu) and F_mu tend to 0, so at OMEGA_INF the
    scale mu, f(mu) and the coupling [B  C - F_mu] are taken as (1, 0, 0),
    the projection goes through ``dec.HH_eig``, and t holds the limit of mu t.
    The first equation gives d, G_omega^{-1} (H d + mu N t + [0; z(t)]) = N t'
    gives t', and u is recovered from d.
    """
    if dec.q == 0:
        raise ValueError("q = 0: solution differences vanish identically")
    ns = nullspace_of_hstar(dec)
    c, cp, cpp = dec.coefficients(b)
    cpp_e = adjoint(dec.E_coupling[1]) @ cpp   # U_E* c''
    g_omega = hermitian_eig(shifted_blocks(dec, omega).G_omega)
    h = dec.H

    # Second equation: project the right-hand side onto the nullspace basis.
    if mu == OMEGA_INF:
        scale, f_mu, coupling = 1.0, 0.0, np.zeros((dec.q, dec.p + dec.q))
        w = np.concatenate([c, cp])
        rhs2 = h @ solve_hermitian(dec.HH_eig, adjoint(h) @ w) - w
    else:
        sb_mu = shifted_blocks(dec, mu)
        scale, f_mu = mu, _coupled_solve(dec, mu, cpp_e)
        coupling = np.hstack([dec.B, dec.C - sb_mu.F_omega])
        w = np.concatenate([c, cp - f_mu])
        rhs2 = _oblique_projection(hermitian_eig(sb_mu.G_omega), h, w)
    t = adjoint(ns.N) @ rhs2
    nt = ns.N @ t
    res2 = float(np.linalg.norm(nt - rhs2))

    # First equation: H* G_omega^{-1} H d = -H* G_omega^{-1} g, positive.
    z_t = _coupled_solve(dec, omega, cpp_e) - f_mu + coupling @ nt
    g_vec = scale * nt + np.concatenate([np.zeros(dec.p, dtype=z_t.dtype), z_t])
    ginv_h = solve_hermitian(g_omega, h)
    a1 = hermitian_part(adjoint(h) @ ginv_h)
    d = solve_hermitian(a1, -adjoint(ginv_h) @ g_vec)
    res1 = float(np.linalg.norm(adjoint(ginv_h) @ g_vec + a1 @ d))
    lift = solve_hermitian(g_omega, h @ d + g_vec)
    t_prime = adjoint(ns.N) @ lift
    res3 = float(np.linalg.norm(ns.N @ t_prime - lift))
    u, res4 = _recover_u(dec, d)
    return SystemSolution(
        d=d, t=t, t_prime=t_prime, u=u,
        residuals={"eq1": res1, "eq2_projection": res2,
                   "tprime_projection": res3, "d_from_u": res4},
    )


def limit_difference_via_blocks(dec: TridiagDecomp, b: np.ndarray,
                                omega: float) -> SystemSolution:
    """Coordinate difference d between the weighted solution at omega and the
    plain residual minimizer: the mu = OMEGA_INF endpoint of
    :func:`difference_via_blocks`."""
    return difference_via_blocks(dec, b, omega, OMEGA_INF)
