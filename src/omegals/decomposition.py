"""Tridiagonal block decomposition of a Hermitian operator adapted to a
subspace, the nullspace of the stacked coupling block, and the shifted
blocks with their oblique projection.

For Hermitian A and a subspace S with index q, an adapted unitary
W = [V V' V''] (V spans S, [V V'] spans S + AS) compresses A to

    W* A W = [[T, B*, 0 ],
              [B, C,  D*],
              [0, D,  E ]],

with T, C, E Hermitian and B of full rank q. The stacked block H = [T; B]
has full column rank p whenever A is invertible.

V'', D and E come from the Householder QR Z = Q R of Z = [V V'] (k = p + q
columns) in the compact WY form Q = I - Y T Y* (Schreiber & Van Loan, 1989),
with T^{-1} = diag(1/tau) + striu(Y* Y) (Joffrain et al., 2006): V'' =
Q[:, k:], and E, the trailing block of Q* A Q, is A_22 less rank-k terms in
Y, A Y and T Y_k*. That costs O(n^2 k), where a full SVD of Z for V'' and the
products V''* A V'' cost O(n^3). It stays in NumPy: the same reflectors
applied by SciPy's LAPACK (``dormqr``) load SciPy's own OpenBLAS, whose
threads compete with NumPy's for the CPUs and made the decomposition slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    EigDecomposition,
    adjoint,
    as_operator,
    check_orthonormal,
    dense,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
    operator_eig,
    singular_value_rank,
    solve_hermitian,
)
from .subspaces import PaddedGroup, Subspace, _directions

# Shifts must clear the spectral floor by this relative margin.
OMEGA_GUARD = 1e-8


def guard_threshold(omega_min: float, op_norm: float) -> float:
    """Smallest admissible shift: omega_min + OMEGA_GUARD * max(1, ||A||)."""
    return omega_min + OMEGA_GUARD * max(1.0, op_norm)


def check_shift(omega: float, omega_min: float, op_norm: float) -> None:
    """The one shift guard: reject NaN and every omega below
    guard_threshold(omega_min, op_norm). omega = inf passes."""
    if math.isnan(omega):
        raise ValueError("omega is NaN: a shift must be a number")
    threshold = guard_threshold(omega_min, op_norm)
    if omega < threshold:
        raise ValueError(
            f"omega = {omega} is at or below the guard threshold "
            f"{threshold} (spectral floor {omega_min})"
        )


def shift_weights(spectrum: np.ndarray, omegas) -> np.ndarray:
    """The K x n weights 1/(lambda + omega) of a spectrum at each of K
    shifts, rows of exactly 1 at omega = inf: the one place a shifted weight
    (the spectrum of (X + omega I)^{-1}) is formed."""
    omegas = np.asarray(omegas, dtype=float)[:, None]
    return np.where(omegas == math.inf, 1.0, 1.0 / (spectrum + omegas))


def block_tridiagonal(t, b, c, d, e) -> np.ndarray:
    """The layout of W* A W, [[T, B*, 0], [B, C, D*], [0, D, E]], from its
    blocks T (p x p), B (q x p), C (q x q), D (r x q) and E (r x r), each
    copied into place (np.block costs about 40 us at the verify suites' n)."""
    p, k = t.shape[0], t.shape[0] + c.shape[0]
    out = np.zeros((k + e.shape[0],) * 2, dtype=np.result_type(t, b, c, d, e, float))
    out[:p, :p], out[:p, p:k], out[p:k, :p] = t, adjoint(b), b
    out[p:k, p:k], out[p:k, k:], out[k:, p:k], out[k:, k:] = c, adjoint(d), d, e
    return out


@dataclass(frozen=True)
class TridiagDecomp:
    """Adapted-basis blocks of one Hermitian operator and one subspace.

    V'' = Q[:, p+q:] for the Householder QR [V V'] = Q R, and E and D are
    formed from its reflectors (see the module docstring), so V'' is one
    orthonormal basis of the complement of S + AS: another basis would
    change D and E by a unitary similarity, and nothing that depends only on
    the subspaces (q, F_omega, the differences, the difference subspace).

    ``E_coupling`` = (xi, U_E, U_E* D), from the eigendecomposition
    E = U_E diag(xi) U_E*, is computed on first use and kept: every product
    D* (E + omega I)^{-1} (``shifted_blocks``, the block-route differences)
    and D* K(omega, mu) D (``condition_report``) is U_E* D weighted by a
    function of xi, so no shift factors or solves with E again.
    ``HH_eig``, that of H*H, is kept the same way for every solve with H*H
    (the limit block route), and so is ``HH_inv_Bstar`` = (H*H)^{-1} B*:
    V times it spans the difference subspace, and it maps the block route's
    certificate u to d. ``Hstar_nullspace``, the :func:`nullspace_of_hstar`
    basis read by the block route and the nullspace suite, is kept too.
    """

    V: np.ndarray    # n x p, spans S
    Vp: np.ndarray   # n x q, spans the complement of S inside S + AS
    Vpp: np.ndarray  # n x (n-p-q), Q[:, p+q:] of the Householder QR of [V V']
    T: np.ndarray    # p x p Hermitian, V* A V
    B: np.ndarray    # q x p full rank, V'* A V
    C: np.ndarray    # q x q Hermitian, V'* A V'
    D: np.ndarray    # (n-p-q) x q, V''* A V'
    E: np.ndarray    # (n-p-q) x (n-p-q) Hermitian, V''* A V''
    lambda_min: float
    op_norm: float

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def p(self) -> int:
        return self.V.shape[1]

    @property
    def q(self) -> int:
        return self.Vp.shape[1]

    @property
    def omega_min(self) -> float:
        return -self.lambda_min

    @cached_property
    def E_coupling(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        eig = hermitian_eig(self.E)
        return eig.lambdas, eig.u, adjoint(eig.u) @ self.D

    @cached_property
    def Hstar_nullspace(self) -> NullspaceN:
        return nullspace_of_hstar(self)

    @cached_property
    def HH_eig(self) -> EigDecomposition:
        h = self.H
        return hermitian_eig(adjoint(h) @ h)

    @cached_property
    def HH_inv_Bstar(self) -> np.ndarray:
        return solve_hermitian(self.HH_eig, adjoint(self.B))  # p x q

    @property
    def H(self) -> np.ndarray:
        """Stacked coupling block [T; B], full column rank p for invertible A.
        Its adjoint is the row [T B*] exactly, since T is stored Hermitian."""
        return np.vstack([self.T, self.B])

    @property
    def W(self) -> np.ndarray:
        return np.hstack([self.V, self.Vp, self.Vpp])

    def compressed(self) -> np.ndarray:
        """Reassemble W* A W from the stored blocks (zero corners imposed)."""
        return block_tridiagonal(self.T, self.B, self.C, self.D, self.E)

    def coefficients(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates (c, c', c'') of b relative to (V, V', V'')."""
        return adjoint(self.V) @ b, adjoint(self.Vp) @ b, adjoint(self.Vpp) @ b


def _householder_complement(a, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V'', E) for the n x k matrix Z = [V V'] with orthonormal columns:
    V'' = Q[:, k:] = I[:, k:] - Y P and E = V''* A V'', for the Householder
    QR Z = Q R with Q = I - Y T Y* (Y unit lower trapezoidal, Y_k its rows
    k:) and P = T Y_k*, from one solve with T^{-1}.

    With B = A Y, E = A_22 - B_k P - P* B_k* + P* (Y* B) P, so
    E = A_22 - X - X* for X = (B_k - P* (Y* B) / 2) P: one product of order
    (n - k)^2 k. A reflector with tau = 0 is the identity and its vector is
    e_j (j < k), zero in rows k:. Row j of T^{-1} is then diagonal, so row j
    of P is 0 whatever the diagonal entry, and 1/tau is taken as 1 there.
    The triangles of Y and T^{-1} are cut with index masks, which cost less
    than np.tril and np.triu at the n <= 14 of the verify suites.
    """
    n, k = z.shape
    h, tau = np.linalg.qr(z, mode="raw")  # h is LAPACK's n x k output, transposed
    i = np.arange(n)
    y = h.T * (i[:, None] > i[:k])
    y[i[:k], i[:k]] = 1.0
    t_inv = (adjoint(y) @ y) * (i[:k, None] < i[:k])
    t_inv[i[:k], i[:k]] = 1.0 / np.where(tau == 0, 1.0, tau)
    y_k = y[k:]
    p = np.linalg.solve(t_inv, adjoint(y_k))
    vpp = np.eye(n, n - k, -k) - y @ p
    ay = a @ y
    x = (ay[k:] - 0.5 * (adjoint(p) @ (adjoint(y) @ ay))) @ p
    return vpp, hermitian_part(dense(a[k:, k:]) - 2.0 * x)


def tridiagonal_block_decomposition(a: np.ndarray, s: Subspace) -> TridiagDecomp:
    """Compute the adapted-basis block decomposition of Hermitian A for S.

    V' comes from :func:`subspaces.new_directions`, so q is the index of
    invariance and the result is a function of (A, S) alone; A V is formed
    once, for V' and for T and B. V'' and E come from the Householder
    reflectors of [V V'] (:func:`_householder_complement`), and
    D = V''* (A V') with A V' shared with C. One Gram product checks
    that W = [V V' V''] is unitary. lambda_min and ||A||_2 are read from
    the spectrum of :func:`linalg.operator_eig`, so a dense A is factored
    once for the decomposition and every routine that reads the same array
    (an instance, the span estimate, the constant kernel), in any order.
    Degenerate shapes (p = 0, q = 0, n = p + q) come out with 0-width blocks.
    """
    a = as_operator(a)
    if not is_hermitian(a):
        raise ValueError("operator is not Hermitian within tolerance")
    if a.shape[0] != s.ambient_dim:
        raise ValueError("operator and subspace ambient dimensions differ")
    lam = operator_eig(a).lambdas
    v = s.basis
    av = a @ v
    vp = _directions(a, v, av)
    avp = a @ vp
    z = np.hstack([v, vp])
    vpp, e = _householder_complement(a, z)
    Subspace(np.hstack([z, vpp]))  # raises unless W*W = I within its tolerance
    return TridiagDecomp(
        V=v, Vp=vp, Vpp=vpp,
        T=hermitian_part(adjoint(v) @ av),
        B=adjoint(vp) @ av,
        C=hermitian_part(adjoint(vp) @ avp),
        D=adjoint(vpp) @ avp,
        E=e,
        lambda_min=float(lam[-1]) if lam.size else 0.0,
        op_norm=float(np.max(np.abs(lam))) if lam.size else 0.0,
    )


def tridiagonal_block_decompositions(group: PaddedGroup, a: np.ndarray,
                                     s: tuple) -> list[TridiagDecomp]:
    """:func:`tridiagonal_block_decomposition` of each instance of a
    :class:`~omegals.subspaces.PaddedGroup`, each step stacked over them:
    the verify suites' route for many small instances.

    A is the (T, N, N) stack, zero past n[t], and S a space (bases, widths)
    of the group. One Hermitian check (the single path's ValueError if any A
    fails it), and lambda_min and ||A||_2 from the eigenvalues alone
    (:meth:`PaddedGroup.spectrum_ends`). V' from :meth:`PaddedGroup.reach`,
    with the drop rule and scale of :func:`new_directions`; V'' = Q[:, p+q:n]
    for the complete Householder QR [V V'] = Q R, whose Q is the identity
    past n[t]; one guard on W = [V V' V''] and every block from W* A W.
    Blocks agree with the single path to rounding, V'' and E because both
    take the same reflectors.
    """
    if not np.all(is_hermitian(a)):
        raise ValueError("operator is not Hermitian within tolerance")
    lam_min, op_norm = group.spectrum_ends(a)
    [(w, k)] = group.extend(group.reach(a, s))
    n, p, cols = group.n, s[1], np.arange(a.shape[1])
    np.copyto(w, np.linalg.qr(w, mode="complete")[0],
              where=(cols >= k[:, None, None]) & (cols < n[:, None, None]))
    check_orthonormal(w, n)
    m = w.conj().swapaxes(1, 2) @ (a @ w)
    h = hermitian_part(m)
    decs = []
    for t, (nt, pt, kt) in enumerate(zip(n.tolist(), p.tolist(), k.tolist())):
        # copies of the instance's own blocks, so that no stack outlives the pass
        wt, mt, ht = (x[t, :nt, :nt].copy() for x in (w, m, h))
        decs.append(TridiagDecomp(
            V=wt[:, :pt], Vp=wt[:, pt:kt], Vpp=wt[:, kt:], T=ht[:pt, :pt], B=mt[pt:kt, :pt],
            C=ht[pt:kt, pt:kt], D=mt[kt:, pt:kt], E=ht[kt:, kt:],
            lambda_min=float(lam_min[t]), op_norm=float(op_norm[t])))
    return decs


@dataclass(frozen=True)
class NullspaceN:
    """Orthonormal basis N of the nullspace of H* = [T  B*], split into its
    top p rows N1 and bottom q rows N2 (N2 = -(BB*)^{-1} B T N1)."""

    N: np.ndarray
    N1: np.ndarray
    N2: np.ndarray


def nullspace_of_hstar(dec: TridiagDecomp) -> NullspaceN:
    """Canonical (orthonormal) nullspace basis of the adjoint of H = [T; B].

    Raises ValueError when q = 0: the nullspace is trivial then.
    """
    if dec.q == 0:
        raise ValueError("q = 0: the nullspace of H* is trivial")
    hstar = adjoint(dec.H)  # p x (p+q)
    _, sigma, vh = np.linalg.svd(hstar, full_matrices=True)
    r = singular_value_rank(sigma, hstar.shape)
    n_basis = adjoint(vh[r:])  # (p+q) x (p+q-r); width q when H has full rank
    return NullspaceN(N=n_basis, N1=n_basis[: dec.p], N2=n_basis[dec.p:])


@dataclass(frozen=True)
class ShiftedBlocks:
    """Shift-dependent blocks at one omega: F_omega = D* (E + omega I)^{-1} D
    and the compressed resolvent block
    G_omega = [[T, B*], [B, C - F_omega]] + omega I (positive definite)."""

    omega: float
    F_omega: np.ndarray
    G_omega: np.ndarray


def check_omega(dec: TridiagDecomp, omega: float) -> None:
    check_shift(omega, dec.omega_min, dec.op_norm)


def _coupled_solve(dec: TridiagDecomp, sigma: float, y: np.ndarray) -> np.ndarray:
    """D* (E + sigma I)^{-1} x = (U_E* D)* diag(1/(xi + sigma)) y for x given
    in E's eigenbasis as y = U_E* x (a vector or columns): weights from
    :func:`shift_weights` and one product, no solve; zero (q rows) when
    n = p + q.

    No shift needs a singularity test. By Cauchy interlacing xi lies in
    [lambda_min, lambda_max] of A, and above the guard
    lambda_min + sigma >= OMEGA_GUARD max(1, ||A||), so
    min(xi + sigma) / max(xi + sigma) >= 1e-8 / (2 + 1e-8). ``is_singular``
    could cut only at 32 (n - p - q) eps times the largest, so it would fire
    only for n - p - q >= about 7.0e5."""
    xi, _, ud = dec.E_coupling
    w = shift_weights(xi, [sigma])[0]
    return adjoint(ud) @ (w * y if y.ndim == 1 else w[:, None] * y)


def shifted_blocks(dec: TridiagDecomp, omega: float) -> ShiftedBlocks:
    """Blocks F_omega = D* (E + omega I)^{-1} D and G_omega for a finite shift
    above the guard; F_omega is (U_E* D)* diag(1/(xi + omega)) U_E* D from
    ``dec.E_coupling``."""
    check_omega(dec, omega)
    if omega == math.inf:
        raise ValueError("shifted blocks need a finite omega: G_omega grows without bound")
    f_omega = hermitian_part(_coupled_solve(dec, omega, dec.E_coupling[2]))
    bottom = np.hstack([dec.B, dec.C - f_omega])
    g_omega = np.vstack([adjoint(dec.H), bottom]) + omega * np.eye(dec.p + dec.q, dtype=dec.T.dtype)
    return ShiftedBlocks(omega=omega, F_omega=f_omega, G_omega=hermitian_part(g_omega))


def _oblique_projection(g: EigDecomposition, h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G^{-1} (H (H* G^{-1} H)^{-1} H* G^{-1} - I) w for a factored Hermitian
    G; at G = G_mu it is J(mu) w, the right-hand side of the block system's
    second equation."""
    ginv_w = solve_hermitian(g, w)
    ginv_h = solve_hermitian(g, h)
    inner = hermitian_part(adjoint(h) @ ginv_h)
    return ginv_h @ solve_hermitian(inner, adjoint(h) @ ginv_w) - ginv_w


def j_matrix(dec: TridiagDecomp, mu: float) -> np.ndarray:
    """J(mu) = G_mu^{-1} (H (H* G_mu^{-1} H)^{-1} H* G_mu^{-1} - I); its image
    equals the image of the nullspace basis N."""
    h = dec.H
    g_mu = hermitian_eig(shifted_blocks(dec, mu).G_omega)
    return _oblique_projection(g_mu, h, np.eye(dec.p + dec.q, dtype=h.dtype))
