"""Membership, construction, dimension formulas, and perturbations for the
matrix sets {A : S + A S = S'} and their invertible / Hermitian / positive /
invertible-compression refinements.

All six classes are smooth real manifolds; only the membership predicates
and the dimension counts are implemented here (no charts or tangent data).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .linalg import (
    adjoint,
    extend_orthonormal,
    hermitian_eig,
    is_hermitian,
    numerical_rank,
)
from .subspaces import (
    SUBSPACE_EQUAL_TOL,
    Subspace,
    orthogonal_complement,
    reach,
    subspaces_equal,
)


class ManifoldClass(Enum):
    M = "M"
    M_INV = "M_inv"
    M_SYM = "M_sym"
    M_SYMINV = "M_syminv"
    M_POS = "M_pos"
    M_SYMT = "M_symT"

    @classmethod
    def parse(cls, name: str) -> "ManifoldClass":
        for member in cls:
            if member.value == name or member.name == name.upper():
                return member
        raise ValueError(f"unknown manifold class {name!r}")


_SYM_CLASSES = {ManifoldClass.M_SYM, ManifoldClass.M_SYMINV,
                ManifoldClass.M_POS, ManifoldClass.M_SYMT}
_INV_CLASSES = {ManifoldClass.M_INV, ManifoldClass.M_SYMINV}


def _check_nested(s: Subspace, s_prime: Subspace,
                  tol: float = SUBSPACE_EQUAL_TOL) -> tuple[int, int]:
    if s.ambient_dim != s_prime.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    outside = np.linalg.norm(s.basis - s_prime.project(s.basis), axis=0)
    if np.any(outside > tol * np.linalg.norm(s.basis, axis=0)):
        raise ValueError("S is not contained in S'")
    return s.dim, s_prime.dim - s.dim


def membership(
    a: np.ndarray,
    s: Subspace,
    s_prime: Subspace,
    cls: ManifoldClass = ManifoldClass.M,
    tol: float = SUBSPACE_EQUAL_TOL,
) -> bool:
    """Whether S + A S = S' and A satisfies the class predicate.

    Subspace equality is tested as dimension match plus projector distance
    <= tol. Requires S to be contained in S'.
    """
    a = np.asarray(a)
    _check_nested(s, s_prime, tol)
    if not subspaces_equal(reach(a, s), s_prime, tol):
        return False
    if cls in _INV_CLASSES and numerical_rank(a) < a.shape[0]:
        return False
    if cls in _SYM_CLASSES and not is_hermitian(a):
        return False
    if cls is ManifoldClass.M_POS and hermitian_eig(a).lambdas[-1] <= 0:
        return False
    if cls is ManifoldClass.M_SYMT and not compression_invertible(a, s):
        return False
    return True


def compression_invertible(a: np.ndarray, s: Subspace) -> bool:
    """Whether the compression V* A V onto S is invertible, its rank judged
    against ||A||_2: a compression that is round-off of the operator scale is
    singular no matter what its own spectrum says."""
    a = np.asarray(a)
    compression = adjoint(s.basis) @ (a @ s.basis)
    return numerical_rank(compression, scale=float(np.linalg.norm(a, 2))) == s.dim


def swap_witness(s: Subspace, s_prime: Subspace) -> np.ndarray:
    """Hermitian member of the S + A S = S' set built by exchanging the first
    q directions of S with the complement directions of S' and fixing
    everything else. Indefinite when q >= 1 (eigenvalues +-1), the identity
    when q = 0; its compression onto S is singular whenever q >= 1.
    """
    p, q = _check_nested(s, s_prime)
    if q > p:
        raise ValueError(f"q = {q} > p = {p}: the matrix set is empty")
    n = s.ambient_dim
    dtype = complex if np.iscomplexobj(s.basis) or np.iscomplexobj(s_prime.basis) else float
    if q == 0:
        return np.eye(n, dtype=dtype)
    v = s.basis
    # the S' basis columns are unit vectors, so anything below the round-off
    # floor relative to 1 is not a genuine new direction
    vp = extend_orthonormal(v, s_prime.basis, scale=1.0)
    if vp.shape[1] != q:
        raise ValueError("could not split S' into S plus a q-dimensional complement")
    vpp = orthogonal_complement(Subspace(np.hstack([v, vp]))).basis
    swap = vp @ adjoint(v[:, :q])
    return swap + adjoint(swap) + v[:, q:] @ adjoint(v[:, q:]) + vpp @ adjoint(vpp)


def construct_positive_member(s: Subspace, s_prime: Subspace) -> np.ndarray:
    """A positive Hermitian witness with S + A S = S' (empty set if q > p).

    Diagonal shifts do not change S + A S, so the swap witness plus
    1 + |lambda_min| lands in the positive class; the shift is skipped when
    the witness is already positive (q = 0)."""
    a0 = swap_witness(s, s_prime)
    lam_min = float(hermitian_eig(a0).lambdas[-1])
    shift = 0.0 if lam_min > 0 else 1.0 + abs(lam_min)
    return a0 + shift * np.eye(a0.shape[0], dtype=a0.dtype)


def manifold_dimension(n: int, p: int, q: int, cls: ManifoldClass, field: str = "R") -> int:
    """Real manifold dimension of the matrix set for the given shape.

    The general and invertible classes have dimension alpha*(n^2 - p*(n-p-q));
    the Hermitian-flavored classes alpha*(n*(n-1)/2 - p*(n-p-q)) + n, with
    alpha = 1 over R and 2 over C.
    """
    if not (0 <= q <= p <= n):
        raise ValueError(f"need 0 <= q <= p <= n, got n={n}, p={p}, q={q}")
    if field not in ("R", "C"):
        raise ValueError(f"unknown field {field!r}")
    alpha = 1 if field == "R" else 2
    if cls in (ManifoldClass.M, ManifoldClass.M_INV):
        return alpha * (n * n - p * (n - p - q))
    return alpha * (n * (n - 1) // 2 - p * (n - p - q)) + n


def _epsilon_schedule(a: np.ndarray):
    """Geometric perturbation schedule: 20 steps of ratio 10 starting at
    1e-12 * max(1, ||A||_2)."""
    eps0 = 1e-12 * max(1.0, float(np.linalg.norm(np.asarray(a), 2)))
    return [eps0 * 10.0**k for k in range(20)]


def perturb_to_invertible(a: np.ndarray, subspace: Subspace | None = None) -> np.ndarray:
    """First A + eps*I along a geometric schedule (20 steps of ratio 10 from
    1e-12 * max(1, ||A||_2)) that is invertible (and, when a subspace is
    supplied, has an invertible compression V* (A + eps I) V).

    eps = 0 is tried first, so an already-valid A comes back unchanged.
    Diagonal shifts leave S + A S untouched, so class membership of the kind
    S + A S = S' survives the perturbation. Raises when the schedule is
    exhausted.
    """
    a = np.asarray(a)
    n = a.shape[0]
    for eps in [0.0, *_epsilon_schedule(a)]:
        candidate = a if eps == 0.0 else a + eps * np.eye(n, dtype=a.dtype)
        if numerical_rank(candidate) < n:
            continue
        if subspace is not None and not compression_invertible(candidate, subspace):
            continue
        return candidate
    raise ValueError("perturbation schedule exhausted without reaching invertibility")
