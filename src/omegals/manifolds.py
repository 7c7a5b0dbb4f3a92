"""Membership, construction, dimension formulas, and perturbations for the
matrix sets {A : S + A S = S'} and their invertible / Hermitian / positive /
invertible-compression refinements.

All six classes are smooth real manifolds; only the membership predicates
and the dimension counts are implemented here (no charts or tangent data).
"""

from __future__ import annotations

from enum import Enum
from functools import cache

import numpy as np

from .linalg import (
    adjoint,
    extend_orthonormal,
    hermitian_eig,
    is_hermitian,
    numerical_rank,
    singular_value_rank,
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


def _check_nested(s: Subspace, s_prime: Subspace,
                  tol: float = SUBSPACE_EQUAL_TOL) -> tuple[int, int]:
    if s.ambient_dim != s_prime.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    outside = np.linalg.norm(s.basis - s_prime.project(s.basis), axis=0)
    if np.any(outside > tol * np.linalg.norm(s.basis, axis=0)):
        raise ValueError("S is not contained in S'")
    return s.dim, s_prime.dim - s.dim


def _reached(a: np.ndarray, s: Subspace, s_prime: Subspace, tol: float) -> bool:
    """Whether S + A S = S' (dimension match plus projector distance <=
    tol); raises unless S is contained in S'."""
    _check_nested(s, s_prime, tol)
    return bool(subspaces_equal(reach(a, s), s_prime, tol))


def _class_tests(a: np.ndarray, s: Subspace) -> dict:
    """The predicate of each class for a member A, as a call that evaluates
    only what its class needs, each part at most once: the SVD of A (its
    rank and ||A||_2), the Hermitian test and lambda_min."""
    sigma = cache(lambda: np.linalg.svd(a, compute_uv=False))
    inv = cache(lambda: singular_value_rank(sigma(), a.shape) == a.shape[0])
    sym = cache(lambda: is_hermitian(a))
    return {
        ManifoldClass.M: lambda: True,
        ManifoldClass.M_INV: inv,
        ManifoldClass.M_SYM: sym,
        ManifoldClass.M_SYMINV: lambda: sym() and inv(),
        ManifoldClass.M_POS: lambda: sym() and hermitian_eig(a).lambdas[-1] > 0,
        ManifoldClass.M_SYMT: lambda: sym() and compression_invertible(
            a, s, op_norm=float(sigma()[0])),
    }


def member_classes(a: np.ndarray, s: Subspace, s_prime: Subspace,
                   tol: float = SUBSPACE_EQUAL_TOL) -> frozenset[ManifoldClass]:
    """The classes A belongs to: empty unless S + A S = S' (dimension match
    plus projector distance <= tol), else M and each refinement whose
    predicate A satisfies, each predicate evaluated once. Requires S to be
    contained in S'."""
    a = np.asarray(a)
    if not _reached(a, s, s_prime, tol):
        return frozenset()
    return frozenset(cls for cls, holds in _class_tests(a, s).items() if holds())


def membership(a: np.ndarray, s: Subspace, s_prime: Subspace,
               cls: ManifoldClass = ManifoldClass.M, tol: float = SUBSPACE_EQUAL_TOL) -> bool:
    """Whether S + A S = S' and A satisfies the class predicate of
    :func:`member_classes`, evaluating only what ``cls`` needs."""
    a = np.asarray(a)
    return _reached(a, s, s_prime, tol) and bool(_class_tests(a, s)[cls]())


def compression_invertible(a: np.ndarray, s: Subspace, op_norm: float | None = None) -> bool:
    """Whether the compression V* A V onto S is invertible, its rank judged
    against ||A||_2 (``op_norm``, when the caller has it): a compression that
    is round-off of the operator scale is singular no matter what its own
    spectrum says."""
    a = np.asarray(a)
    op_norm = float(np.linalg.norm(a, 2)) if op_norm is None else op_norm
    return numerical_rank(adjoint(s.basis) @ (a @ s.basis), scale=op_norm) == s.dim


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
    1 + |lambda_min| lands in the positive class (:func:`positive_shift`)."""
    return positive_shift(swap_witness(s, s_prime))


def positive_shift(a0: np.ndarray) -> np.ndarray:
    """Hermitian A0 plus (1 + |lambda_min|) I, or A0 itself when it is
    already positive."""
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
        sigma = np.linalg.svd(candidate, compute_uv=False)
        if singular_value_rank(sigma, candidate.shape) < n:
            continue
        if subspace is not None and not compression_invertible(candidate, subspace,
                                                               op_norm=float(sigma[0])):
            continue
        return candidate
    raise ValueError("perturbation schedule exhausted without reaching invertibility")
