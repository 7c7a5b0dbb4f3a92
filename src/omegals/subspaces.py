"""Subspace and affine-subspace algebra, Krylov construction, and the index
of invariance.

A subspace of F^n is represented by a semi-unitary basis (n x k, possibly
k = 0 for the zero subspace); an affine subspace by its minimum-norm point
plus a direction subspace, which is the unique normal representation. All
values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EigDecomposition, as_operator, extend_orthonormal, orthonormalize

# Eigenvalues closer than this (relative to max(1, ||A||_2)) collapse into
# one eigenspace block.
EIG_CLUSTER_TOL = 1e-8

# Default projector distance up to which two subspaces count as equal, and
# the relative distance up to which a subspace counts as contained in another.
SUBSPACE_EQUAL_TOL = 1e-8


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F^n carried by a semi-unitary basis."""

    basis: np.ndarray  # (n, k), columns orthonormal

    def __post_init__(self):
        b = np.asarray(self.basis)
        if b.ndim != 2:
            raise ValueError("basis must be a 2-D array")
        if not np.isfinite(b).all():
            raise ValueError("basis has a non-finite entry (NaN or inf)")
        k = b.shape[1]
        if k:
            gram_err = np.linalg.norm(b.conj().T @ b - np.eye(k))
            if gram_err > 1e-8 * max(1, k):
                raise ValueError("basis columns are not orthonormal")

    @classmethod
    def from_vectors(cls, vectors) -> "Subspace":
        """Subspace spanned by arbitrary vectors (orthonormalized, in order)."""
        return cls(orthonormalize(vectors))

    @classmethod
    def zero(cls, n: int, complex_field: bool = False) -> "Subspace":
        dtype = complex if complex_field else float
        return cls(np.zeros((n, 0), dtype=dtype))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.conj().T @ x)


def _check_ambient(*spaces: Subspace) -> int:
    dims = {s.ambient_dim for s in spaces}
    if len(dims) != 1:
        raise ValueError(f"ambient dimension mismatch: {sorted(dims)}")
    return dims.pop()


def subspaces_equal(s1: Subspace, s2: Subspace, tol: float = SUBSPACE_EQUAL_TOL) -> bool:
    """Equality as sets: matching dimension and projector distance <= tol."""
    _check_ambient(s1, s2)
    if s1.dim != s2.dim:
        return False
    if s1.dim == 0:
        return True
    return np.linalg.norm(s1.projector() - s2.projector(), 2) <= tol


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    _check_ambient(s1, s2)
    return Subspace(np.hstack([s1.basis, extend_orthonormal(s1.basis, s2.basis)]))


def orthogonal_complement(s: Subspace) -> Subspace:
    """S^perp, of dimension n - dim S."""
    n, k = s.basis.shape
    if k == 0:
        return Subspace(np.eye(n, dtype=s.basis.dtype))
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(u[:, k:])


def subspace_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """S1 cap S2, computed as the complement of the sum of complements."""
    _check_ambient(s1, s2)
    return orthogonal_complement(
        subspace_sum(orthogonal_complement(s1), orthogonal_complement(s2))
    )


def krylov(a: np.ndarray, b: np.ndarray, k: int) -> Subspace:
    """Orthonormal basis of span{b, Ab, ..., A^(k-1) b}.

    Built iteratively: each step extends the basis (:func:`extend_orthonormal`)
    by A applied to its last column. Raw power stacks [b, Ab, A^2 b, ...] are
    numerically rank-deficient long before the span actually degenerates, so
    they are never formed. Stops early once the next direction falls into the
    current span (invariance reached), so the dimension can be below k; a
    Krylov space has at most n dimensions, so k is capped at n. b = 0 yields
    the zero subspace. ``a`` may be dense or sparse; it is only applied.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a = as_operator(a)
    b = np.asarray(b)
    n = b.shape[0]
    dtype = np.promote_types(np.promote_types(a.dtype, b.dtype), np.float64)
    if np.linalg.norm(b) == 0.0:
        return Subspace.zero(n, complex_field=np.issubdtype(dtype, np.complexfloating))
    basis = (b.astype(dtype) / np.linalg.norm(b))[:, None]
    for _ in range(min(k, n) - 1):
        new = extend_orthonormal(basis, a @ basis[:, -1:])
        if not new.shape[1]:
            break
        basis = np.hstack([basis, new])
    return Subspace(basis)


def new_directions(a: np.ndarray, s: Subspace) -> np.ndarray:
    """V': orthonormal columns with [V V'] spanning S + A S, in the order of
    the columns of A V that contribute them.

    The one place that decides what counts as a new direction: A V extended
    past V by :func:`extend_orthonormal` with scale sqrt(||A||_1 ||A||_inf),
    an O(n^2) upper bound on ||A||_2 (O(nnz) for a sparse A; the same value
    either way). The round-off left of an invariant direction is of the size
    of A, not of A S (eigenvalues of S small against ||A|| leave residuals
    far above eps ||A V||). ||A V||_2 needs no term of its own: V has
    orthonormal columns, so ||A V||_2 <= ||A||_2, which the bound already
    covers.
    """
    a = as_operator(a)
    if a.shape[0] != s.ambient_dim:
        raise ValueError("operator and subspace ambient dimensions differ")
    mags = abs(a)
    scale = float(np.sqrt(mags.sum(axis=0).max() * mags.sum(axis=1).max())) if a.size else 0.0
    return extend_orthonormal(s.basis, a @ s.basis, scale=scale)


def reach(a: np.ndarray, s: Subspace) -> Subspace:
    """S + A S with basis [V V'], V' from :func:`new_directions`."""
    vp = new_directions(a, s)
    return Subspace(np.hstack([s.basis, vp])) if vp.shape[1] else s


def index_of_invariance(a: np.ndarray, s: Subspace) -> int:
    """dim(S + A S) - dim S, the width of V'; zero exactly when S is
    A-invariant."""
    return new_directions(a, s).shape[1]


def invariant_closure(a: np.ndarray, s: Subspace) -> tuple[list[Subspace], int]:
    """Nested sequence S_0 = S, S_{i+1} = S_i + A S_i up to the first
    invariant member; returns (sequence, j) with index(S_j) = 0."""
    chain = [s]
    current = s
    for _ in range(s.ambient_dim + 1):
        nxt = reach(a, current)
        if nxt.dim == current.dim:
            return chain, len(chain) - 1
        current = nxt
        chain.append(current)
    raise RuntimeError("invariant closure did not terminate")  # unreachable


@dataclass(frozen=True)
class AffineSubspace:
    """Normal representation x0 + S with x0 the minimum-norm point (x0 orthogonal to S)."""

    x0: np.ndarray
    direction: Subspace

    def __post_init__(self):
        if self.x0.shape[0] != self.direction.ambient_dim:
            raise ValueError("x0 and direction ambient dimensions differ")
        overlap = np.linalg.norm(self.direction.basis.conj().T @ self.x0)
        if overlap > 1e-8 * max(1.0, float(np.linalg.norm(self.x0))):
            raise ValueError("x0 is not orthogonal to the direction subspace")

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    @property
    def dim(self) -> int:
        return self.direction.dim


def normal_representation(x0_raw: np.ndarray, direction: Subspace) -> AffineSubspace:
    """Affine subspace x0_raw + direction, re-anchored at its minimum-norm
    point (the component of x0_raw orthogonal to the direction)."""
    x0 = x0_raw - direction.project(x0_raw)
    return AffineSubspace(x0, direction)


def eigenspace_split(eig: EigDecomposition) -> tuple:
    """The eigenspaces of a factored Hermitian A as a tuple of (eigenvalue,
    orthonormal basis) blocks, one per distinct eigenvalue, spanning all of
    F^n.

    The blocks are consecutive column slices of ``eig.u``, in descending
    eigenvalue order. Eigenvalues within EIG_CLUSTER_TOL * max(1, ||A||_2)
    of each other merge into one block (chained along the sorted spectrum),
    whose eigenvalue is their mean. One vectorized gap test finds the
    blocks and ``np.add.reduceat`` sums them, in another order than
    ``np.mean``: a mean may differ from np.mean's in its last bits.
    """
    lam, u = eig.lambdas, eig.u
    if lam.size == 0:
        return ()
    scale = max(1.0, float(np.max(np.abs(lam))))
    starts = np.flatnonzero(np.concatenate([[True], lam[:-1] - lam[1:] > EIG_CLUSTER_TOL * scale]))
    stops = np.append(starts[1:], lam.size)
    means = np.add.reduceat(lam, starts) / (stops - starts)
    return tuple((float(m), u[:, i:j]) for m, i, j in zip(means, starts.tolist(), stops.tolist()))


def strongly_orthogonal(u: np.ndarray, v: np.ndarray, blocks: tuple, tol: float = 1e-10) -> bool:
    """Whether the projections of u and v onto every eigenspace block of
    :func:`eigenspace_split` are mutually orthogonal (strictly stronger than
    plain orthogonality)."""
    scale = np.linalg.norm(u) * np.linalg.norm(v)
    if scale == 0.0:
        return True
    for _, q in blocks:
        inner = np.vdot(q.conj().T @ u, q.conj().T @ v)
        if np.abs(inner) > tol * scale:
            return False
    return True
