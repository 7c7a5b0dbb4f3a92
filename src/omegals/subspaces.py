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

from .linalg import (
    EigDecomposition,
    adjoints,
    as_operator,
    check_orthonormal,
    extend_orthonormal,
    extend_orthonormal_stacked,
    hermitian_part,
    orthonormalize,
    singular_value_ranks,
)

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
        check_orthonormal(b)

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


class PaddedGroup:
    """T instances of one field, for the stacked forms of
    :func:`new_directions`, :func:`subspace_sum`, :func:`orthogonal_complement`
    and the nullspace and spectrum ends of a matrix: instance t lives in the
    first n[t] of N = ``size`` (default max n) coordinates, and every (T, N,
    N) stack holds zeros outside them. A space is a pair (bases, widths): the
    basis of instance t is the first widths[t] columns of bases[t], the
    columns after them zero. Every basis built passes the orthonormality
    guard of :class:`Subspace`."""

    def __init__(self, n: np.ndarray, size: int | None = None):
        self.n = n
        self.inside = np.arange(n.max() if size is None else size) < n[:, None]

    @property
    def outside(self) -> np.ndarray:
        """The identity on the coordinates past n[t], formed on each use so
        that no group holds a stack of its own."""
        return np.eye(self.inside.shape[1]) * ~self.inside[:, None, :]

    @property
    def eye(self) -> np.ndarray:
        """The identity on the coordinates up to n[t], formed on each use."""
        return np.eye(self.inside.shape[1]) * self.inside[:, None, :]

    def pad(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """The (n[t], k_t) blocks of the first instances as one zero-padded
        stack, and the k_t."""
        size = self.inside.shape[1]
        stack = np.zeros((len(blocks), size, size), dtype=blocks[0].dtype)
        for t, block in enumerate(blocks):
            stack[t, : block.shape[0], : block.shape[1]] = block
        return stack, np.array([block.shape[1] for block in blocks])

    def reach(self, a, space) -> tuple:
        """The :func:`new_directions` step of the operators ``a`` (T, N, N)
        on ``space``, for :meth:`extend`: A V past V, with the scale
        :func:`norm2_bound` of each A. The zero columns of V give zero
        columns of A V, which k = widths leaves out. ``a`` may also be a
        function that forms the stack: it is called when :meth:`extend`
        fills this step's columns, so that an operator derived from others
        (A + B, A B, A^-1) lives only while its product is formed."""
        basis, width = space

        def fill(out):
            op = a() if callable(a) else a
            np.matmul(op, basis, out=out)
            return norm2_bound(op)

        return basis, width, fill, width

    def sum(self, s1, s2, scale: float = 0.0) -> tuple:
        """The :func:`subspace_sum` step, for :meth:`extend`: the bases of S1
        extended by those of S2, with no scale (or ``scale``, as
        :func:`~omegals.manifolds.swap_witness` extends V by S')."""
        basis, width = s2

        def fill(out):
            np.copyto(out, basis)
            return np.full(len(self.n), scale)

        return (*s1, fill, width)

    def span(self, cols) -> tuple:
        """The :func:`~omegals.linalg.orthonormalize` step, for
        :meth:`extend`: the columns (stack, counts) past an empty basis."""
        return self.sum((np.zeros_like(cols[0]), np.zeros_like(cols[1])), cols)

    def extend(self, *steps) -> list:
        """The spaces [q, kept] of steps (q, m, fill, k) of
        :func:`~omegals.linalg.extend_orthonormal_stacked`, each for the T
        instances, all in one call. ``fill(out)`` writes the step's (T, N, N)
        columns into its slice of one buffer, so no step's columns exist
        twice, and returns the step's scale. Each space returned owns its
        stack, so that a caller that reads only the widths of some can
        release their bases."""
        basis, m, fills, k = zip(*steps)
        size = len(self.n)
        cols = np.empty((size * len(steps), *basis[0].shape[1:]), np.result_type(*basis))
        # filled before the bases are joined, so that no operator a fill
        # forms coexists with both buffers
        scale = np.concatenate([fill(cols[i * size:(i + 1) * size]) for i, fill in enumerate(fills)])
        basis, m, k = (np.concatenate(part) for part in (basis, m, k))
        width = extend_orthonormal_stacked(basis, m, cols, k, scale, np.tile(self.n, len(steps)))
        del cols  # freed before the guard's Gram matrices
        check_orthonormal(basis, width)
        return _split(basis, width, len(steps))

    def indices(self, *steps) -> list:
        """The widths that the steps of :meth:`extend` add to their spaces,
        such as the index of invariance of each :meth:`reach`; the bases
        they extend to are freed at once."""
        return [width - step[1] for (_, width), step in zip(self.extend(*steps), steps)]

    def complement(self, *spaces) -> list:
        """:func:`orthogonal_complement` in F^n[t] of each space, by one
        stacked SVD: with the identity on the coordinates past n[t] added,
        the left singular vectors past the first width + N - n[t] span the
        complement (:func:`_trailing`)."""
        basis, width = (np.concatenate(part) for part in zip(*spaces))
        inside = np.concatenate([self.inside] * len(spaces))
        basis += np.eye(inside.shape[1]) * ~inside[:, None, :]  # on a copy of the bases
        u = np.linalg.svd(basis)[0]
        return _split(*_trailing(u, inside, width + (~inside).sum(axis=1)), len(spaces))

    def nullspace(self, m: np.ndarray, scale: np.ndarray | None = None) -> tuple:
        """The nullspace in F^n[t] of each matrix of ``m``, the t-th with n[t]
        columns and at most n[t] rows, zero elsewhere, from one stacked SVD:
        the right singular vectors past the rank, as in
        :func:`~omegals.decomposition.nullspace_of_hstar`, the rank by
        :func:`~omegals.linalg.singular_value_rank` for order n[t] against
        ``scale[t]`` or sigma_1.

        The coordinates past n[t] get c times the identity, so they leave the
        nullspace and add singular values c: c = scale, or ||M||_F /
        sqrt(n[t]), which lies between sigma_1 / sqrt(n[t]) and sigma_1, so
        that sigma_1 stays the reference and c stays above the threshold."""
        c = np.linalg.norm(m, axis=(1, 2)) / np.sqrt(self.n) if scale is None else scale
        _, sigma, vh = np.linalg.svd(m + c[:, None, None] * self.outside)
        return _trailing(adjoints(vh), self.inside, singular_value_ranks(sigma, self.n, scale))

    def spectrum_ends(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lambda_min and max |lambda| of each matrix of a Hermitian stack
        (the caller checks it with :func:`~omegals.linalg.is_hermitian`), from
        its eigenvalues alone; :func:`~omegals.linalg.hermitian_eig` stays the
        route to eigenvectors. A[0, 0] goes on the coordinates past n[t]: it
        lies in A's numerical range, so it moves neither end."""
        lam = np.linalg.eigvalsh(hermitian_part(a + a[:, :1, :1].real * self.outside))
        return lam[:, 0], np.abs(lam[:, [0, -1]]).max(axis=1)


def _trailing(u: np.ndarray, inside: np.ndarray, start: np.ndarray) -> tuple:
    """The space whose t-th basis is the columns of u[t] from start[t] on,
    moved to the front, with their round-off on the coordinates outside
    ``inside[t]`` set to zero; checked orthonormal."""
    size = inside.shape[1]
    cols = np.arange(size) + start[:, None]
    basis = np.take_along_axis(u, np.minimum(cols, size - 1)[:, None, :], axis=2)
    basis *= inside[:, :, None] & (cols < size)[:, None, :]
    check_orthonormal(basis, size - start)
    return basis, size - start


def spaces_equal(s1, s2, tol: float = SUBSPACE_EQUAL_TOL) -> np.ndarray:
    """:func:`subspaces_equal` of each pair of spaces (bases, widths) of two
    stacks: matching widths and projector distance <= tol, the distances
    from one stacked SVD."""
    (b1, w1), (b2, w2) = s1, s2
    distance = np.linalg.svd(b1 @ adjoints(b1) - b2 @ adjoints(b2), compute_uv=False)[:, 0]
    return (w1 == w2) & (distance <= tol)


def _split(basis, width, parts) -> list:
    """A stack of bases and its widths, split into ``parts`` equal spaces,
    each a copy when there are several, so that each can be freed alone."""
    if parts == 1:
        return [(basis, width)]
    size = len(basis) // parts
    return [(basis[i * size:(i + 1) * size].copy(), width[i * size:(i + 1) * size])
            for i in range(parts)]


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


def norm2_bound(a) -> np.ndarray:
    """sqrt(||A||_1 ||A||_inf), an O(n^2) upper bound on ||A||_2 (O(nnz) for a
    sparse A), of one operator or of each matrix of a dense stack."""
    mags = abs(a)
    col, row = (np.asarray(mags.sum(axis=axis)).reshape(*a.shape[:-2], -1).max(axis=-1)
                for axis in (-2, -1))
    return np.sqrt(col * row)


def new_directions(a: np.ndarray, s: Subspace) -> np.ndarray:
    """V': orthonormal columns with [V V'] spanning S + A S, in the order of
    the columns of A V that contribute them.

    The one place that decides what counts as a new direction: A V extended
    past V by :func:`extend_orthonormal` with scale sqrt(||A||_1 ||A||_inf)
    (:func:`norm2_bound`; :meth:`PaddedGroup.reach` hands the same to the
    stacked kernel). The round-off left of an invariant direction is of the
    size of A, not of A S (eigenvalues of S small against ||A|| leave
    residuals far above eps ||A V||). ||A V||_2 needs no term of its own: V
    has orthonormal columns, so ||A V||_2 <= ||A||_2, which the bound already
    covers.
    """
    a = as_operator(a)
    if a.shape[0] != s.ambient_dim:
        raise ValueError("operator and subspace ambient dimensions differ")
    return _directions(a, s.basis, a @ s.basis)


def _directions(a, v: np.ndarray, av: np.ndarray) -> np.ndarray:
    """:func:`new_directions` of A on the span of V, given the product A V."""
    scale = float(norm2_bound(a)) if a.size else 0.0
    return extend_orthonormal(v, av, scale=scale)


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
