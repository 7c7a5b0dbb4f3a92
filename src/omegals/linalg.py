"""Field-generic dense linear-algebra kernels.

Every routine works over R or C; the field is carried by the dtype
(``complex128`` vs ``float64``) so conjugation degrades to a no-op for real
input. No function mutates its arguments. All are pure except
:func:`operator_eig`, which keeps and reads the factorization of the last
dense operator factored, for as long as that array lives unchanged. A
spectrum is reached two ways only: :func:`hermitian_eig` of a matrix and
:func:`operator_eig` of a caller's operator. Routines that only apply an
operator with ``@`` also take a SciPy sparse matrix (:func:`as_operator`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(np.float64).eps

# Relative Frobenius tolerance below which a matrix counts as Hermitian.
HERMITIAN_TOL = 1e-10


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2, of each matrix in a stack (..., n, n); suppresses round-off
    drift before eigendecompositions."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _is_sparse(a) -> bool:
    """Whether ``a`` is a SciPy sparse matrix or array, recognized by its
    stored-entry count so that no SciPy module is imported here."""
    return hasattr(a, "nnz")


def as_operator(a):
    """``a`` itself when it is sparse, else ``np.asarray(a)``: the form taken
    by the routines that only apply A with ``@``."""
    return a if _is_sparse(a) else np.asarray(a)


def dense(a) -> np.ndarray:
    """A sparse operator as a dense array, or ``np.asarray(a)``."""
    return a.toarray() if _is_sparse(a) else np.asarray(a)


def stored_entries(a) -> np.ndarray:
    """The entries a sparse operator stores (``a.data``), or the dense array
    itself; Frobenius norms and finiteness read the same from either."""
    return a.data if _is_sparse(a) else np.asarray(a)


def is_hermitian(m) -> bool:
    """Whether ``m`` (dense or sparse) equals its adjoint within
    ``HERMITIAN_TOL`` relative Frobenius norm."""
    m = as_operator(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = np.linalg.norm(stored_entries(m))
    if scale == 0.0:
        return True
    return np.linalg.norm(stored_entries(m - m.conj().T)) <= HERMITIAN_TOL * scale


def default_rank_tol(shape: tuple[int, int]) -> float:
    """Default relative threshold for rank decisions: max(rows, cols)*eps*32."""
    return max(shape) * EPS * 32 if len(shape) else EPS * 32


# The message of every LinAlgError raised for a singular Hermitian matrix.
SINGULAR_MESSAGE = "matrix is singular to working precision"


def is_singular(lambdas: np.ndarray) -> bool:
    """Whether the Hermitian matrix with spectrum ``lambdas`` is singular to
    working precision: min |lambda| <= ``default_rank_tol`` of its order
    times max |lambda|. An empty spectrum (the 0 x 0 matrix) is not."""
    mags = np.abs(np.asarray(lambdas))
    if mags.size == 0:
        return False
    return bool(mags.min() <= default_rank_tol((mags.size, mags.size)) * mags.max())


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral factorization M = U diag(lambdas) U* with lambdas descending.

    A ``ProblemInstance`` reads its factorization only through ``lambdas``
    and :meth:`apply_uh`, so any object with these two (such as the sine
    transform of the grid Laplacian) can stand in for it there."""

    u: np.ndarray
    lambdas: np.ndarray

    def apply_uh(self, x: np.ndarray) -> np.ndarray:
        """U* x for a vector or a matrix of columns."""
        return adjoint(self.u) @ x


def hermitian_eig(m: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Raises ValueError for non-square input or when the Hermitian check fails
    beyond ``HERMITIAN_TOL`` (relative Frobenius). A sparse matrix is
    factored densely. The input is symmetrized before the factorization so
    that round-off drift cannot leak into the eigenvectors. U is stored
    C-contiguous: the reversed view has a negative column stride, which every
    later product with U would copy first.
    """
    m = dense(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    lam, u = np.linalg.eigh(hermitian_part(m))
    return EigDecomposition(np.ascontiguousarray(u[:, ::-1]), lam[::-1])


# The last dense operator factored by operator_eig: (weak reference to the
# array, digest of its dtype, shape and bytes, its EigDecomposition), or None.
_operator_memo = None


def _digest(a: np.ndarray) -> bytes:
    import hashlib  # about 2.4 ms to import; only factored operators need it

    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a))
    return h.digest()


def _forget(ref) -> None:
    """Weak-reference callback: drop the memo entry of an array that died."""
    global _operator_memo
    if _operator_memo is not None and _operator_memo[0] is ref:
        _operator_memo = None


def operator_eig(a) -> EigDecomposition:
    """:func:`hermitian_eig` of a caller's operator A, factored once per array.

    The factorization of the last dense ``np.ndarray`` factored here is kept,
    tied to the array by a weak reference, and returned (the same object)
    while that array lives and its bytes hash to the same sha256 digest, so
    an in-place change to A factors it again. Its ``u`` and ``lambdas`` are
    read-only. A sparse operator, or any other input, is factored on every
    call and not kept.
    """
    global _operator_memo
    memo = _operator_memo
    if memo is not None and memo[0]() is a and memo[1] == _digest(a):
        return memo[2]
    eig = hermitian_eig(a)
    if isinstance(a, np.ndarray):
        eig.u.flags.writeable = False
        eig.lambdas.flags.writeable = False
        _operator_memo = (weakref.ref(a, _forget), _digest(a), eig)
    return eig


def extend_orthonormal(q: np.ndarray, cols: np.ndarray, scale: float | None = None) -> np.ndarray:
    """New orthonormal columns Q' with [q Q'] spanning span(q, cols): the
    library's one Gram-Schmidt kernel, for q (n x m) with orthonormal columns.

    Each column of ``cols`` is taken in order and projected off [q, kept]
    twice as a block, v -= B (B* v) (twice is enough to hold ||Q*Q - I|| near
    machine precision). A column is dropped when it is zero or its residual
    is below drop_tol = ``default_rank_tol(cols.shape)`` times its
    norm. ``scale`` marks the columns as parts of a larger computation whose
    round-off a per-column test cannot see: columns whose norm or residual is
    below ``drop_tol * scale`` are dropped as well. Once [q, kept] has n
    columns the remaining columns are not looked at.
    """
    q, cols = np.asarray(q), np.asarray(cols)
    (n, m), k = q.shape, cols.shape[1]
    drop_tol = default_rank_tol((n, max(k, 1)))
    basis = np.empty((n, m + k), dtype=np.result_type(q, cols, np.float64), order="F")
    basis[:, :m] = q
    width = m
    for j in range(k):
        if width == n:
            # [q, kept] spans F^n: what is left of a column is round-off
            break
        v = cols[:, j].astype(basis.dtype)
        orig = np.linalg.norm(v)
        if orig == 0.0 or (scale is not None and orig <= drop_tol * scale):
            continue
        kept = basis[:, :width]
        for _ in range(2):
            v -= kept @ (adjoint(kept) @ v)
        nrm = np.linalg.norm(v)
        if nrm > drop_tol * (max(orig, scale) if scale is not None else orig):
            basis[:, width] = v / nrm
            width += 1
    return basis[:, m:width]


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis for the span of the given vectors, kept in order:
    :func:`extend_orthonormal` of the empty basis, so the result is
    rank-revealing under the same drop rule.

    Accepts a sequence of n-vectors or an (n, k) array whose columns are the
    vectors. Empty input yields a 0-column basis.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = vectors
    else:
        vecs = list(vectors)
        if not vecs:
            return np.zeros((0, 0))
        cols = np.column_stack([np.asarray(v) for v in vecs])
    return extend_orthonormal(np.zeros((cols.shape[0], 0)), cols)


def numerical_rank(m: np.ndarray, scale: float | None = None) -> int:
    """Number of singular values above ``default_rank_tol(m.shape)`` times
    sigma_1 (0 for a zero matrix).

    Ties at the threshold are excluded, i.e. decided toward the smaller rank.
    ``scale`` replaces sigma_1 as the reference, for blocks extracted from a
    larger computation whose own leading singular value may be round-off.
    """
    m = np.asarray(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    reference = scale if scale is not None else (s[0] if s.size else 0.0)
    if s.size == 0 or reference == 0.0:
        return 0
    return int(np.count_nonzero(s > default_rank_tol(m.shape) * reference))


def solve_hermitian(m, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for Hermitian invertible M (vector or matrix rhs).

    ``m`` may be a matrix or a precomputed :class:`EigDecomposition`; the
    solve runs through the spectral factorization either way, which keeps the
    singularity test honest: the call fails when the smallest \\|eigenvalue\\|
    drops below ``default_rank_tol`` of the order times the largest.
    """
    eig = m if isinstance(m, EigDecomposition) else hermitian_eig(np.asarray(m))
    lam = eig.lambdas
    if is_singular(lam):
        raise np.linalg.LinAlgError(SINGULAR_MESSAGE)
    rhs = np.asarray(rhs)
    y = eig.u.conj().T @ rhs
    y = y / lam if rhs.ndim == 1 else y / lam[:, None]
    return eig.u @ y
