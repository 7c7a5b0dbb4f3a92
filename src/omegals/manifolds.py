"""Membership, construction, dimension formulas, and perturbations for the
matrix sets {A : S + A S = S'} and their invertible / Hermitian / positive /
invertible-compression refinements.

All six classes are smooth real manifolds; only the membership predicates
and the dimension counts are implemented here (no charts or tangent data).
The stacked forms (:func:`swap_witnesses`, :func:`positive_shifts`,
:func:`invertibility`, :func:`perturb_to_invertible_stacked`) apply the same
rules to the instances of a :class:`~omegals.subspaces.PaddedGroup`, for the
batched manifolds suite.
"""

from __future__ import annotations

from enum import Enum
from functools import cache

import numpy as np

from .linalg import (
    adjoint,
    adjoints,
    extend_orthonormal,
    hermitian_eig,
    is_hermitian,
    numerical_rank,
    singular_value_rank,
    singular_value_ranks,
)
from .subspaces import (
    SUBSPACE_EQUAL_TOL,
    PaddedGroup,
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
    check_contained(s.basis, s_prime.basis, tol)
    return s.dim, s_prime.dim - s.dim


def check_contained(v: np.ndarray, v_prime: np.ndarray, tol: float = SUBSPACE_EQUAL_TOL) -> None:
    """Raise unless every column of V lies in the span of the orthonormal
    V' (relative distance <= tol), for one pair of bases or a stack of
    them."""
    outside = np.linalg.norm(v - v_prime @ (adjoints(v_prime) @ v), axis=-2)
    if np.any(outside > tol * np.linalg.norm(v, axis=-2)):
        raise ValueError("S is not contained in S'")


def _reached(a: np.ndarray, s: Subspace, s_prime: Subspace, tol: float) -> bool:
    """Whether S + A S = S' (dimension match plus projector distance <=
    tol); raises unless S is contained in S'."""
    _check_nested(s, s_prime, tol)
    return bool(subspaces_equal(reach(a, s), s_prime, tol))


# The parts of the predicate of each class beyond S + A S = S', in the order
# they are evaluated: A belongs to the class when all of them hold. The parts
# are whether A is invertible, Hermitian, positive (lambda_min > 0) and has
# an invertible compression onto S (:func:`compression_invertible` at
# ||A||_2).
CLASS_PARTS = {
    ManifoldClass.M: (),
    ManifoldClass.M_INV: ("invertible",),
    ManifoldClass.M_SYM: ("hermitian",),
    ManifoldClass.M_SYMINV: ("hermitian", "invertible"),
    ManifoldClass.M_POS: ("hermitian", "positive"),
    ManifoldClass.M_SYMT: ("hermitian", "compression"),
}


def classes_holding(parts: dict) -> frozenset[ManifoldClass]:
    """The classes whose parts (:data:`CLASS_PARTS`) all hold, for a member
    whose parts are given as values."""
    return frozenset(cls for cls, needs in CLASS_PARTS.items() if all(parts[x] for x in needs))


def _class_tests(a: np.ndarray, s: Subspace) -> dict:
    """The predicate of each class for a member A, as a call that evaluates
    only what its class needs, each part at most once: the SVD of A (its
    rank and ||A||_2), the Hermitian test and lambda_min."""
    sigma = cache(lambda: np.linalg.svd(a, compute_uv=False))
    parts = {
        "invertible": cache(lambda: singular_value_rank(sigma(), a.shape) == a.shape[0]),
        "hermitian": cache(lambda: is_hermitian(a)),
        "positive": lambda: hermitian_eig(a).lambdas[-1] > 0,
        "compression": lambda: compression_invertible(a, s, op_norm=float(sigma()[0])),
    }
    return {cls: lambda needs=needs: all(parts[x]() for x in needs)
            for cls, needs in CLASS_PARTS.items()}


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
    shift = float(_positive_shift_of(hermitian_eig(a0).lambdas[-1]))
    return a0 + shift * np.eye(a0.shape[0], dtype=a0.dtype)


def _positive_shift_of(lam_min):
    """The shift of :func:`positive_shift` for lambda_min, or for each of an
    array of them: 0 when positive, else 1 + |lambda_min|."""
    return np.where(lam_min > 0, 0.0, 1.0 + np.abs(lam_min))


def swap_witnesses(group: PaddedGroup, s, s_prime) -> np.ndarray:
    """:func:`swap_witness` of each instance of a
    :class:`~omegals.subspaces.PaddedGroup`, for the spaces S and S'
    (bases, widths) of the group, zero past n[t]: the nesting check, V' from
    one stacked Gram-Schmidt step with the scale 1.0, V'' from one stacked
    complement, and the identity where q = 0."""
    (v, p), (_, k) = s, s_prime
    check_contained(v, s_prime[0])
    q = k - p
    if np.any(q > p):
        raise ValueError("q > p: the matrix set is empty")
    [z] = group.extend(group.sum(s, s_prime, scale=1.0))
    if np.any(z[1] != k):
        raise ValueError("could not split S' into S plus a q-dimensional complement")
    [(vpp, _)] = group.complement(z)
    cols = np.arange(v.shape[2])
    first_q = (cols < q[:, None])[:, None, :]
    # V' moved to the columns of the first q columns of V it swaps with
    vp = np.take_along_axis(z[0], np.minimum(cols + p[:, None], cols.size - 1)[:, None, :], axis=2)
    swap = (vp * first_q) @ adjoints(v * first_q)
    rest = v * ~first_q
    a0 = swap + adjoints(swap) + rest @ adjoints(rest) + vpp @ adjoints(vpp)
    return np.where((q == 0)[:, None, None], group.eye, a0)


def positive_shifts(group: PaddedGroup, a0: np.ndarray) -> np.ndarray:
    """:func:`positive_shift` of each Hermitian matrix of a stack of the
    group, lambda_min from :meth:`~omegals.subspaces.PaddedGroup.spectrum_ends`."""
    if not np.all(is_hermitian(a0)):
        raise ValueError("matrix is not Hermitian within tolerance")
    return a0 + _positive_shift_of(group.spectrum_ends(a0)[0])[:, None, None] * group.eye


def invertibility(group: PaddedGroup, a: np.ndarray, s) -> tuple:
    """For each matrix of a stack of the group and a space S (bases, widths)
    of it: whether A is invertible, whether its compression V* A V is
    (:func:`compression_invertible`, the rank judged at ||A||_2), and
    ||A||_2, from one stacked SVD of A and V* A V."""
    v, p = s
    sigma = np.linalg.svd(np.concatenate([a, adjoints(v) @ (a @ v)]), compute_uv=False)
    sigma_a, sigma_c = np.split(sigma, 2)
    return (singular_value_ranks(sigma_a, group.n) == group.n,
            singular_value_ranks(sigma_c, p, sigma_a[:, 0]) == p, sigma_a[:, 0])


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


def _epsilon_schedule(op_norm):
    """Geometric perturbation schedule: 20 steps of ratio 10 starting at
    1e-12 * max(1, ||A||_2), for one norm or an array of them."""
    eps0 = 1e-12 * np.maximum(1.0, op_norm)
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
    for eps in [0.0, *_epsilon_schedule(float(np.linalg.norm(a, 2)))]:
        candidate = a if eps == 0.0 else a + eps * np.eye(n, dtype=a.dtype)
        sigma = np.linalg.svd(candidate, compute_uv=False)
        if singular_value_rank(sigma, candidate.shape) < n:
            continue
        if subspace is not None and not compression_invertible(candidate, subspace,
                                                               op_norm=float(sigma[0])):
            continue
        return candidate
    raise ValueError("perturbation schedule exhausted without reaching invertibility")


def perturb_to_invertible_stacked(group: PaddedGroup, a: np.ndarray, s) -> tuple:
    """:func:`perturb_to_invertible` of each matrix of a stack of the group
    with its subspace S (bases, widths): eps = 0 and the first step of the
    schedule are tested stacked (:func:`invertibility`), and an instance
    that needs a later step goes through the single path. Returns the
    perturbed stack and, for A itself, whether its compression is
    invertible."""
    ok, compression, op_norm = invertibility(group, a, s)
    ok &= compression
    step = a + _epsilon_schedule(op_norm)[0][:, None, None] * group.eye
    invertible, step_compression, _ = invertibility(group, step, s)
    out = np.where(ok[:, None, None], a, step)
    for t in np.flatnonzero(~ok & ~(invertible & step_compression)).tolist():
        n, p = group.n[t], s[1][t]
        out[t, :n, :n] = perturb_to_invertible(a[t, :n, :n], Subspace(s[0][t, :n, :p]))
    return out, compression
