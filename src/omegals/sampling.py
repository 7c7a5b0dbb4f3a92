"""Seeded random generators for operators, subspaces, and problem instances.

Real components are always standard Gaussian; complex entries get an
independent Gaussian imaginary part. Hermitian invertible operators are
built from a random unitary and a spectrum bounded away from zero, which
keeps the conditioning of downstream solves under control.
"""

from __future__ import annotations

import numpy as np

from .linalg import hermitian_part, orthonormalize
from .subspaces import Subspace

# Smallest |eigenvalue| allowed when sampling Hermitian invertible operators.
SPECTRAL_FLOOR = 0.3

# Bounds of the log-uniform distance of a sampled shift above omega_min.
SHIFT_OFFSET_LO = 0.2
SHIFT_OFFSET_HI = 50.0


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int, complex_field: bool) -> np.ndarray:
    m = rng.standard_normal((rows, cols))
    if complex_field:
        m = m + 1j * rng.standard_normal((rows, cols))
    return m


def gaussian_vector(rng: np.random.Generator, n: int, complex_field: bool) -> np.ndarray:
    v = rng.standard_normal(n)
    if complex_field:
        v = v + 1j * rng.standard_normal(n)
    return v


def random_unitary(rng: np.random.Generator, n: int, complex_field: bool) -> np.ndarray:
    q, r = np.linalg.qr(gaussian_matrix(rng, n, n, complex_field))
    # normalize the QR phase so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, n: int, complex_field: bool) -> np.ndarray:
    return hermitian_part(gaussian_matrix(rng, n, n, complex_field))


def random_hermitian_invertible(rng: np.random.Generator, n: int,
                                complex_field: bool) -> np.ndarray:
    """Hermitian with random signs and |eigenvalues| >= SPECTRAL_FLOOR."""
    u = random_unitary(rng, n, complex_field)
    lam = rng.standard_normal(n)
    lam = np.sign(lam) * (SPECTRAL_FLOOR + np.abs(lam))
    return hermitian_part((u * lam) @ u.conj().T)


def random_spd(rng: np.random.Generator, n: int, complex_field: bool = False,
               lo: float = 0.5, hi: float = 5.0) -> np.ndarray:
    u = random_unitary(rng, n, complex_field)
    lam = rng.uniform(lo, hi, size=n)
    return hermitian_part((u * lam) @ u.conj().T)


def random_subspace(rng: np.random.Generator, n: int, p: int, complex_field: bool) -> Subspace:
    return Subspace(orthonormalize(gaussian_matrix(rng, n, p, complex_field)))


def random_nested_subspaces(
    rng: np.random.Generator, n: int, p: int, q: int, complex_field: bool
) -> tuple[Subspace, Subspace]:
    """Random pair S inside S' with dim S = p and dim S' = p + q."""
    big = orthonormalize(gaussian_matrix(rng, n, p + q, complex_field))
    return Subspace(big[:, :p]), Subspace(big)


def random_shift_offset(rng: np.random.Generator) -> float:
    """Distance of a shift above the guard omega_min, log-uniform in
    [SHIFT_OFFSET_LO, SHIFT_OFFSET_HI]; omega_min plus it stays clear of the
    guard."""
    return float(np.exp(rng.uniform(np.log(SHIFT_OFFSET_LO), np.log(SHIFT_OFFSET_HI))))
