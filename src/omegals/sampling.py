"""Seeded random generators for operators, subspaces, and problem instances.

Real components are always standard Gaussian; complex entries get an
independent Gaussian imaginary part. Hermitian invertible operators are
built from a random unitary and a spectrum bounded away from zero, which
keeps the conditioning of downstream solves under control.

Each generator is a draw, which makes its ``rng`` calls and returns the raw
Gaussian blocks (:func:`gaussian_matrix`, :func:`draw_hermitian_invertible`),
and a form from the draw (:func:`haar_unitary`,
:func:`hermitian_with_spectrum`, :func:`nested_subspaces`,
``orthonormalize``). The forms also take a zero-padded stack of draws, as
the batched verify suites hold them: a Haar unitary of G plus the identity
on the padding is the identity there, and a spectrum padded with zeros
gives zeros there.
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


def haar_unitary(g: np.ndarray) -> np.ndarray:
    """The unitary Q of the QR G = Q R of a square Gaussian draw (or of each
    matrix of a stack), its columns' phases normalized so that the
    distribution is Haar."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, n: int, complex_field: bool) -> np.ndarray:
    return haar_unitary(gaussian_matrix(rng, n, n, complex_field))


def random_hermitian(rng: np.random.Generator, n: int, complex_field: bool) -> np.ndarray:
    return hermitian_part(gaussian_matrix(rng, n, n, complex_field))


def hermitian_with_spectrum(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """U diag(lam) U*, made exactly Hermitian, of one unitary or a stack."""
    return hermitian_part((u * lam[..., None, :]) @ u.conj().swapaxes(-1, -2))


def draw_hermitian_invertible(rng: np.random.Generator, n: int,
                              complex_field: bool) -> tuple[np.ndarray, np.ndarray]:
    """The draw of :func:`random_hermitian_invertible`: the Gaussian matrix of
    its unitary and the Gaussian vector of its spectrum."""
    return gaussian_matrix(rng, n, n, complex_field), rng.standard_normal(n)


def hermitian_invertible(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The form of :func:`random_hermitian_invertible` from its draw: the
    spectrum sign(x) (SPECTRAL_FLOOR + |x|) on the Haar unitary of G."""
    return hermitian_with_spectrum(haar_unitary(g), np.sign(x) * (SPECTRAL_FLOOR + np.abs(x)))


def random_hermitian_invertible(rng: np.random.Generator, n: int,
                                complex_field: bool) -> np.ndarray:
    """Hermitian with random signs and |eigenvalues| >= SPECTRAL_FLOOR."""
    return hermitian_invertible(*draw_hermitian_invertible(rng, n, complex_field))


def random_spd(rng: np.random.Generator, n: int, complex_field: bool = False,
               lo: float = 0.5, hi: float = 5.0) -> np.ndarray:
    u = random_unitary(rng, n, complex_field)
    return hermitian_with_spectrum(u, rng.uniform(lo, hi, size=n))


def random_subspace(rng: np.random.Generator, n: int, p: int, complex_field: bool) -> Subspace:
    return Subspace(orthonormalize(gaussian_matrix(rng, n, p, complex_field)))


def nested_subspaces(cols: np.ndarray, p: int) -> tuple[Subspace, Subspace]:
    """The form of :func:`random_nested_subspaces` from its draw, the
    Gaussian columns of S': S' is their orthonormalized span, and S that of
    the first p."""
    big = orthonormalize(cols)
    return Subspace(big[:, :p]), Subspace(big)


def random_nested_subspaces(
    rng: np.random.Generator, n: int, p: int, q: int, complex_field: bool
) -> tuple[Subspace, Subspace]:
    """Random pair S inside S' with dim S = p and dim S' = p + q."""
    return nested_subspaces(gaussian_matrix(rng, n, p + q, complex_field), p)


def random_shift_offset(rng: np.random.Generator) -> float:
    """Distance of a shift above the guard omega_min, log-uniform in
    [SHIFT_OFFSET_LO, SHIFT_OFFSET_HI]; omega_min plus it stays clear of the
    guard."""
    return float(np.exp(rng.uniform(np.log(SHIFT_OFFSET_LO), np.log(SHIFT_OFFSET_HI))))
