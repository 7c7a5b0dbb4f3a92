"""The samplers' draw and form halves: the forms rebuild the one-call
generators bit for bit, and take a zero-padded stack of draws."""

import numpy as np
import pytest

from omegals.linalg import hermitian_part, orthonormalize
from omegals.sampling import (
    SPECTRAL_FLOOR,
    draw_hermitian_invertible,
    gaussian_matrix,
    haar_unitary,
    hermitian_invertible,
    nested_subspaces,
    random_hermitian_invertible,
    random_nested_subspaces,
    random_spd,
    random_unitary,
)
from omegals.subspaces import PaddedGroup, Subspace


def unitary_before_the_split(rng, n, complex_field):
    q, r = np.linalg.qr(gaussian_matrix(rng, n, n, complex_field))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_invertible_before_the_split(rng, n, complex_field):
    u = unitary_before_the_split(rng, n, complex_field)
    lam = rng.standard_normal(n)
    lam = np.sign(lam) * (SPECTRAL_FLOOR + np.abs(lam))
    return hermitian_part((u * lam) @ u.conj().T)


def spd_before_the_split(rng, n, complex_field):
    u = unitary_before_the_split(rng, n, complex_field)
    lam = rng.uniform(0.5, 5.0, size=n)
    return hermitian_part((u * lam) @ u.conj().T)


@pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_the_generators_keep_their_bits(seed, complex_field):
    for new, old in [(random_unitary, unitary_before_the_split),
                     (random_hermitian_invertible, hermitian_invertible_before_the_split),
                     (lambda rng, n, c: random_spd(rng, n, c), spd_before_the_split)]:
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 4, 9):
            got, want = new(rngs[0], n, complex_field), old(rngs[1], n, complex_field)
            assert got.tobytes() == want.tobytes()
        # both made the same rng calls
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    rng = np.random.default_rng(seed)
    g, x = draw_hermitian_invertible(rng, 6, complex_field)
    want = hermitian_invertible_before_the_split(np.random.default_rng(seed), 6, complex_field)
    assert hermitian_invertible(g, x).tobytes() == want.tobytes()


def nested_before_the_split(rng, n, p, q, complex_field):
    big = orthonormalize(gaussian_matrix(rng, n, p + q, complex_field))
    return Subspace(big[:, :p]), Subspace(big)


@pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_nested_subspaces_keep_their_bits(seed, complex_field):
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    for n, p, q in ((3, 1, 0), (7, 3, 2), (10, 4, 6)):
        want = nested_before_the_split(rngs[0], n, p, q, complex_field)
        halves = nested_subspaces(gaussian_matrix(rngs[1], n, p + q, complex_field), p)
        for got in (random_nested_subspaces(rngs[2], n, p, q, complex_field), halves):
            assert [x.basis.tobytes() for x in got] == [x.basis.tobytes() for x in want]
    # the draw half makes the generator's rng calls
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state


@pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
def test_forms_of_a_padded_stack(complex_field):
    rng = np.random.default_rng(2)
    draws = [draw_hermitian_invertible(rng, n, complex_field) for n in (3, 7, 5)]
    group = PaddedGroup(np.array([g.shape[0] for g, _ in draws]))
    gauss = group.pad([g for g, _ in draws])[0] + group.outside
    spectra = group.pad([x[None] for _, x in draws])[0][:, 0]
    unitaries, ops = haar_unitary(gauss), hermitian_invertible(gauss, spectra)
    for t, (g, x) in enumerate(draws):
        n = g.shape[0]
        np.testing.assert_allclose(unitaries[t, :n, :n], haar_unitary(g), rtol=0, atol=1e-14)
        np.testing.assert_allclose(ops[t, :n, :n], hermitian_invertible(g, x), rtol=0,
                                   atol=1e-13)
    # the identity past n[t] for the unitaries, zero for the operators
    np.testing.assert_array_equal(unitaries * ~group.inside[:, :, None], group.outside)
    assert not (ops * ~group.inside[:, :, None]).any()
