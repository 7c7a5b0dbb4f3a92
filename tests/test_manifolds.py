import numpy as np
import pytest

from omegals import manifolds
from omegals.decomposition import tridiagonal_block_decomposition
from omegals.linalg import numerical_rank
from omegals.manifolds import (
    ManifoldClass,
    compression_invertible,
    construct_positive_member,
    manifold_dimension,
    member_classes,
    membership,
    perturb_to_invertible,
    swap_witness,
)
from omegals.sampling import (
    gaussian_matrix,
    random_hermitian,
    random_nested_subspaces,
    random_unitary,
)
from omegals.subspaces import Subspace, index_of_invariance, orthogonal_complement


def nested(seed, n, p, q, complex_field=False):
    rng = np.random.default_rng(seed)
    return random_nested_subspaces(rng, n, p, q, complex_field)


class TestMembership:
    def test_identity_in_base_class(self):
        s, _ = nested(0, 5, 2, 0)
        assert membership(np.eye(5), s, s, ManifoldClass.M)

    def test_witness_in_positive_class(self):
        s, s_prime = nested(1, 6, 3, 2)
        a = construct_positive_member(s, s_prime)
        assert membership(a, s, s_prime, ManifoldClass.M_POS)

    def test_oversized_q_never_member(self):
        s, s_prime = nested(2, 7, 2, 3)  # q = 3 > p = 2
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert not membership(random_hermitian(rng, 7, False), s, s_prime,
                                  ManifoldClass.M)

    def test_requires_nested_subspaces(self):
        rng = np.random.default_rng(4)
        s = Subspace.from_vectors(rng.standard_normal((5, 2)))
        other = Subspace.from_vectors(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError):
            membership(np.eye(5), s, other, ManifoldClass.M)

    def test_class_predicates(self):
        s, s_prime = nested(5, 5, 2, 1)
        a = construct_positive_member(s, s_prime)
        shifted_down = a - (np.linalg.eigvalsh(a)[0] + 0.5) * np.eye(5)
        # still Hermitian with the same reach, but no longer positive
        assert membership(shifted_down, s, s_prime, ManifoldClass.M_SYM)
        assert not membership(shifted_down, s, s_prime, ManifoldClass.M_POS)
        # a non-Hermitian member of the base class fails the Hermitian classes
        rng = np.random.default_rng(6)
        basis = np.hstack([s.basis, s_prime.basis])
        perturb = 1e-3 * rng.standard_normal((5, 5))
        perturb -= perturb.T  # skew part only
        candidate = a + perturb
        if membership(candidate, s, s_prime, ManifoldClass.M):
            assert not membership(candidate, s, s_prime, ManifoldClass.M_SYM)
        assert basis.shape == (5, 5)


class TestMemberClasses:
    """member_classes against the expected classes of members built from the
    witnesses, over R and C, and against membership class by class."""

    @staticmethod
    def cases(complex_field):
        """(label, A, S, S', the classes of A) with n = 7, p = 3, q = 2."""
        rng = np.random.default_rng(30 + complex_field)
        s, s_prime = random_nested_subspaces(rng, 7, 3, 2, complex_field)
        swap = swap_witness(s, s_prime)  # eigenvalues +-1 and 1
        positive = construct_positive_member(s, s_prime)  # swap + 2 I
        vpp = orthogonal_complement(s_prime).basis
        # acting on S'-perp only leaves S + A S alone
        skew = vpp @ (0.1 * gaussian_matrix(rng, 2, 2, complex_field)) @ vpp.conj().T
        c = ManifoldClass
        return [(label, a, s, s_prime, frozenset(classes)) for label, a, classes in [
            ("positive", positive, c),
            ("indefinite, compression singular", swap,
             {c.M, c.M_INV, c.M_SYM, c.M_SYMINV}),
            # compression diag(-0.5, -0.5, 0.5), spectrum -1.5 and 0.5
            ("indefinite, compression invertible", positive - 2.5 * np.eye(7),
             {c.M, c.M_INV, c.M_SYM, c.M_SYMINV, c.M_SYMT}),
            ("singular", swap - vpp @ vpp.conj().T, {c.M, c.M_SYM}),
            ("non-Hermitian", positive + skew, {c.M, c.M_INV}),
            ("S + A S = S", np.eye(7), set()),
            ("Gaussian", gaussian_matrix(rng, 7, 7, complex_field), set()),
        ]]

    @pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
    def test_classes_and_membership(self, complex_field):
        for label, a, s, s_prime, expected in self.cases(complex_field):
            found = member_classes(a, s, s_prime)
            assert found == expected, label
            for cls in ManifoldClass:
                assert membership(a, s, s_prime, cls) == (cls in found), (label, cls)

    # the predicates each class reads beyond S + A S = S'
    NEEDS = {"M": [], "M_inv": ["singular_value_rank"], "M_sym": ["is_hermitian"],
             "M_syminv": ["is_hermitian", "singular_value_rank"],
             "M_pos": ["hermitian_eig", "is_hermitian"],
             "M_symT": ["compression_invertible", "is_hermitian"]}

    @pytest.mark.parametrize("complex_field", [False, True], ids=["R", "C"])
    def test_membership_evaluates_only_what_its_class_needs(self, monkeypatch, complex_field):
        called = []
        for name in ("is_hermitian", "hermitian_eig", "singular_value_rank",
                     "compression_invertible"):
            def counted(*args, _fn=getattr(manifolds, name), _name=name, **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(manifolds, name, counted)
        (_, positive, s, s_prime, _), *_, (_, outside, *_) = self.cases(complex_field)
        for cls in ManifoldClass:
            del called[:]
            assert membership(positive, s, s_prime, cls)
            assert sorted(called) == self.NEEDS[cls.value], cls
            assert not membership(outside, s, s_prime, cls)
        del called[:]
        assert member_classes(positive, s, s_prime) == frozenset(ManifoldClass)
        assert sorted(called) == sorted(set(sum(self.NEEDS.values(), [])))


class TestSwapWitness:
    def test_q_zero_returns_identity(self):
        s, s_prime = nested(7, 4, 2, 0)
        np.testing.assert_array_equal(construct_positive_member(s, s_prime), np.eye(4))

    def test_eigenvalues_and_shift(self):
        s, s_prime = nested(8, 6, 3, 2)
        a0 = swap_witness(s, s_prime)
        lams = np.linalg.eigvalsh(a0)
        assert lams[0] == pytest.approx(-1.0, abs=1e-12)
        assert lams[-1] == pytest.approx(1.0, abs=1e-12)
        a = construct_positive_member(s, s_prime)
        np.testing.assert_allclose(a, a0 + 2.0 * np.eye(6), atol=1e-12)

    def test_decomposition_recovers_coupling_rank(self):
        s, s_prime = nested(9, 7, 3, 2)
        a = construct_positive_member(s, s_prime)
        dec = tridiagonal_block_decomposition(a, s)
        assert dec.q == 2
        assert numerical_rank(dec.B) == 2

    def test_rejects_oversized_q(self):
        s, s_prime = nested(10, 7, 2, 3)
        with pytest.raises(ValueError):
            construct_positive_member(s, s_prime)

    def test_witness_index_equals_gap(self):
        for seed, (n, p, q) in enumerate([(5, 2, 1), (8, 3, 3), (6, 4, 1), (9, 4, 0)]):
            s, s_prime = nested(20 + seed, n, p, q)
            a = construct_positive_member(s, s_prime)
            assert index_of_invariance(a, s) == q


class TestManifoldDimension:
    def test_full_space_case(self):
        # p = 0 forces q = 0 and the base class is everything
        assert manifold_dimension(4, 0, 0, ManifoldClass.M, "R") == 16
        assert manifold_dimension(4, 0, 0, ManifoldClass.M, "C") == 32

    def test_hermitian_formula(self):
        # alpha*(n(n-1)/2 - p(n-p-q)) + n at n=4, p=2, q=1
        assert manifold_dimension(4, 2, 1, ManifoldClass.M_SYM, "R") == 8
        assert manifold_dimension(4, 2, 1, ManifoldClass.M_SYM, "C") == 12

    def test_general_formula_complex(self):
        assert manifold_dimension(4, 2, 1, ManifoldClass.M, "C") == 28

    def test_invertible_same_as_base(self):
        for field in ("R", "C"):
            assert (manifold_dimension(6, 3, 2, ManifoldClass.M_INV, field)
                    == manifold_dimension(6, 3, 2, ManifoldClass.M, field))
            for cls in (ManifoldClass.M_SYMINV, ManifoldClass.M_POS, ManifoldClass.M_SYMT):
                assert (manifold_dimension(6, 3, 2, cls, field)
                        == manifold_dimension(6, 3, 2, ManifoldClass.M_SYM, field))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            manifold_dimension(4, 1, 2, ManifoldClass.M, "R")
        with pytest.raises(ValueError):
            manifold_dimension(4, 2, 1, ManifoldClass.M, "Q")


class TestPerturbToInvertible:
    def test_invertible_unchanged(self):
        a = np.diag([1.0, 2.0])
        out = perturb_to_invertible(a)
        assert out is a

    def test_singular_diagonal(self):
        out = perturb_to_invertible(np.diag([0.0, 1.0]))
        assert numerical_rank(out) == 2

    def test_singular_compression_enters_t_class(self):
        s, s_prime = nested(11, 6, 3, 2)
        a0 = swap_witness(s, s_prime)
        t_block = s.basis.conj().T @ a0 @ s.basis
        assert numerical_rank(t_block) < 3
        nudged = perturb_to_invertible(a0, subspace=s)
        assert np.linalg.norm(nudged - a0) <= 1e-6
        assert membership(nudged, s, s_prime, ManifoldClass.M_SYM)
        assert membership(nudged, s, s_prime, ManifoldClass.M_SYMT)

    def test_schedule_exhaustion(self, monkeypatch):
        monkeypatch.setattr(manifolds, "_epsilon_schedule", lambda a: [-1.0])
        with pytest.raises(ValueError):
            perturb_to_invertible(np.diag([0.0, 1.0]))


class TestCompressionInvertible:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_rank_is_judged_against_the_operator(self, complex_field):
        # V* A V = 1e-15 I is full rank on its own scale but round-off of
        # ||A||, so it counts as singular; adding I makes it invertible
        rng = np.random.default_rng(19)
        n, p = 6, 2
        w = random_unitary(rng, n, complex_field)
        core = np.diag([1e-15] * p + [1.0] * (n - p)).astype(w.dtype)
        core[p:, :p] = gaussian_matrix(rng, n - p, p, complex_field)
        core[:p, p:] = core[p:, :p].conj().T
        a = w @ core @ w.conj().T
        s = Subspace(w[:, :p])
        assert numerical_rank(s.basis.conj().T @ a @ s.basis) == p
        assert not compression_invertible(a, s)
        assert compression_invertible(a + np.eye(n), s)

    def test_swap_witness_compression_is_singular(self):
        s, s_prime = nested(11, 6, 3, 2, complex_field=True)
        a0 = swap_witness(s, s_prime)
        assert not compression_invertible(a0, s)
        assert compression_invertible(perturb_to_invertible(a0, subspace=s), s)


class TestClassParsing:
    def test_parse_names(self):
        assert ManifoldClass.parse("M_pos") is ManifoldClass.M_POS
        assert ManifoldClass.parse("M_symT") is ManifoldClass.M_SYMT
        assert ManifoldClass.parse("m") is ManifoldClass.M
        with pytest.raises(ValueError):
            ManifoldClass.parse("nope")
