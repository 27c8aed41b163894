import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortcut_forge import (
    DimensionMismatchError,
    HermiticityError,
    OperatorBasis,
    SpanningError,
    as_hermitian,
    commutator,
    expand_in_basis,
    frobenius_inner,
    frobenius_norm,
    gell_mann_basis,
    nested_commutator,
    pauli_basis,
    reconstruct_from_basis,
)
from shortcut_forge.models import random_hermitian
from shortcut_forge.operators import gram_matrix, pauli_matrix

from conftest import ID2, SX, SY, SZ


def _rand_herm(seed, dim=3):
    return random_hermitian(dim, np.random.default_rng(seed))


class TestFrobenius:
    def test_identity(self):
        assert frobenius_inner(ID2, ID2) == pytest.approx(1.0)

    def test_orthogonal_paulis(self):
        assert frobenius_inner(SZ, SX) == pytest.approx(0.0)

    def test_sy_normalized(self):
        assert frobenius_inner(SY, SY) == pytest.approx(1.0)

    def test_norm(self):
        assert frobenius_norm(3 * SY) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            frobenius_inner(SX, np.eye(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert frobenius_inner(X, Y) == pytest.approx(np.conj(frobenius_inner(Y, X)))


class TestGramMatrix:
    def test_rectangular_matches_pairwise(self, rng):
        X = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        Y = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        G = gram_matrix(X, Y)
        assert G.shape == (4, 2)
        for i in range(4):
            for j in range(2):
                assert abs(G[i, j] - frobenius_inner(X[i], Y[j])) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gram_matrix(np.zeros((2, 2, 2)), np.zeros((2, 3, 3)))


class TestCommutator:
    def test_su2(self):
        assert np.allclose(commutator(SZ, SX), 2j * SY)

    def test_self(self):
        X = _rand_herm(0)
        assert np.abs(commutator(X, X)).max() == 0.0

    def test_two_level_eigenbasis_oracle(self, lz):
        # dense commutator of H with its exact CD vs the same assembled in the
        # analytic eigenbasis
        from conftest import lz_cd_oracle, two_level_eigvecs

        t = 0.35
        lam = lz.schedule(t)
        rate = lz.schedule.rate(t)
        H = lz.hamiltonian(t)
        CD = lz_cd_oracle(lam, rate)
        g, e = two_level_eigvecs(lam)
        r = np.sqrt(lam**2 + 1)
        H_eig = r * (np.outer(e, e.conj()) - np.outer(g, g.conj()))
        assert np.allclose(H, H_eig, atol=1e-12)
        assert np.allclose(commutator(H, CD), commutator(H_eig, CD), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry(self, seed):
        X, Y = _rand_herm(seed), _rand_herm(seed + 1)
        assert np.abs(commutator(X, Y) + commutator(Y, X)).max() < 1e-14

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_jacobi(self, seed):
        X, Y, Z = (_rand_herm(seed + i) for i in range(3))
        total = (
            commutator(X, commutator(Y, Z))
            + commutator(Y, commutator(Z, X))
            + commutator(Z, commutator(X, Y))
        )
        scale = max(frobenius_norm(X) * frobenius_norm(Y) * frobenius_norm(Z), 1e-30)
        assert frobenius_norm(total) / scale < 1e-10


class TestLiouvillian:
    def test_identity_annihilated(self):
        H = _rand_herm(5)
        assert np.abs(commutator(H, np.eye(3))).max() < 1e-14

    def test_su2(self):
        assert np.allclose(commutator(SZ, SY), -2j * SX)

    def test_iterated_matches_nested(self):
        H, dH = _rand_herm(7), _rand_herm(8)
        out = dH
        for k in range(4):
            assert np.allclose(out, nested_commutator(H, dH, k))
            out = commutator(H, out)


class TestNestedCommutator:
    def test_k0(self):
        H, dH = _rand_herm(1), _rand_herm(2)
        assert nested_commutator(H, dH, 0) is dH

    def test_lz_first_order(self):
        lam, delta, rate = 0.7, 1.0, 2.0
        H = lam * SZ + delta * SX
        dH = rate * SZ
        assert np.allclose(nested_commutator(H, dH, 1), -2j * delta * rate * SY, atol=1e-14)

    def test_commuting_family(self):
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        dH = np.diag([0.5, -0.5, 1.0]).astype(complex)
        for k in range(1, 5):
            assert np.abs(nested_commutator(H, dH, k)).max() < 1e-14

    def test_hermiticity_alternation(self):
        H, dH = _rand_herm(3), _rand_herm(4)
        for k in range(5):
            O = nested_commutator(H, dH, k)
            sign = 1.0 if k % 2 == 0 else -1.0
            assert np.abs(O - sign * O.conj().T).max() < 1e-10 * np.abs(O).max()

    def test_k_max_guard(self):
        with pytest.raises(ValueError):
            nested_commutator(_rand_herm(1), _rand_herm(2), 13)


class TestPauliBasis:
    def test_single_qubit(self):
        basis = pauli_basis(1)
        assert basis.labels == ["X", "Y", "Z"]
        assert np.allclose(basis.elements[1], SY)

    def test_two_qubit_count(self):
        assert len(pauli_basis(2)) == 15

    def test_orthonormality(self):
        basis = pauli_basis(2)
        G = gram_matrix(basis.elements)
        assert np.abs(G - np.eye(15)).max() < 1e-12

    def test_traceless_hermitian(self):
        basis = pauli_basis(2)
        basis.validate()

    def test_stacked_elements_and_subset(self):
        basis = OperatorBasis([SX, SY, SZ], ["X", "Y", "Z"])
        assert isinstance(basis.elements, np.ndarray) and basis.elements.shape == (3, 2, 2)
        sub = basis.subset([2, 0])
        assert sub.labels == ["Z", "X"]
        assert np.array_equal(sub.elements, np.stack([SZ, SX]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_products_are_the_pauli_strings_bit_for_bit(self, n):
        """The basis is built by one broadcast Kronecker product per site: its
        elements are ``pauli_matrix`` of its labels, byte for byte (signed
        zeros too), in the lexicographic I < X < Y < Z order."""
        basis = pauli_basis(n)
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)][1:]
        assert basis.labels == strings
        assert basis.elements.tobytes() == np.stack([pauli_matrix(lab) for lab in strings]).tobytes()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pauli_basis(0)
        with pytest.raises(ValueError):
            pauli_basis(11)


class TestGellMann:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_orthonormal_complete(self, dim):
        basis = gell_mann_basis(dim)
        assert len(basis) == dim * dim - 1
        basis.validate()


class TestExpandInBasis:
    def test_single_term(self):
        basis = pauli_basis(1)
        coeffs = expand_in_basis(3 * SY, basis)
        assert np.allclose(coeffs, [0, 3, 0])

    def test_zero(self):
        basis = pauli_basis(1)
        assert np.allclose(expand_in_basis(np.zeros((2, 2)), basis), 0)

    def test_round_trip_random(self, rng):
        basis = pauli_basis(2)
        coeffs = rng.standard_normal(15)
        X = reconstruct_from_basis(coeffs, basis)
        back = expand_in_basis(X, basis)
        assert frobenius_norm(X - reconstruct_from_basis(back, basis)) < 1e-10

    def test_spanning_failure_not_silent(self):
        basis = OperatorBasis([SX, SZ], ["X", "Z"])
        with pytest.raises(SpanningError):
            expand_in_basis(SY + 0.5 * SX, basis)


class TestHermiticityGate:
    def test_accepts_hermitian(self):
        H = _rand_herm(11)
        assert as_hermitian(H) is H

    def test_rejects_non_hermitian(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(HermiticityError):
            as_hermitian(A)

    def test_never_symmetrizes(self):
        A = SX + 1e-6 * np.array([[0, 1j], [0, 0]])
        with pytest.raises(HermiticityError):
            as_hermitian(A)
