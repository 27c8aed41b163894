import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from shortcut_forge import (
    HermiticityError,
    KrylovChain,
    OperatorBasis,
    action_value,
    algebraic_cd,
    algebraic_system,
    assemble_cd,
    commutator,
    counterdiabatic_term,
    expand_in_basis,
    frobenius_inner,
    frobenius_norm,
    gell_mann_basis,
    krylov_cd,
    krylov_chain,
    krylov_system,
    nested_commutator,
    odd_commutator_support,
    pauli_basis,
    pauli_matrix,
    solve_cd,
    variational_cd,
)
from shortcut_forge.agp import frame_krylov_cd, frame_odd_commutator_support
from shortcut_forge.models import random_hermitian
from shortcut_forge.operators import gram_matrix

from conftest import SX, SY, SZ, lz_cd_oracle, random_hermitian_pair

LAM, RATE, DELTA = 2.0, 3.0, 1.0
H_LZ = LAM * SZ + DELTA * SX
DH_LZ = RATE * SZ
CD_LZ = lz_cd_oracle(LAM, RATE, DELTA)


def offdiag_part(H, X):
    E, V = np.linalg.eigh(H)
    Xe = V.conj().T @ X @ V
    np.fill_diagonal(Xe, 0.0)
    return V @ Xe @ V.conj().T


class TestVariationalSystem:
    def test_lz_hand_values(self):
        """Order-1 moment-matrix values B_11 = ||O_2||^2, u_1 = -||O_1||^2 and the
        coefficient of i*O_1, read off the chain system whose operator is
        i*O_1/||O_1||."""
        system = krylov_system(krylov_chain(H_LZ, DH_LZ, k_max=3))
        n1 = 2 * DELTA * abs(RATE)                     # ||O_1|| = ||[H, dH]||
        B11 = 16 * DELTA**2 * RATE**2 * (LAM**2 + DELTA**2)
        u1 = -4 * DELTA**2 * RATE**2
        assert system.B[0, 0] * n1**2 == pytest.approx(B11, rel=1e-12)
        assert system.u[0] * n1 == pytest.approx(u1, rel=1e-12)
        a = solve_cd(system)
        assert a[0] / n1 == pytest.approx(-1 / (4 * (LAM**2 + DELTA**2)), rel=1e-12)
        assert np.abs(assemble_cd(system, a) - CD_LZ).max() < 1e-12
        assert np.abs(variational_cd(H_LZ, DH_LZ, 1) - CD_LZ).max() < 1e-12

    def test_commuting_family_zero(self):
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        dH = np.diag([0.3, -0.1, 0.5]).astype(complex)
        system = krylov_system(krylov_chain(H, dH, k_max=5))
        assert system.empty
        assert np.abs(variational_cd(H, dH, 2)).max() == 0.0

    def test_full_order_matches_exact_offdiagonal(self):
        H, dH = random_hermitian_pair(4, seed=3)
        cd = variational_cd(H, dH, 6)
        target = offdiag_part(H, counterdiabatic_term(H, dH))
        assert frobenius_norm(cd - target) < 1e-7

    def test_extended_precision_path(self):
        H, dH = random_hermitian_pair(8, seed=9)
        cd = variational_cd(H, dH, 28)
        target = counterdiabatic_term(H, dH)
        assert frobenius_norm(cd - target) < 1e-7

    def test_joint_rescaling_invariant(self):
        # the chain is normalized at every step, so huge scales neither
        # overflow nor change the operator
        cd = variational_cd(1e40 * H_LZ, 1e40 * DH_LZ, 2)
        assert np.abs(cd - CD_LZ).max() < 1e-12

    def test_zero_drive_gives_zero_cd(self):
        H, _ = random_hermitian_pair(4, seed=12)
        zero = np.zeros_like(H)
        assert np.abs(krylov_cd(H, zero)).max() == 0.0
        assert np.abs(variational_cd(H, zero, 2)).max() == 0.0
        assert odd_commutator_support(H, zero, pauli_basis(2)) == []


class TestAlgebraicSystem:
    def test_single_qubit_y_trial(self):
        basis = OperatorBasis([SY], ["Y"])
        system = algebraic_system(H_LZ, DH_LZ, basis)
        assert system.basis_ops.shape == (1, 2, 2)
        assert system.B[0, 0] == pytest.approx(4 * (LAM**2 + DELTA**2), rel=1e-12)
        assert system.u[0] == pytest.approx(2 * DELTA * RATE, rel=1e-12)
        cd = assemble_cd(system, solve_cd(system))
        assert np.abs(cd - CD_LZ).max() < 1e-12

    def test_equals_variational_on_same_span(self):
        """Odd-commutator span reproduces the variational solution; compare
        coefficient-wise in the common Pauli frame."""
        for seed in (0, 1, 2):
            H, dH = random_hermitian_pair(4, seed=seed)
            basis = pauli_basis(2)
            support = odd_commutator_support(H, dH, basis)
            cd_a = algebraic_cd(H, dH, basis.subset(support))
            cd_v = variational_cd(H, dH, 6)
            ca = expand_in_basis(cd_a, basis)
            cv = expand_in_basis(cd_v, basis)
            assert np.abs(ca - cv).max() < 1e-8

    def test_commuting_trial_operator_decouples(self):
        # single-qubit sweep embedded in two qubits: Z on the spectator
        # commutes with everything and must pick up a zero coefficient
        H = np.kron(H_LZ, np.eye(2))
        dH = np.kron(DH_LZ, np.eye(2))
        trial = OperatorBasis([pauli_matrix("YI"), pauli_matrix("IZ")], ["YI", "IZ"])
        system = algebraic_system(H, dH, trial)
        a = solve_cd(system)
        assert abs(system.u[1]) < 1e-12
        assert abs(a[1]) < 1e-10
        assert np.abs(assemble_cd(system, a) - np.kron(CD_LZ, np.eye(2))).max() < 1e-10

    def test_matches_pairwise_definition(self):
        """B_kl = ([H, L_k]|[H, L_l]), u_k = Re(i ([H, L_k]|dH)) and
        basis_ops[k] = -L_k, pair by pair, on the su(3) Gell-Mann basis."""
        H, dH = random_hermitian_pair(3, seed=17)
        basis = gell_mann_basis(3)
        system = algebraic_system(H, dH, basis)
        LH = [commutator(H, L) for L in basis.elements]
        B = np.array([[frobenius_inner(X, Y).real for Y in LH] for X in LH])
        u = np.array([(1j * frobenius_inner(X, dH)).real for X in LH])
        assert np.abs(system.B - B).max() < 1e-13
        assert np.abs(system.u - u).max() < 1e-13
        assert np.abs(system.basis_ops + basis.elements).max() == 0.0

    def test_support_is_a_boolean_mask(self):
        """An index list is not a mask. Read as one, the support [0, 1, 2] of a
        generic qubit pair would drop sigma_x (0.625 off the exact term), and
        a list of another length does not fit the basis; each raises a
        ValueError naming the shape, and the mask of that support is exact,
        for one time and for a stack."""
        rng = np.random.default_rng(0)
        H, dH = random_hermitian(2, rng), random_hermitian(2, rng)
        basis = pauli_basis(1)
        support = odd_commutator_support(H, dH, basis)
        assert support == [0, 1, 2]
        for bad in (support, [1], np.ones((2, 3), dtype=bool)):
            for route in (algebraic_cd, algebraic_system):
                with pytest.raises(ValueError, match=r"boolean mask of shape \(3,\) or \(1, 3\)"):
                    route(H, dH, basis, support=bad)
        exact = counterdiabatic_term(H, dH)
        assert np.abs(algebraic_cd(H, dH, basis, support=np.ones(3, dtype=bool)) - exact).max() < 1e-12
        stack = algebraic_cd(np.array([H, H]), np.array([dH, dH]), basis, support=np.ones(3, dtype=bool))
        assert np.abs(stack - exact).max() < 1e-12

    def test_empty_trial_rejected(self):
        with pytest.raises(ValueError):
            algebraic_system(H_LZ, DH_LZ, OperatorBasis([], []))

    def test_support_matches_nested_commutators(self):
        """The support read off the orthonormal chain equals the support of
        the raw odd nested commutators O_1, ..., O_{2k-1}."""
        basis = pauli_basis(3)
        n_sites = 3
        Hz = sum(pauli_matrix("".join("Z" if j == i else "I" for j in range(n_sites)))
                 for i in range(n_sites))
        Hxx = pauli_matrix("XXI") + pauli_matrix("IXX")
        H, dH = Hz + 0.6 * Hxx, 0.8 * Hxx
        for order in (1, 2, 3):
            expect = set()
            for k in range(1, order + 1):
                O = nested_commutator(H, dH, 2 * k - 1)
                coeffs = expand_in_basis(-1j * O / frobenius_norm(O), basis)
                expect |= set(np.nonzero(np.abs(coeffs) > 1e-10)[0].tolist())
            support = odd_commutator_support(H, dH, basis, max_order=order)
            assert support == sorted(expect)
            assert 0 < len(support) < len(basis)

    def test_support_without_overflow(self):
        # raw nested-commutator norms of an O(1) D = 16 pair pass 1e150 long
        # before the chain ends; the normalized chain does not grow
        H, dH = random_hermitian_pair(16, seed=14)
        assert odd_commutator_support(H, dH, pauli_basis(4)) == list(range(255))


class TestKrylovChain:
    def test_lz_closed_form(self):
        chain = krylov_chain(H_LZ, DH_LZ)
        assert chain.K == 3
        assert np.allclose(chain.b, [abs(RATE), 2 * DELTA, 2 * abs(LAM)], atol=1e-10)
        assert chain.b_next < 1e-10 * abs(RATE)

    def test_lz_at_crossing(self):
        chain = krylov_chain(DELTA * SX, RATE * SZ)
        assert chain.K == 2
        assert np.allclose(chain.b, [abs(RATE), 2 * DELTA], atol=1e-12)

    def test_orthonormality_and_alternation(self):
        # a full D = 4 and D = 8 chain, and a D = 16 chain truncated at 13
        for dim, seed, k_max in ((4, 4, None), (8, 5, None), (16, 6, 13)):
            H, dH = random_hermitian_pair(dim, seed=seed)
            chain = krylov_chain(H, dH, k_max=k_max)
            for j, Oj in enumerate(chain.ops):
                sign = 1.0 if j % 2 == 0 else -1.0
                assert np.abs(Oj - sign * Oj.conj().T).max() < 1e-8
                for k, Ok in enumerate(chain.ops):
                    expect = 1.0 if j == k else 0.0
                    assert abs(frobenius_inner(Oj, Ok) - expect) < 1e-8

    def test_dimension_bound(self):
        for seed in range(3):
            H, dH = random_hermitian_pair(4, seed=seed)
            assert krylov_chain(H, dH).K <= 13      # D^2 - D + 1 at D = 4

    def test_zero_dh_rejected(self):
        with pytest.raises(ValueError):
            krylov_chain(H_LZ, np.zeros((2, 2)))


class TestKrylovSystem:
    def test_lz_single_unknown(self):
        chain = krylov_chain(H_LZ, DH_LZ)
        system = krylov_system(chain)
        assert system.size == 1
        assert system.B[0, 0] == pytest.approx(4 * DELTA**2 + 4 * LAM**2, rel=1e-12)
        assert system.u[0] == pytest.approx(-2 * abs(RATE) * DELTA, rel=1e-12)
        a = solve_cd(system)
        assert a[0] == pytest.approx(-RATE * DELTA / (2 * (DELTA**2 + LAM**2)), rel=1e-12)
        assert np.abs(assemble_cd(system, a) - CD_LZ).max() < 1e-12

    def test_tridiagonal_matches_gram(self):
        """The b-coefficient formula reproduces the Gram matrix of the
        Liouvillian images of the odd chain operators (derived identity)."""
        H, dH = random_hermitian_pair(4, seed=8)
        chain = krylov_chain(H, dH)
        system = krylov_system(chain)
        nb = system.size
        gram = np.empty((nb, nb))
        imgs = [commutator(H, chain.ops[2 * k - 1]) for k in range(1, nb + 1)]
        for i in range(nb):
            for j in range(nb):
                gram[i, j] = frobenius_inner(imgs[i], imgs[j]).real
        assert np.abs(system.B - gram).max() < 1e-8 * np.abs(system.B).max()

    def test_offband_zero(self):
        H, dH = random_hermitian_pair(8, seed=2)
        system = krylov_system(krylov_chain(H, dH))
        offband = system.B - np.triu(np.tril(system.B, 1), -1)
        assert np.abs(offband).max() <= 1e-10 * np.abs(system.B).max()

    def test_truncated_equals_variational(self):
        """Oracle: least-squares minimizer of the action over span{i O_1, ...,
        i O_{2K-1}}. The trial sum_k c_k i O_{2k-1} leaves the residual
        dH + sum_k c_k O_{2k}, minimized over real c."""
        H, dH = random_hermitian_pair(4, seed=6)
        for order in (1, 2, 3):
            odd = [nested_commutator(H, dH, 2 * k - 1) for k in range(1, order + 1)]
            cols = np.stack([commutator(H, O).ravel() / frobenius_norm(O) for O in odd], axis=1)
            A = np.vstack([cols.real, cols.imag])
            rhs = -np.concatenate([dH.ravel().real, dH.ravel().imag])
            c, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            cd_oracle = sum(ck * 1j * O / frobenius_norm(O) for ck, O in zip(c, odd))
            assert action_value(H, dH, cd_oracle) == pytest.approx(
                np.linalg.norm(A @ c - rhs) ** 2 / 4, rel=1e-10)
            cd_k = krylov_cd(H, dH, k_max=2 * order + 1)
            cd_v = variational_cd(H, dH, order)
            assert frobenius_norm(cd_k - cd_oracle) < 1e-7
            assert frobenius_norm(cd_v - cd_oracle) < 1e-7

    def test_short_chain_empty_system(self):
        # dH proportional to H: chain length 1, counterdiabatic term zero
        system = krylov_system(krylov_chain(SZ, 2.0 * SZ + 1e-30 * SZ))
        assert system.empty
        assert len(solve_cd(system)) == 0
        assert system.basis_ops.shape == (0, 2, 2)
        assert np.array_equal(assemble_cd(system, solve_cd(system)), np.zeros((2, 2)))


class TestSolveCD:
    def test_zero_rhs(self):
        H, dH = random_hermitian_pair(3, seed=1)
        system = krylov_system(krylov_chain((H + H.conj().T) / 2, dH, k_max=5))
        system.u[:] = 0.0
        assert np.abs(solve_cd(system)).max() == 0.0

    def test_random_spd_residual(self, rng):
        for _ in range(5):
            M = rng.standard_normal((6, 6))
            B = M.T @ M
            u = rng.standard_normal(6)
            from shortcut_forge import LinearCDSystem

            system = LinearCDSystem(B=B, u=u, basis_ops=np.array([np.eye(2)] * 6))
            a = solve_cd(system)
            assert np.linalg.norm(B @ a - u) <= 1e-9 * (
                np.linalg.norm(B) * np.linalg.norm(a) + np.linalg.norm(u)
            )

    def test_tridiagonal_elimination_and_fallback(self, rng):
        from shortcut_forge import LinearCDSystem

        n = 7
        off = rng.uniform(-0.9, 0.9, n - 1)
        B = np.diag(rng.uniform(2.0, 3.0, n)) + np.diag(off, 1) + np.diag(off, -1)  # SPD
        u = rng.standard_normal(n)
        system = LinearCDSystem(B=B, u=u, basis_ops=np.array([np.eye(2)] * n))
        assert np.abs(solve_cd(system) - np.linalg.solve(B, u)).max() < 1e-12
        # a singular tridiagonal system has the minimum-norm least-squares solution
        system = LinearCDSystem(B=np.diag([1.0, 0.0, 2.0]), u=np.array([1.0, 0.0, 4.0]),
                                basis_ops=np.array([np.eye(2)] * 3))
        assert np.abs(solve_cd(system) - [1.0, 0.0, 2.0]).max() < 1e-12
        assert system.metadata["rank_deficiency"] == 1

    def test_rank_deficient_minimum_norm(self):
        """Full-basis algebraic trial has the commutant of H in its kernel;
        minimum-norm coefficients must exclude it so the assembled operator
        still matches the exact one."""
        H, dH = random_hermitian_pair(2, seed=42)
        basis = pauli_basis(1)
        system = algebraic_system(H, dH, basis)
        a = solve_cd(system)
        assert system.metadata.get("rank_deficiency") == 1
        cd = assemble_cd(system, a)
        assert frobenius_norm(cd - counterdiabatic_term(H, dH)) < 1e-10


class TestAssembleCD:
    def test_zero_coefficients(self):
        system = krylov_system(krylov_chain(H_LZ, DH_LZ, k_max=3))
        assert np.abs(assemble_cd(system, np.zeros(1))).max() == 0.0

    def test_length_mismatch(self):
        system = krylov_system(krylov_chain(H_LZ, DH_LZ, k_max=3))
        with pytest.raises(ValueError):
            assemble_cd(system, np.zeros(2))

    def test_non_hermitian_operators_raise_a_typed_error(self):
        """An anti-Hermitian part in the assembled term is a HermiticityError,
        which the CLI reports with exit 3, not a bare AssertionError."""
        system = krylov_system(krylov_chain(H_LZ, DH_LZ, k_max=3))
        system.basis_ops = system.basis_ops + 1j * np.eye(2)
        with pytest.raises(HermiticityError):
            assemble_cd(system, np.ones(system.size))

    @pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1), (4, 2), (8, 3)])
    def test_full_order_equals_exact(self, dim, seed):
        H, dH = random_hermitian_pair(dim, seed=seed)
        K = krylov_chain(H, dH).K
        cd = variational_cd(H, dH, K // 2)
        target = offdiag_part(H, counterdiabatic_term(H, dH))
        assert frobenius_norm(cd - target) < 1e-7

    def test_tfim_first_order_structure(self):
        """First-order chain counterdiabatic term lives on local odd-Y strings:
        nearest-neighbor YZ/ZY from the coupling and single-site Y from any
        longitudinal field; a field-only chain gives pure single-site Y."""
        from shortcut_forge.models import tfim_chain

        chain_sys = tfim_chain(n_sites=3, duration=1.0, shape="linear")
        H, dH = chain_sys.hamiltonian(0.4), chain_sys.dhamiltonian(0.4)
        cd1 = variational_cd(H, dH, 1)
        basis = pauli_basis(3)
        coeffs = expand_in_basis(cd1, basis)
        support = {basis.labels[i] for i in np.nonzero(np.abs(coeffs) > 1e-12)[0]}
        assert support <= {"YZI", "ZYI", "IYZ", "IZY"}
        assert support                          # the coupling terms are present

        # longitudinal-field chain: the commutator closes on single-site Y
        n = 3
        Hz = sum(pauli_matrix("".join("Z" if j == i else "I" for j in range(n))) for i in range(n))
        Hx = sum(pauli_matrix("".join("X" if j == i else "I" for j in range(n))) for i in range(n))
        cd1 = variational_cd(Hz + 0.7 * Hx, 0.9 * Hx, 1)
        coeffs = expand_in_basis(cd1, basis)
        support = {basis.labels[i] for i in np.nonzero(np.abs(coeffs) > 1e-12)[0]}
        assert support == {"YII", "IYI", "IIY"}


class TestActionValue:
    def test_zero_trial(self):
        assert action_value(H_LZ, DH_LZ, np.zeros((2, 2))) == pytest.approx(
            frobenius_norm(DH_LZ) ** 2
        )

    def test_exact_cd_leaves_diagonal(self):
        H, dH = random_hermitian_pair(4, seed=5)
        cd = counterdiabatic_term(H, dH)
        E, V = np.linalg.eigh(H)
        diag = np.diagonal(V.conj().T @ dH @ V)
        expect = np.sum(np.abs(diag) ** 2) / 4
        assert action_value(H, dH, cd) == pytest.approx(expect, rel=1e-10)

    def test_optimum_is_stationary_and_minimal(self):
        H, dH = random_hermitian_pair(4, seed=7)
        system = krylov_system(krylov_chain(H, dH, k_max=5))
        a = solve_cd(system)
        cd = assemble_cd(system, a)
        S0 = action_value(H, dH, cd)
        scale = frobenius_norm(dH) ** 2
        delta = 1e-4
        for k in range(system.size):
            for sign in (+1, -1):
                ap = a.copy()
                ap[k] += sign * delta
                Sp = action_value(H, dH, assemble_cd(system, ap))
                assert Sp >= S0 - 1e-7 * scale   # stationary
            # quadratic form: symmetric bump must rise
            ap = a.copy()
            ap[k] += delta
            am = a.copy()
            am[k] -= delta
            rise = 0.5 * (action_value(H, dH, assemble_cd(system, ap))
                          + action_value(H, dH, assemble_cd(system, am))) - S0
            assert rise > 0

    def test_monotone_in_truncation_order(self):
        H, dH = random_hermitian_pair(4, seed=11)
        prev = np.inf
        for order in (1, 2, 3, 4, 5, 6):
            S = action_value(H, dH, variational_cd(H, dH, order))
            assert S <= prev + 1e-12
            prev = S


class TestUnifiedViewpoint:
    def test_three_routes_agree(self):
        for dim, seed in ((2, 21), (3, 22), (4, 23)):
            H, dH = random_hermitian_pair(dim, seed=seed)
            K = krylov_chain(H, dH).K
            cd_k = krylov_cd(H, dH)
            cd_v = variational_cd(H, dH, K // 2)
            basis = gell_mann_basis(dim)
            support = odd_commutator_support(H, dH, basis)
            cd_a = algebraic_cd(H, dH, basis.subset(support))
            assert frobenius_norm(cd_k - cd_v) < 1e-7
            assert frobenius_norm(cd_k - cd_a) < 1e-7

    def test_parity_odd_only(self):
        """The assembled counterdiabatic operator has no weight on the even
        (Hermitian) chain operators."""
        H, dH = random_hermitian_pair(4, seed=13)
        chain = krylov_chain(H, dH)
        cd = krylov_cd(H, dH)
        for k in range(0, chain.K, 2):
            assert abs(frobenius_inner(chain.ops[k], cd)) < 1e-9


def cd_integral_representation(H, dH, eta):
    """Oracle: the regularized integral form of the exact counterdiabatic term
    at finite damping eta.

    Matrix elements are Fourier-type integrals over the fictitious evolution
    of dH, evaluated with QUADPACK's oscillatory-weight quadrature; the
    series/integral exchange behind the nested-commutator expansion does not
    converge in general, so this form is a small-dimension cross-check only.
    """
    E, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    dHe = V.conj().T @ np.asarray(dH, dtype=complex) @ V
    D = H.shape[0]
    M = np.zeros((D, D), dtype=complex)
    for m in range(D):
        for n in range(D):
            if m == n:
                continue
            w = E[m] - E[n]
            # -(1/2) * integral sgn(u) e^{-eta|u|} e^{i w u} du = -i w/(eta^2+w^2)
            # evaluated numerically: 2*sin-weighted QAWF integral over [0, inf)
            val, _ = scipy.integrate.quad(
                lambda uu: np.exp(-eta * uu), 0, np.inf, weight="sin", wvar=w
            )
            M[m, n] = -1j * dHe[m, n] * val
    return V @ M @ V.conj().T


class TestIntegralRepresentation:
    @pytest.mark.parametrize("dim,seed", [(2, 31), (3, 32)])
    def test_eta_sweep_richardson(self, dim, seed):
        """Finite-damping integral form converges quadratically in eta to the
        exact operator; Richardson over {1e-2, 1e-3} already lands within
        1e-8 and eta = 1e-4 confirms it."""
        H, dH = random_hermitian_pair(dim, seed=seed)
        target = counterdiabatic_term(H, dH)
        vals = {eta: cd_integral_representation(H, dH, eta) for eta in (1e-2, 1e-3, 1e-4)}
        extrap = (100 * vals[1e-3] - vals[1e-2]) / 99      # O(eta^2) elimination, ratio 10
        assert frobenius_norm(extrap - target) < 1e-8
        assert frobenius_norm(vals[1e-4] - target) < 1e-7
        e2 = frobenius_norm(vals[1e-2] - target)
        e3 = frobenius_norm(vals[1e-3] - target)
        assert e3 < e2 * 1e-1                               # quadratic-in-eta decay


class TestTimeStack:
    def test_krylov_cd_stack_mixes_chain_lengths(self, rng):
        """A commuting pair (chain length 1), a zero drive (length 0), Landau-Zener
        (length 3) and a random pair in one stack give the per-point results."""
        Hr, dHr = random_hermitian_pair(4, 7)
        Hc = np.diag([0.3, -1.0, 0.5, 2.0]).astype(complex)
        H = np.array([Hc, Hr, np.kron(H_LZ, np.eye(2)), Hr])
        dH = np.array([2.0 * Hc, np.zeros((4, 4)), np.kron(DH_LZ, np.eye(2)), dHr])
        assert list(krylov_chain(H, dH).length) == [1, 0, 3, krylov_chain(Hr, dHr).K]
        for k_max in (None, 5):
            cd = krylov_cd(H, dH, k_max=k_max)
            loop = np.array([krylov_cd(h, d, k_max=k_max) for h, d in zip(H, dH)])
            assert np.abs(cd - loop).max() <= 1e-12
        assert np.abs(cd[:2]).max() == 0.0

    def test_algebraic_support_is_kept_per_time(self):
        H, dH = random_hermitian_pair(4, 3)
        basis = pauli_basis(2)
        Hs = np.array([np.kron(H_LZ, np.eye(2)), H])
        dHs = np.array([np.kron(DH_LZ, np.eye(2)), dH])
        support = odd_commutator_support(Hs, dHs, basis)
        assert [list(np.nonzero(s)[0]) for s in support] == [odd_commutator_support(h, d, basis)
                                                            for h, d in zip(Hs, dHs)]
        cd = algebraic_cd(Hs, dHs, basis, support=support)
        loop = [algebraic_cd(h, d, basis.subset(odd_commutator_support(h, d, basis))) for h, d in zip(Hs, dHs)]
        assert np.abs(cd - np.array(loop)).max() <= 1e-10

    def test_krylov_stack_keeps_the_rows_of_a_small_time(self):
        """Padding the shorter system of a stack must not set the scale of its
        rank cutoff: a length-2 chain whose H is 1e-7 times smaller sits in a
        stack with a length-5 chain and keeps its single-time result."""
        H, dH = self._mixed_length_stack()
        assert list(krylov_chain(H, dH, k_max=5).length) == [5, 2]
        cd = krylov_cd(H, dH, k_max=5)
        for c, h, d in zip(cd, H, dH):
            single = krylov_cd(h, d, k_max=5)
            assert np.abs(c - single).max() <= 1e-12 * np.abs(single).max()

    def test_padded_krylov_rows_are_no_rank_deficiency(self):
        """The padded rows lie outside each time's support, so they are not
        counted as rank deficiency."""
        H, dH = self._mixed_length_stack()
        system = krylov_system(krylov_chain(H, dH, k_max=5))
        assert system.metadata["support"].tolist() == [[True, True], [True, False]]
        solve_cd(system)
        assert "rank_deficiency" not in system.metadata

    @staticmethod
    def _mixed_length_stack():
        Hr, dHr = random_hermitian_pair(4, 7)
        return np.array([Hr, 1e-7 * np.kron(SZ, np.eye(2))]), np.array([dHr, np.kron(SX, np.eye(2))])


def _operator_chain(H, dH, k_max=None):
    """Oracle: Lanczos on the Liouvillian [H, .] in operator space, from dH,
    for (n, D, D) stacks: complex (n, K, D^2) operators, two commutator
    products per step, full re-orthogonalization with the same second-pass
    test, the same termination at b <= 1e-10 max|E_n - E_m| and the same k_max
    cut and per-time lengths."""
    n, D = len(H), H.shape[1]

    def norm2(W):
        return np.einsum("ti,ti->t", W.conj(), W).real

    def projection(Q, W):
        return (Q.swapaxes(1, 2) @ ((Q @ W[:, :, None].conj()).conj() / D))[..., 0]

    b0 = np.sqrt(norm2(dH.reshape(n, D * D)) / D)
    hard_cap = D * D - D + 1
    k_max = hard_cap if k_max is None else max(1, min(k_max, hard_cap))
    tol = 1e-10 * np.ptp(np.linalg.eigvalsh(H), axis=1)
    live = b0 > 0.0
    Q = np.zeros((n, k_max, D * D), dtype=complex)
    Q[:, 0] = dH.reshape(n, D * D) / np.where(live, b0, 1.0)[:, None]
    bs = np.zeros((n, k_max))
    bs[:, 0] = b0
    length = live.astype(int)
    b_next = np.zeros(n)
    K = 1
    while live.any():
        q = Q[:, K - 1].reshape(n, D, D)
        W = (H @ q - q @ H).reshape(n, D * D)
        if K > 1:
            W -= bs[:, K - 1, None] * Q[:, K - 2]
        w2 = norm2(W)
        W -= projection(Q[:, :K], W)
        r2 = norm2(W)
        again = np.nonzero(live & (r2 <= 0.5 * w2) & (r2 >= tol * tol * D))[0]
        if len(again):
            W[again] -= projection(Q[again, :K], W[again])
            r2[again] = norm2(W[again])
        b = np.sqrt(r2 / D)
        b_next = np.where(live, b, b_next)
        live = live & ~((b <= tol) | (K == k_max))
        if not live.any():
            break
        Q[live, K] = W[live] / b[live, None]
        bs[live, K] = b[live]
        length += live
        K += 1
    return KrylovChain(ops=Q[:, :K].reshape(n, K, D, D), b=bs[:, :K], b_next=b_next, length=length)


def _mixed_stack(D, seed):
    """A stack of four times: a vanishing drive, a drive that commutes with H,
    the delta = 0 Landau-Zener crossing (H = 0 on two levels that dH does not
    couple, beside a generic block of D - 2 levels) and a generic pair."""
    rng = np.random.default_rng(seed)
    Hg, dHg = random_hermitian(D, rng), random_hermitian(D, rng)
    H_lz, dH_lz = np.zeros((D, D), dtype=complex), np.zeros((D, D), dtype=complex)
    dH_lz[:2, :2] = 1.7 * SZ
    if D > 2:
        H_lz[2:, 2:], dH_lz[2:, 2:] = random_hermitian(D - 2, rng), random_hermitian(D - 2, rng)
    H = np.array([random_hermitian(D, rng), Hg, H_lz, Hg])
    dH = np.array([np.zeros((D, D)), 0.5 * Hg @ Hg - Hg, dH_lz, dHg])
    return H, dH


@settings(derandomize=True, max_examples=30, deadline=None)
@given(D=st.sampled_from([2, 3, 4, 8, 16]), seed=st.integers(0, 2**16), cut=st.floats(0.0, 1.0))
def test_frame_chain_is_the_operator_chain(D, seed, cut):
    """The chain in H's eigenframes, the recurrence over the Bohr
    frequencies, has the operator-space chain's lengths, and its b's and its
    H_cd agree with the oracle's to 1e-10 relative, at every k_max from 1 to
    D^2 - D + 1 and on a stack that mixes a vanishing drive, a commuting
    drive, a protected crossing and a generic time. The lengths are the
    exact Krylov dimensions, capped at k_max: 0, 1, 1 + (D - 2)(D - 3) (the
    distinct Bohr frequencies of the crossing's generic block, and 0) and
    D^2 - D + 1.

    The oracle runs on the pair in the eigenbasis of H, (diag E, V^dagger dH V),
    and its operators are rotated back. In the basis of H itself the float64
    operator chain carries rounding into the commutant of H, which no later
    step removes: near the end of a full D = 16 chain its b's depart by up to
    7e-4 from an 80-bit run of the same recurrence, and the crossing's chain
    reads b = 1.4e-8 where its 183-dimensional Krylov space has closed.
    [diag E, X] rounds each element on its own, as the frame chain does."""
    k_max = 1 + round(cut * (D * D - D))
    H, dH = _mixed_stack(D, seed)
    chain = krylov_chain(H, dH, k_max=k_max)
    assert chain.length.tolist() == [min(k_max, K) for K in (0, 1, 1 + (D - 2) * (D - 3), D * D - D + 1)]
    E, V = np.linalg.eigh(H)
    oracle = _operator_chain(np.eye(D) * E[:, None, :], V.conj().swapaxes(1, 2) @ dH @ V, k_max=k_max)
    assert chain.length.tolist() == oracle.length.tolist()
    scale = oracle.b[:, :1]
    assert (np.abs(chain.b - oracle.b) <= 1e-10 * scale).all()
    assert (np.abs(chain.b_next - oracle.b_next) <= 1e-10 * scale[:, 0]).all()
    system = krylov_system(oracle)
    expect = V @ assemble_cd(system, solve_cd(system)) @ V.conj().swapaxes(1, 2)
    for c, e in zip(krylov_cd(H, dH, k_max=k_max), expect):
        assert frobenius_norm(c - e) <= 1e-10 * frobenius_norm(e)


def test_frame_fit_is_zero_where_the_chain_has_no_odd_operator():
    """Exact zeros where the chain has no odd operator: at k_max <= 1, at a
    vanishing drive and at a drive that commutes with H; a generic time and
    the protected crossing's generic block are fitted from k_max = 2 on."""
    H, dH = _mixed_stack(8, 3)
    E, V = np.linalg.eigh(H)
    for k_max in (-1, 0, 1):
        assert not frame_krylov_cd(E, V, dH, k_max).any()
    for k_max in (2, 5, None):
        cd = frame_krylov_cd(E, V, dH, k_max)
        assert not cd[:2].any() and cd[2].any() and cd[3].any()


def test_frame_fit_past_natural_termination_adds_exact_zeros():
    """A basis that is complete adds nothing: Landau-Zener has one Bohr pair,
    so every k_max from 2 on gives the same bits, the exact term."""
    E, V = np.linalg.eigh(H_LZ[None])
    first = frame_krylov_cd(E, V, DH_LZ[None], k_max=2)
    for k_max in (3, 4, 9, None):
        assert np.array_equal(frame_krylov_cd(E, V, DH_LZ[None], k_max), first)
    assert np.abs(first[0] - CD_LZ).max() < 1e-12


@pytest.mark.parametrize("rate", [1e11, 1e15, 1e154, 1e200, 1e300])
def test_a_fast_drive_is_not_read_as_commuting(rate):
    """The commuting-drive test compares a chain frequency with the width of
    the spectrum, not with the drive's norm, and the norms are taken on |dHe|
    scaled by a power of two, so the route scales with the drive's rate:
    krylov_cd of 2 sz + sx with dH = rate sz, over the rate, is the unit-rate
    term within 4 ulps of its largest entry. A test against 1e-10 b_0 read the
    rate-1e11 drive as commuting and returned zero, and so did the unscaled
    norms from rate 1e154 on, where sum |dHe|^2 overflows."""
    H = 2 * SZ + SX
    unit = krylov_cd(H, SZ, 3)
    assert np.abs(krylov_cd(H, rate * SZ, 3) / rate - unit).max() <= 4 * np.finfo(float).eps * np.abs(unit).max()


@pytest.mark.parametrize("rate", [2.0**520, 2.0**1000], ids=["2^520", "2^1000"])
def test_a_drive_whose_squares_overflow_keeps_its_chain(rate):
    """The chain of a drive whose sum |dHe|^2 overflows is the unit drive's
    scaled by the rate, a power of two, bit for bit: the same operators and
    support, b_0 = ||dH|| times the rate, and the same frequencies b_k."""
    H, basis = 2 * SZ + SX, pauli_basis(1)
    unit, fast = krylov_chain(H, SZ), krylov_chain(H, rate * SZ)
    assert fast.length == unit.length and np.array_equal(fast.ops, unit.ops)
    assert fast.b[0] == rate * unit.b[0] and np.array_equal(fast.b[1:], unit.b[1:])
    assert odd_commutator_support(H, rate * SZ, basis) == odd_commutator_support(H, SZ, basis) == [1]


def test_a_fully_degenerate_spectrum_is_a_commuting_drive():
    """H = 0 has no Bohr frequency: the chain is dH alone and H_cd is zero,
    with no division by the zero width (a warning fails the test)."""
    chain = krylov_chain(np.zeros((2, 2)), SZ)
    assert chain.length == 1 and chain.b_next == 0.0
    assert not krylov_cd(np.zeros((2, 2)), SZ, 3).any()


@pytest.mark.parametrize("D, seed", [(2, 1), (3, 2), (4, 5), (8, 3)])
def test_frame_support_reads_the_given_frames(D, seed):
    """The frame form of the support, fed one ``eigh`` of the stack, is the
    support's mask bit for bit, and both are the support read off the odd
    operators of the ``_operator_chain`` oracle, at every max_order: none at
    max_order <= 0, and none at the vanishing and the commuting drive."""
    H, dH = _mixed_stack(D, seed)
    basis = gell_mann_basis(3) if D == 3 else pauli_basis(D.bit_length() - 1)
    E, V = np.linalg.eigh(H)
    Vh = V.conj().swapaxes(1, 2)
    for order in (-1, 0, 1, 2, None):
        mask = frame_odd_commutator_support(E, V, dH, basis, order)
        assert np.array_equal(mask, odd_commutator_support(H, dH, basis, max_order=order))
        oracle = _operator_chain(np.eye(D) * E[:, None, :], Vh @ dH @ V, None if order is None else 2 * order)
        odd = V[:, None] @ oracle.ops[:, 1::2] @ Vh[:, None]
        assert np.array_equal(mask, (np.abs(gram_matrix(basis.elements, odd)) > 1e-10).any(axis=2))
        assert not mask[:2].any()
        assert mask[3].any() == (order is None or order > 0)
