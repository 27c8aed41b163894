import numpy as np
import pytest

from shortcut_forge import (
    AlgebraSpec,
    DynamicalInvariant,
    GaugeDiscontinuityError,
    GridTooCoarseError,
    HermiticityError,
    adiabatic_state,
    commutator,
    eigenpath,
    evolve,
    fidelity,
    hamiltonian_from_modes,
    invariant_residual,
    inverse_engineer_schedule,
    gell_mann_basis,
    lr_phase,
    pauli_basis,
    structure_constants,
)
from shortcut_forge.dynamics import sample
from shortcut_forge.models import random_hermitian_ramp

from conftest import SX, SY, SZ, cd_driven, stacked


def lz_modes_analytic(lz, grid):
    """Analytic smooth-gauge eigenmodes and derivatives of the two-level sweep."""
    n_t = len(grid)
    modes = np.zeros((n_t, 2, 2), dtype=complex)
    dmodes = np.zeros_like(modes)
    energies = np.zeros((n_t, 2))
    for i, t in enumerate(grid):
        lam = lz.schedule(t)
        rate = lz.schedule.rate(t)
        theta = np.arctan2(1.0, lam)
        thetadot = -rate / (lam**2 + 1.0)
        g = np.array([-np.sin(theta / 2), np.cos(theta / 2)], dtype=complex)
        e = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        modes[i, :, 0], modes[i, :, 1] = g, e
        dmodes[i, :, 0] = -(thetadot / 2) * e
        dmodes[i, :, 1] = (thetadot / 2) * g
        r = np.sqrt(lam**2 + 1)
        energies[i] = [-r, r]
    return modes, dmodes, energies


class TestInvariantResidual:
    def test_static_hamiltonian_is_its_own_invariant(self):
        H = 2 * SZ + 0.7 * SX
        grid = np.linspace(0, 1, 101)
        H_of_t = stacked(lambda t: H)
        res = invariant_residual(H_of_t, DynamicalInvariant(grid, sample(H_of_t, grid)))
        assert res.max() < 1e-12

    def test_density_operator_of_a_trajectory(self, lz):
        """The projector onto any solution of the Schrodinger equation is the
        trivial dynamical invariant."""
        grid = np.linspace(0, 1, 12001)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        traj = evolve(lz.hamiltonian, psi0, grid)
        projs = np.einsum("ti,tj->tij", traj.states, traj.states.conj())
        inv = DynamicalInvariant(grid=grid, operators=projs)
        res = invariant_residual(lz.hamiltonian, inv)
        scale = np.sqrt(0.5) * np.sqrt(26.0)      # ||rho|| * max ||H||
        assert res.max() < 1e-6 * scale

    def test_cd_driving_invariant(self, lz):
        """F = sum_n n |n(t)><n(t)| is invariant under H + H_cd."""
        grid = np.linspace(0, 1, 12001)
        path = eigenpath(lz.hamiltonian, grid)
        inv = DynamicalInvariant.from_modes(grid, path.vectors)
        H_tot = cd_driven(lz)
        res = invariant_residual(H_tot, inv)
        scale = np.sqrt(0.5) * np.sqrt(26.0)      # ||F|| * max ||H + H_cd|| lower bound
        assert res.max() < 1e-6 * scale

    def test_eigenvalue_conservation(self, lz):
        grid = np.linspace(0, 1, 301)
        path = eigenpath(lz.hamiltonian, grid)
        inv = DynamicalInvariant.from_modes(grid, path.vectors)
        tracked = DynamicalInvariant.from_operator(grid, stacked(lambda t: inv.operators[inv_index(inv, t)]))
        drift = tracked.eigenvalue_drift()
        assert drift.shape == grid.shape
        assert drift.max() < 1e-8

    def test_non_orthonormal_modes_show_a_drift(self):
        """Modes that shear from the identity to eye + 0.3 build an F whose
        spectrum moves from {0, 1} to {0, 1.78}; the drift is measured on
        the operators, not assumed from the mode weights."""
        grid = np.linspace(0, 1, 5)
        modes = np.eye(2) + 0.3 * grid[:, None, None]
        drift = DynamicalInvariant.from_modes(grid, modes).eigenvalue_drift()
        assert drift[0] == 0.0
        assert drift[-1] == pytest.approx(0.78, rel=1e-12)

    def test_partial_frame_is_rejected(self):
        """Only the ground mode of a 4-level path would build F = 6|phi_0><phi_0|,
        whose spectrum {0, 0, 0, 6} never drifts, so the drift check cannot
        catch it: from_modes takes full frames only."""
        grid = np.linspace(0, 1, 11)
        H = random_hermitian_ramp(4, 0).hamiltonian
        with pytest.raises(ValueError, match="full"):
            DynamicalInvariant.from_modes(grid, eigenpath(H, grid, modes=[0]).vectors)
        with pytest.raises(ValueError, match="full"):      # a frame per grid time
            DynamicalInvariant.from_modes(grid[:-1], eigenpath(H, grid).vectors)

    def test_from_operator_evaluates_F_once_per_grid_time(self, lz):
        """The operators come from the tracked spectrum, not a second pass of F."""
        grid = np.linspace(0, 1, 301)
        path = eigenpath(lz.hamiltonian, grid)
        inv = DynamicalInvariant.from_modes(grid, path.vectors)
        times = []

        def F(t):
            times.append(np.array(t))
            return inv.operators[[inv_index(inv, s) for s in t]]

        tracked = DynamicalInvariant.from_operator(grid, F)
        assert np.array_equal(np.sort(np.concatenate(times)), grid)
        assert np.abs(tracked.operators - inv.operators).max() < 1e-12

    def test_from_operator_rejects_a_jump(self):
        """F jumps from sz to sx at t = 1/3: every bisection level leaves a
        mode overlap of 1/sqrt(2), so tracking fails instead of guessing."""
        with pytest.raises(GridTooCoarseError, match="overlap 0.707 < 0.9"):
            DynamicalInvariant.from_operator(np.array([0.0, 1.0]), stacked(lambda t: SZ if t < 1 / 3 else SX))

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError):
            invariant_residual(stacked(lambda t: SZ), DynamicalInvariant(np.array([0.0, 1.0]), np.array([SZ, SZ])))


def inv_index(inv, t):
    return int(np.argmin(np.abs(inv.grid - t)))


class TestLRPhase:
    def test_constant_hamiltonian(self):
        H = np.diag([2.0, -1.0]).astype(complex)
        grid = np.linspace(0, 1, 501)
        phi = np.tile(np.array([[1.0, 0.0]], dtype=complex), (len(grid), 1))
        alpha = lr_phase(stacked(lambda t: H), phi, grid)
        assert np.abs(alpha + 2.0 * grid).max() < 1e-10

    def test_discontinuous_mode_path_rejected(self):
        """A mode path that jumps from |0> to |+> (overlap 0.707 < 0.9) between
        grid points 3 and 4 has no Lewis-Riesenfeld phase."""
        grid = np.linspace(0, 1, 9)
        phi = np.tile(np.array([[1.0, 0.0]], dtype=complex), (len(grid), 1))
        phi[4:] = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(GaugeDiscontinuityError, match="overlap 0.707 < 0.9 between grid points 3 and 4"):
            lr_phase(stacked(lambda t: SZ), phi, grid)

    def test_cd_driven_matches_adiabatic_phases(self, lz):
        """Under H + H_cd the eigenmodes are invariant modes; their
        Lewis-Riesenfeld phase is the sum of dynamical and geometric phases
        of the adiabatic reference."""
        grid = np.linspace(0, 1, 2001)
        path = eigenpath(lz.hamiltonian, grid)
        H_tot = cd_driven(lz)
        ad = adiabatic_state(path, np.array([1.0, 0.0]))
        alpha = lr_phase(H_tot, path.vectors[:, :, 0], grid)
        expect = -ad.dynamical_phases[:, 0] + ad.geometric_phases[:, 0]
        assert np.abs(alpha - expect).max() < 1e-6

    def test_mode_reconstruction_matches_direct_integration(self, lz):
        """sum_n c_n(0) e^{i alpha_n} |phi_n(t)> reproduces the Schrodinger
        solution for a superposition initial state."""
        grid = np.linspace(0, 1, 2001)
        path = eigenpath(lz.hamiltonian, grid)
        H_tot = cd_driven(lz)
        c0 = np.array([0.6, 0.8], dtype=complex)
        psi0 = c0[0] * path.vectors[0][:, 0] + c0[1] * path.vectors[0][:, 1]
        traj = evolve(H_tot, psi0, grid, steps_per_interval=4)
        recon = np.zeros_like(traj.states)
        for n in range(2):
            alpha = lr_phase(H_tot, path.vectors[:, :, n], grid)
            recon += c0[n] * np.exp(1j * alpha)[:, None] * path.vectors[:, :, n]
        fids = np.abs(np.einsum("ti,ti->t", recon.conj(), traj.states))
        assert (1 - fids).max() < 1e-6


class TestHamiltonianFromModes:
    def test_static_modes(self):
        grid = np.linspace(0, 1, 11)
        modes = np.tile(np.eye(2, dtype=complex)[None], (11, 1, 1))
        rates = np.tile(np.array([-2.0, 1.0]), (11, 1))          # -E_n
        H = hamiltonian_from_modes(grid, modes, rates, dmodes=np.zeros_like(modes))
        assert np.abs(H - np.diag([2.0, -1.0])).max() < 1e-12

    def test_lz_recovers_total_cd_hamiltonian(self, lz):
        """Driving the eigenmodes with adiabatic phase rates inverse-engineers
        exactly H + H_cd (analytic modes keep the check at 1e-7)."""
        grid = np.linspace(0, 1, 101)
        modes, dmodes, energies = lz_modes_analytic(lz, grid)
        rates = -energies            # alpha_n rate = -E_n; geometric part vanishes
        H = hamiltonian_from_modes(grid, modes, rates, dmodes=dmodes)
        for i in (0, 50, 100):
            t = grid[i]
            expect = cd_driven(lz)(t)
            assert np.abs(H[i] - expect).max() < 1e-7

    def test_drives_its_own_modes(self, lz):
        grid = np.linspace(0, 1, 1601)
        modes, dmodes, energies = lz_modes_analytic(lz, grid)
        H = hamiltonian_from_modes(grid, modes, -energies, dmodes=dmodes)
        H_of_t = lambda t: H[int(round(t / (grid[1] - grid[0])))]
        traj = evolve(stacked(H_of_t), modes[0][:, 0], grid, steps_per_interval=2)
        fids = np.abs(np.einsum("ti,ti->t", modes[:, :, 0].conj(), traj.states))
        assert (1 - fids).max() < 1e-6

    def test_offdiagonal_identity(self, lz):
        """<phi_m|H|phi_n> = i <phi_m|d_t phi_n> for m != n."""
        grid = np.linspace(0, 1, 101)
        modes, dmodes, energies = lz_modes_analytic(lz, grid)
        H = hamiltonian_from_modes(grid, modes, -energies, dmodes=dmodes)
        for i in (7, 53):
            lhs = np.vdot(modes[i][:, 0], H[i] @ modes[i][:, 1])
            rhs = 1j * np.vdot(modes[i][:, 0], dmodes[i][:, 1])
            assert abs(lhs - rhs) < 1e-8

    def test_non_orthonormal_rejected(self):
        grid = np.linspace(0, 1, 5)
        modes = np.tile((np.eye(2) + 0.1).astype(complex)[None], (5, 1, 1))
        with pytest.raises(ValueError):
            hamiltonian_from_modes(grid, modes, np.zeros((5, 2)), dmodes=np.zeros_like(modes))

    def test_non_orthonormal_at_one_time_rejected(self):
        """Every time is checked: a frame sheared only at index 1 of 5 would
        otherwise give H[1] = diag(1.2, -1.2) instead of diag(1, -1)."""
        grid = np.linspace(0, 1, 5)
        modes = np.tile(np.eye(2, dtype=complex)[None], (5, 1, 1))
        modes[1] *= np.sqrt(1.2)
        with pytest.raises(ValueError, match="not orthonormal at grid index 1"):
            hamiltonian_from_modes(grid, modes, np.tile([-1.0, 1.0], (5, 1)), dmodes=np.zeros_like(modes))

    def test_inconsistent_mode_derivatives_raise_a_typed_error(self):
        """A derivative whose generator i dmodes modes^dagger is not Hermitian
        is a HermiticityError, which the CLI reports with exit 3."""
        grid = np.linspace(0, 1, 5)
        modes = np.tile(np.eye(2, dtype=complex)[None], (5, 1, 1))
        dmodes = np.tile(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)[None], (5, 1, 1))
        with pytest.raises(HermiticityError):
            hamiltonian_from_modes(grid, modes, np.zeros((5, 2)), dmodes=dmodes)

    @pytest.mark.parametrize("n_t", [401, 6401])
    def test_grid_differences_of_tracked_modes_fail_the_check(self, lz, n_t):
        """Why dmodes is required: second-order grid differences of the
        tracked modes leave an O(dt^2) anti-Hermitian part far above the
        1e-9 check (5.8e-6 at 6401 points)."""
        grid = np.linspace(0, 1, n_t)
        path = eigenpath(lz.hamiltonian, grid)
        with pytest.raises(HermiticityError):
            hamiltonian_from_modes(grid, path.vectors, -path.energies,
                                   dmodes=np.gradient(path.vectors, grid, axis=0))

    def test_roundtrip_with_true_invariant_modes(self, lz):
        """At one time, the CD-driven eigenmodes with the phase rates
        -<phi_n|H|phi_n> rebuild the full Hamiltonian."""
        grid = np.linspace(0, 1, 101)
        modes, dmodes, _ = lz_modes_analytic(lz, grid)
        i = 40
        H_tot = cd_driven(lz)(grid[i])
        rates = np.array([-np.real(np.vdot(modes[i][:, n], H_tot @ modes[i][:, n])) for n in range(2)])
        rebuilt = hamiltonian_from_modes(grid[i : i + 1], modes[i : i + 1], rates[None],
                                         dmodes=dmodes[i : i + 1])
        assert np.abs(rebuilt[0] - H_tot).max() < 1e-8


class TestAlgebra:
    def test_su2_structure_constants(self):
        basis = pauli_basis(1)
        T = structure_constants(basis)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
        assert np.abs(T - 2 * eps).max() < 1e-12

    def test_su3_structure_constants(self):
        basis = gell_mann_basis(3)
        X = basis.elements
        T = structure_constants(basis)
        assert np.abs(T + T.transpose(1, 0, 2)).max() == 0.0
        for j in range(8):
            for k in range(8):
                target = 1j * np.tensordot(T[j, k], X, axes=1)
                assert np.abs(commutator(X[j], X[k]) - target).max() < 1e-12
        spec = AlgebraSpec(basis=basis, A_indices=[7], B_indices=list(range(8)))
        assert np.array_equal(spec.T, T)

    def test_open_set_rejected(self):
        # [X, Y] = 2i Z lies outside span{X, Y}
        with pytest.raises(ValueError, match="not in the span"):
            structure_constants(pauli_basis(1).subset([0, 1]))

    def test_closed_pair_accepted(self):
        AlgebraSpec(basis=pauli_basis(1), A_indices=[1], B_indices=[0, 2])

    def test_closure_violation_detected(self):
        # [X, Z] = -2i Y leaks outside span{X, Z}: rejected on construction
        with pytest.raises(ValueError, match="closure fails"):
            AlgebraSpec(basis=pauli_basis(1), A_indices=[0], B_indices=[0, 2])


class TestInverseEngineering:
    def _theta_schedule(self, grid, theta_max=np.pi / 3):
        u = grid / grid[-1]
        p = u**3 * (10 - 15 * u + 6 * u**2)
        dp = 30 * u**2 * (1 - u) ** 2 / grid[-1]
        return theta_max * p, theta_max * dp

    def test_two_level_theta_schedule(self):
        """Recover the driving for F = cos(theta) sz + sin(theta) sx; the
        closed form is h_y = thetadot / 2, and the recovered schedule
        must drive the target invariant (von Neumann oracle)."""
        basis = pauli_basis(1)
        algebra = AlgebraSpec(basis=basis, A_indices=[1], B_indices=[0, 2])
        grid = np.linspace(0, 1, 2001)
        theta, thetadot = self._theta_schedule(grid)
        f = np.stack([np.sin(theta), np.cos(theta)], axis=1)          # (X, Z)
        df = np.stack([thetadot * np.cos(theta), -thetadot * np.sin(theta)], axis=1)
        h, res = inverse_engineer_schedule(algebra, f, df)
        assert res.max() < 1e-12
        assert np.abs(h[:, 0] - thetadot / 2).max() < 1e-10
        # oracle: the von Neumann equation under the recovered drive, with the
        # recovered coefficients in their verified closed form (interpolating
        # sampled arrays would only re-measure interpolation noise)
        fine = np.linspace(0, 1, 6001)

        def H_of_t(t):
            _, td = self._theta_schedule(np.array([t, 1.0]))
            return (td[0] / 2) * SY

        def F_of_t(t):
            th, _ = self._theta_schedule(np.array([t, 1.0]))
            return np.sin(th[0]) * SX + np.cos(th[0]) * SZ

        res2 = invariant_residual(stacked(H_of_t), DynamicalInvariant(fine, sample(stacked(F_of_t), fine)))
        assert res2.max() < 1e-6

    def test_endpoint_commutativity(self):
        basis = pauli_basis(1)
        algebra = AlgebraSpec(basis=basis, A_indices=[1], B_indices=[0, 2])
        grid = np.linspace(0, 1, 2001)
        theta, thetadot = self._theta_schedule(grid)
        f = np.stack([np.sin(theta), np.cos(theta)], axis=1)
        df = np.stack([thetadot * np.cos(theta), -thetadot * np.sin(theta)], axis=1)
        h, _ = inverse_engineer_schedule(algebra, f, df)
        for i in (0, -1):
            H = h[i, 0] * SY
            F = f[i, 0] * SX + f[i, 1] * SZ
            assert np.abs(H @ F - F @ H).max() < 1e-8

    def test_population_conservation_under_recovered_hamiltonian(self):
        basis = pauli_basis(1)
        algebra = AlgebraSpec(basis=basis, A_indices=[1], B_indices=[0, 2])
        grid = np.linspace(0, 1, 2001)
        theta, thetadot = self._theta_schedule(grid)
        f = np.stack([np.sin(theta), np.cos(theta)], axis=1)
        df = np.stack([thetadot * np.cos(theta), -thetadot * np.sin(theta)], axis=1)
        h, _ = inverse_engineer_schedule(algebra, f, df)
        H_of_t = lambda t: np.interp(t, grid, h[:, 0]) * SY
        # invariant modes: Bloch vector (sin theta, 0, cos theta)
        psi0 = np.array([np.cos(theta[0] / 2), np.sin(theta[0] / 2)], dtype=complex)
        traj = evolve(stacked(H_of_t), psi0, grid, steps_per_interval=2)
        pops = []
        for i in range(len(grid)):
            mode = np.array([np.cos(theta[i] / 2), np.sin(theta[i] / 2)], dtype=complex)
            pops.append(abs(np.vdot(mode, traj.states[i])) ** 2)
        assert np.abs(np.array(pops) - 1.0).max() < 1e-6

    def test_constant_aligned_invariant_needs_no_drive(self):
        basis = pauli_basis(1)
        algebra = AlgebraSpec(basis=basis, A_indices=[2], B_indices=[2])
        f = np.ones((11, 1))
        df = np.zeros((11, 1))
        h, res = inverse_engineer_schedule(algebra, f, df)
        assert np.abs(h).max() == 0.0
        assert res.max() == 0.0
