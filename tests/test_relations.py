"""Relations between shortcut methods, checked as executable oracles."""

import numpy as np
import pytest

from shortcut_forge import (
    EigenPath,
    adiabatic_populations,
    adiabaticity_metric,
    counterdiabatic_term,
    eigenpath,
    evolve,
    geometric_integrand,
    hamiltonian_from_modes,
    loop_geometric_phase,
    quantum_geometric_tensor,
)
from shortcut_forge.models import random_hermitian, random_hermitian_ramp

from conftest import SX, SY, SZ, cd_driven


class TestCounterdiabaticInvariant:
    def test_mode_populations_are_conserved_at_fourth_order(self):
        """CD <-> Lewis-Riesenfeld invariant: under H + H_cd every
        sum_n f_n |n(t)><n(t)| is conserved, so a D = 64 superposition with
        c_n = 1/8 on every mode keeps |c_n|^2 = 1/64. The deviation is the
        fourth-order walk's: doubling the grid cuts it by about 16 (15.4 from
        401 to 801 points, 13.2 from 201 to 401, before the asymptotic range),
        with no floor from the Lanczos steps of this D."""
        system = random_hermitian_ramp(64, 0)
        deviation = []
        for points in (401, 801):
            grid = np.linspace(0.0, 1.0, points)
            path = eigenpath(system.hamiltonian, grid)
            traj = evolve(cd_driven(system), path.vectors[0].sum(axis=1) / 8, grid)
            deviation.append(np.abs(adiabatic_populations(traj, path) - 1 / 64).max())
        assert 14.0 <= deviation[0] / deviation[1] <= 18.0

    def test_transitionless_driving_is_the_inverse_engineered_hamiltonian(self):
        """Berry's transitionless driving: the eigenmodes move by
        d_t|n> = -(i/hbar) H_cd |n>, so inverse engineering them with the
        phase rates -E_n/hbar gives back H + H_cd, to rounding."""
        system = random_hermitian_ramp(4, 2, shape="linear")
        grid = np.linspace(0.0, 1.0, 101)
        path = eigenpath(system.hamiltonian, grid)
        H = system.hamiltonian(grid)
        H_cd = counterdiabatic_term(H, system.dhamiltonian(grid))
        rebuilt = hamiltonian_from_modes(grid, path.vectors, -path.energies, dmodes=-1j * H_cd @ path.vectors)
        assert np.abs(rebuilt - (H + H_cd)).max() < 1e-13

    def test_invariant_basis_cd_part_converges_to_the_cd_term(self):
        """The off-diagonal generator i hbar V (V^dagger dV)_offdiag V^dagger
        of the eigenmode motion is H_cd. With central grid differences of the
        tracked modes the error at the interior points falls at second order:
        5.8e-6, 3.6e-7 and 2.3e-8 at 401, 1601 and 6401 points, a factor of
        16 per 4x refinement."""
        system = random_hermitian_ramp(4, 2, shape="linear")
        errors = []
        for points in (401, 1601, 6401):
            grid = np.linspace(0.0, 1.0, points)
            V = eigenpath(system.hamiltonian, grid).vectors
            Vh = V.conj().swapaxes(1, 2)
            A = Vh @ np.gradient(V, grid, axis=0)
            A[:, range(4), range(4)] = 0.0
            generator = 1j * V @ A @ Vh
            H_cd = counterdiabatic_term(system.hamiltonian(grid), system.dhamiltonian(grid))
            errors.append(np.abs(generator - H_cd)[1:-1].max())
        assert all(12 <= coarse / fine <= 20 for coarse, fine in zip(errors, errors[1:]))


class TestGeometricTensorFidelitySusceptibility:
    def test_tensor_is_the_fidelity_susceptibility(self):
        """QGT <-> fidelity susceptibility: on a D = 5 two-parameter family,
        1 - |<n(lambda - delta v)|n(lambda + delta v)>|^2 = (2 delta)^2 v.g.v
        up to O(delta^4), for every level n and four directions v. The
        eigenvectors come from direct diagonalization at the two points."""
        rng = np.random.default_rng(7)
        H0, H1, H2 = (random_hermitian(5, rng) for _ in range(3))
        H_of = lambda lam: H0 + lam[0] * H1 + lam[1] * H2
        lam, delta = np.array([0.3, -0.2]), 1e-3
        for n in range(5):
            g = quantum_geometric_tensor(H_of(lam), np.array([H1, H2]), n=n)
            for phi in (0.0, np.pi / 4, np.pi / 2, 2.0):
                v = np.array([np.cos(phi), np.sin(phi)])
                lo = np.linalg.eigh(H_of(lam - delta * v))[1][:, n]
                hi = np.linalg.eigh(H_of(lam + delta * v))[1][:, n]
                chi = (1 - abs(np.vdot(lo, hi)) ** 2) / (2 * delta) ** 2
                assert chi == pytest.approx(v @ g @ v, rel=1e-4)


class TestAdiabaticityMetricModeVelocity:
    def test_metric_is_the_mode_velocity_over_the_gap(self):
        """Adiabaticity metric <-> hbar |<n|d_t m>| / |E_m - E_n|, with the mode
        derivative taken by central differences of a 4001-point eigenpath of
        a random D = 4 ramp."""
        system = random_hermitian_ramp(4, 2)
        grid = np.linspace(0.0, 1.0, 4001)
        path = eigenpath(system.hamiltonian, grid)
        dt = grid[1] - grid[0]
        for i in (1000, 1700, 3000):
            E, V = path.energies[i], path.vectors[i]
            dV = (path.vectors[i + 1] - path.vectors[i - 1]) / (2 * dt)
            H, dH = system.hamiltonian(grid[i]), system.dhamiltonian(grid[i])
            for n in range(4):
                for m in range(4):
                    if m != n:
                        oracle = abs(np.vdot(V[:, n], dV[:, m])) / abs(E[m] - E[n])
                        assert adiabaticity_metric(H, dH, m, n) == pytest.approx(oracle, rel=1e-5)


class TestBerryConnectionLoopPhase:
    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_integrated_connection_is_the_loop_phase_and_half_the_solid_angle(self, theta):
        """Berry: a spin-1/2 in a unit field that precesses once on a cone of
        half-angle theta, H = -n(t).sigma, whose ground state |n(t)> is kept in
        the single-valued gauge (cos(theta/2), e^{i phi} sin(theta/2)). There
        the connection does not vanish, and -int Im <n|d_t n> dt from
        ``geometric_integrand`` is the gauge-invariant ``loop_geometric_phase``
        and minus half the enclosed solid angle, -pi (1 - cos theta), mod 2 pi,
        to 1e-6 at 2001 points. The midpoint estimate's own error against the
        solid angle, pi (1 - cos theta) (2 pi h)^2 / 6 at step h, is 6.3e-7 at
        theta = 0.5."""
        grid = np.linspace(0.0, 1.0, 2001)
        phi = 2 * np.pi * grid
        ground = np.stack([np.full(phi.shape, np.cos(theta / 2)), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
        path = EigenPath(grid=grid, energies=np.tile([-1.0, 1.0], (len(grid), 1)), vectors=ground[:, :, None],
                         modes=np.array([0]))
        n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.full(phi.shape, np.cos(theta))])
        H = -(n[0, :, None, None] * SX + n[1, :, None, None] * SY + n[2, :, None, None] * SZ)
        assert np.abs((H @ path.vectors)[:, :, 0] + ground).max() < 1e-14     # ground states of H, energy -1
        integrated = -np.sum(geometric_integrand(path, 0).imag * np.diff(grid))
        for phase in (loop_geometric_phase(path, 0), -np.pi * (1 - np.cos(theta))):
            assert abs(np.angle(np.exp(1j * (integrated - phase)))) < 1e-6
