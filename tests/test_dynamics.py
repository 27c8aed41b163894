import numpy as np
import pytest
import scipy.integrate

from shortcut_forge import (
    DimensionMismatchError,
    adiabatic_coefficients,
    eigenpath,
    evolve,
    exact_cd,
    fidelity,
    overlap,
    step_unitary,
)
from shortcut_forge.dynamics import cumulative_trapezoid
from shortcut_forge.models import landau_zener, random_hermitian

from conftest import SX, SY, SZ


class TestEvolve:
    def test_larmor_quarter_period(self):
        """Unit-frequency Larmor precession: |+x> reaches |-y> at t = pi/2.

        Oracle is the closed-form 2x2 exponential e^{-iHt} = diag(e^{it/2}, e^{-it/2})
        for H = -sz/2, checked at every grid time."""
        H = -0.5 * SZ
        plus_x = np.array([1, 1]) / np.sqrt(2)
        minus_y = np.array([1, -1j]) / np.sqrt(2)
        grid = np.linspace(0, np.pi / 2, 101)
        traj = evolve(lambda t: H, plus_x, grid)
        closed_form = np.stack([np.exp(1j * grid / 2), np.exp(-1j * grid / 2)], axis=1) / np.sqrt(2)
        assert np.abs(traj.states - closed_form).max() < 1e-12
        assert fidelity(minus_y, traj.final()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian(self):
        psi0 = np.array([0.6, 0.8j])
        traj = evolve(lambda t: np.zeros((2, 2)), psi0, np.linspace(0, 1, 11))
        assert np.abs(traj.states - psi0).max() < 1e-14

    def test_constant_matches_single_exponential(self, rng):
        H = random_hermitian(4, rng)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        traj = evolve(lambda t: H, psi0, np.linspace(0, 2.0, 101))
        direct = step_unitary(H, 2.0) @ psi0
        assert fidelity(direct, traj.final()) >= 1 - 1e-10

    def test_unitarity(self, lz):
        grid = np.linspace(0, 1, 501)
        psi0 = np.array([1.0, 0.0])
        traj = evolve(lz.hamiltonian, psi0, grid)
        assert np.abs(traj.norms() - 1).max() < 1e-10

    def test_second_order_convergence(self, lz):
        """Halving dt cuts the error against a fine reference by about 4x."""
        psi0 = np.array([1.0, 0.0], dtype=complex)
        grid = np.linspace(0, 1, 2)
        ref = evolve(lz.hamiltonian, psi0, grid, steps_per_interval=4096).final()
        errs = []
        for steps in (64, 128, 256):
            psi = evolve(lz.hamiltonian, psi0, grid, steps_per_interval=steps).final()
            errs.append(np.linalg.norm(psi - ref))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.3 < r < 4.7 for r in ratios)

    def test_rejects_nonfinite(self):
        H_bad = lambda t: np.array([[np.nan, 0], [0, 1.0]])
        with pytest.raises(ValueError):
            evolve(H_bad, np.array([1.0, 0.0]), np.linspace(0, 1, 3))


class TestAdiabaticCoefficients:
    def test_initial_eigenstate(self, lz):
        grid = np.linspace(0, 1, 201)
        path = eigenpath(lz.hamiltonian, grid)
        traj = evolve(lz.hamiltonian, path.vectors[0][:, 0], grid)
        c = adiabatic_coefficients(traj, path)
        assert np.allclose(np.abs(c[0]), [1.0, 0.0], atol=1e-12)

    def test_cd_driven_moduli_constant(self, lz):
        grid = np.linspace(0, 1, 1001)
        path = eigenpath(lz.hamiltonian, grid)
        H_tot = lambda t: lz.hamiltonian(t) + exact_cd(lz.hamiltonian, t, lz.dhamiltonian)
        psi0 = (path.vectors[0][:, 0] + path.vectors[0][:, 1]) / np.sqrt(2)
        traj = evolve(H_tot, psi0, grid, steps_per_interval=2)
        c = adiabatic_coefficients(traj, path)
        assert np.abs(np.abs(c) - np.abs(c[0])).max() < 1e-6
        assert np.abs((np.abs(c) ** 2).sum(axis=1) - 1).max() < 1e-8

    def test_sudden_quench_projection(self):
        """An instantaneous parameter jump redistributes |c_n|^2 exactly by
        the overlap of old and new eigenbases."""
        H0 = 2.0 * SZ
        H1 = 2.0 * SX + 0.5 * SZ
        E0, V0 = np.linalg.eigh(H0)
        E1, V1 = np.linalg.eigh(H1)
        psi = V0[:, 0]
        expected = np.abs(V1.conj().T @ psi) ** 2
        grid = np.linspace(0, 0.5, 101)
        path = eigenpath(lambda t: H1, grid)
        traj = evolve(lambda t: H1, psi, grid)
        c = adiabatic_coefficients(traj, path)
        assert np.abs(np.abs(c) ** 2 - expected).max() < 1e-10


class TestOverlap:
    def test_self(self, rng):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        assert overlap(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert overlap(np.array([1, 0]), np.array([0, 1])) == 0

    def test_global_phase_invariance(self, rng):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs(overlap(a, b)) == pytest.approx(abs(overlap(a * np.exp(0.7j), b)))
        assert fidelity(a, b) == pytest.approx(fidelity(a, b * np.exp(-1.2j)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap(np.array([1, 0]), np.array([1, 0, 0]))


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("shape", [(41,), (41, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy_on_nonuniform_grid(self, shape, dtype):
        rng = np.random.default_rng(17)
        x = np.cumsum(rng.uniform(0.01, 0.2, shape[0]))
        y = rng.standard_normal(shape)
        if dtype is complex:
            y = y + 1j * rng.standard_normal(shape)
        ref = scipy.integrate.cumulative_trapezoid(y, x, axis=0, initial=0)
        out = cumulative_trapezoid(y, x)
        assert out.shape == y.shape and out.dtype == ref.dtype
        assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()
