import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from shortcut_forge import (
    loop_geometric_phase,
    DegeneracyError,
    adiabatic_gauge_potential,
    adiabatic_state,
    adiabaticity_metric,
    counterdiabatic_term,
    eigenpath,
    evolve,
    exact_cd,
    geometric_integrand,
    quantum_geometric_tensor,
)
from shortcut_forge.errors import GridTooCoarseError
from shortcut_forge.models import landau_zener, random_hermitian, random_hermitian_ramp
from shortcut_forge.spectral import _align_frames

from conftest import SX, SY, SZ, discrete_berry_phase, lz_cd_oracle


class TestEigenpath:
    def test_constant_sz(self):
        grid = np.linspace(0, 1, 11)
        path = eigenpath(lambda t: SZ, grid)
        assert np.allclose(path.energies, [[-1.0, 1.0]] * 11)
        assert np.abs(path.vectors - path.vectors[0]).max() < 1e-12

    def test_lz_gap_closed_form(self, lz):
        grid = np.linspace(0, 1, 201)
        path = eigenpath(lz.hamiltonian, grid)
        lams = np.array([lz.schedule(t)[0] for t in grid])
        gaps = path.energies[:, 1] - path.energies[:, 0]
        assert np.allclose(gaps, 2 * np.sqrt(lams**2 + 1), atol=1e-12)
        assert gaps.min() == pytest.approx(2.0, abs=1e-3)

    def test_smooth_gauge(self, lz):
        grid = np.linspace(0, 1, 101)
        path = eigenpath(lz.hamiltonian, grid)
        for n in range(2):
            ov = np.einsum("ti,ti->t", path.vectors[:-1, :, n].conj(), path.vectors[1:, :, n])
            assert (ov.real > 0).all()

    def test_eigen_equation(self, lz):
        grid = np.linspace(0, 1, 51)
        path = eigenpath(lz.hamiltonian, grid)
        for i in (0, 25, 50):
            H = lz.hamiltonian(grid[i])
            for n in range(2):
                res = H @ path.vectors[i, :, n] - path.energies[i, n] * path.vectors[i, :, n]
                assert np.linalg.norm(res) < 1e-9 * np.abs(path.energies[i]).max()

    def test_offdiagonal_derivative_identity(self):
        """<n|d_t m> by finite difference vs <n|dH|m>/(E_m - E_n) on a random
        3-level path (the adiabatic-condition identity)."""
        sys3 = random_hermitian_ramp(3, seed=5, duration=1.0)
        grid = np.linspace(0, 1, 4001)
        path = eigenpath(sys3.hamiltonian, grid)
        i = 2000
        t = grid[i]
        dt = grid[1] - grid[0]
        E, V = path.energies[i], path.vectors[i]
        dV = (path.vectors[i + 1] - path.vectors[i - 1]) / (2 * dt)
        dH = sys3.dhamiltonian(t)
        for n in range(3):
            for m in range(3):
                if m == n:
                    continue
                fd = np.vdot(V[:, n], dV[:, m])
                formula = np.vdot(V[:, n], dH @ V[:, m]) / (E[m] - E[n])
                assert abs(fd - formula) < 1e-6


def _lsap_align(V_prev, E_cur, V_cur):
    """Reference alignment: the assignment solver's maximal sum of squared
    overlaps, with phases from per-mode inner products."""
    O = V_prev.conj().T @ V_cur
    row, col = linear_sum_assignment(-np.abs(O) ** 2)
    perm = np.empty_like(col)
    perm[row] = col
    V = V_cur[:, perm].copy()
    ov = np.array([np.vdot(V_prev[:, n], V[:, n]) for n in range(V.shape[1])])
    V *= np.exp(-1j * np.angle(ov))[None, :]
    return E_cur[perm], V, float(np.abs(ov).min())


def _rotation(D, i, j, angle):
    R = np.eye(D, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return R


@pytest.fixture
def solver_calls(monkeypatch):
    """Records every call of the assignment solver made through scipy.optimize."""
    calls = []

    def counted(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    return calls


class TestAlignFrames:
    @pytest.mark.parametrize("D", [2, 8, 64])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_unique_match_equals_assignment_solver(self, D, scrambled, solver_calls):
        rng = np.random.default_rng(D)
        V_prev = np.linalg.eigh(random_hermitian(D, rng))[1]
        # the next frame: eigenvectors of a nearby Hamiltonian (smallest
        # best-partner overlap 0.66 at D = 64, still above 1/2)
        H = V_prev @ np.diag(np.arange(D, dtype=float)) @ V_prev.conj().T
        E_cur, V_cur = np.linalg.eigh(H + 0.2 * random_hermitian(D, rng))
        if scrambled:
            p = rng.permutation(D)
            E_cur, V_cur = E_cur[p], V_cur[:, p] * np.exp(2j * np.pi * rng.random(D))
        E, V, ov = _align_frames(V_prev, E_cur, V_cur)
        E_ref, V_ref, ov_ref = _lsap_align(V_prev, E_cur, V_cur)
        assert solver_calls == []
        assert np.array_equal(E, E_ref)
        assert np.abs(V - V_ref).max() <= 1e-15
        assert abs(ov - ov_ref) <= 1e-15

    def test_ambiguous_frame_takes_the_solver(self, solver_calls):
        """Modes 0 and 1 rotated by ~47 degrees with mode 1 leaking into mode 2:
        no overlap of mode 0 exceeds 1/2, so the row-wise maxima do not decide."""
        rng = np.random.default_rng(3)
        V_prev = np.linalg.eigh(random_hermitian(4, rng))[1]
        V_cur = V_prev @ _rotation(4, 0, 1, np.pi / 4 + 0.02) @ _rotation(4, 1, 2, 0.3)
        E_cur = np.arange(4.0)
        P = np.abs(V_prev.conj().T @ V_cur) ** 2
        assert P[0].max() < 0.5
        E, V, ov = _align_frames(V_prev, E_cur, V_cur)
        E_ref, V_ref, ov_ref = _lsap_align(V_prev, E_cur, V_cur)
        assert solver_calls == [(4, 4)]
        assert np.array_equal(E, E_ref)
        assert np.array_equal(E, [1.0, 0.0, 2.0, 3.0])
        assert np.abs(V - V_ref).max() <= 1e-15
        assert abs(ov - ov_ref) <= 1e-15


class TestEigenpathRefinement:
    def test_bisection_splits_coarse_steps(self):
        """The field turns by pi/2 per grid step (mode overlap cos(pi/4) < 0.9);
        each step is bisected once and the half steps (overlap cos(pi/8)) pass."""
        calls = []

        def H(t):
            calls.append(t)
            return np.cos(np.pi * t) * SZ + np.sin(np.pi * t) * SX

        path = eigenpath(H, np.array([0.0, 0.5, 1.0]))
        assert calls == [0.0, 0.5, 0.25, 0.5, 1.0, 0.75, 1.0]
        assert np.allclose(path.energies, [[-1.0, 1.0]] * 3)

    def test_discontinuity_exhausts_refinement(self):
        """A jump from sz to sx at t = 1/3 leaves overlap 1/sqrt(2) at every
        level; the error names the last dyadic interval around the jump."""
        with pytest.raises(GridTooCoarseError) as err:
            eigenpath(lambda t: SZ if t < 1 / 3 else SX, np.array([0.0, 1.0]))
        assert str(err.value) == (
            "mode overlap 0.707 < 0.9 between t = 0.333251953125 and 0.33349609375 "
            "after 12 refinement levels"
        )


class TestExactCD:
    def test_static_hamiltonian(self):
        assert np.abs(counterdiabatic_term(SZ + 0.3 * SX, np.zeros((2, 2)))).max() == 0.0

    def test_lz_closed_form_at_crossing(self, lz):
        # delta = 1, rate = 10 at lambda = 0 (t = 0.5): CD = -(10/2) sy / (0+1) -> -5 sy... scaled
        cd = exact_cd(lz.hamiltonian, 0.5, lz.dhamiltonian)
        assert np.allclose(cd, lz_cd_oracle(0.0, 10.0), atol=1e-12)

    def test_unit_rate_convention(self):
        # lam = 0, delta = 1, rate = 1: CD = -(1/2) sy
        H_of_t = lambda t: t * SZ + SX
        cd = exact_cd(H_of_t, 0.0, lambda t: SZ)
        assert np.allclose(cd, -0.5 * SY, atol=1e-12)

    def test_zero_diagonal_in_eigenbasis(self):
        sys3 = random_hermitian_ramp(3, seed=11)
        H, dH = sys3.hamiltonian(0.4), sys3.dhamiltonian(0.4)
        cd = counterdiabatic_term(H, dH)
        E, V = np.linalg.eigh(H)
        diag = np.abs(np.diagonal(V.conj().T @ cd @ V))
        assert diag.max() < 1e-12

    def test_matches_fd_eigenbasis_construction(self):
        """Independent oracle: assemble i hbar sum |n><n|d_t m><m| from
        finite-difference mode derivatives on a random 4-level path."""
        sys4 = random_hermitian_ramp(4, seed=2)
        grid = np.linspace(0, 1, 4001)
        path = eigenpath(sys4.hamiltonian, grid)
        i = 1700
        dt = grid[1] - grid[0]
        V = path.vectors[i]
        dV = (path.vectors[i + 1] - path.vectors[i - 1]) / (2 * dt)
        oracle = np.zeros((4, 4), dtype=complex)
        for n in range(4):
            for m in range(4):
                if m == n:
                    continue
                oracle += 1j * np.outer(V[:, n], V[:, m].conj()) * np.vdot(V[:, n], dV[:, m])
        cd = exact_cd(sys4.hamiltonian, grid[i], sys4.dhamiltonian)
        assert np.abs(cd - oracle).max() < 1e-6

    def test_population_freezing_any_speed(self, lz):
        """Driving with H + H_cd keeps adiabatic-frame populations constant
        for arbitrary sweep speed."""
        for T in (0.05, 5.0):
            sys_t = landau_zener(duration=T)
            grid = np.linspace(0, T, 3001)
            path = eigenpath(sys_t.hamiltonian, grid)
            H_tot = lambda t: sys_t.hamiltonian(t) + exact_cd(sys_t.hamiltonian, t, sys_t.dhamiltonian)
            psi0 = (path.vectors[0, :, 0] + 1j * path.vectors[0, :, 1]) / np.sqrt(2)
            traj = evolve(H_tot, psi0, grid, steps_per_interval=4)
            pops = np.abs(np.einsum("tdn,td->tn", path.vectors.conj(), traj.states)) ** 2
            assert np.abs(pops - pops[0]).max() < 1e-7

    def test_symmetry_protected_crossing_tolerated(self):
        # H = lam * sz with dH = sz: levels cross at lam = 0 but the drive
        # never couples them, so the guarded element is zero, not an error
        cd = counterdiabatic_term(0.0 * SZ, SZ)
        assert np.abs(cd).max() == 0.0

    def test_coupled_degeneracy_raises(self):
        with pytest.raises(DegeneracyError):
            counterdiabatic_term(np.zeros((2, 2)), SX)


class TestAGP:
    def test_lz_closed_form(self, lz):
        A = adiabatic_gauge_potential(lz.H_of_lambda, np.array([2.0]), dH_dlambda=lambda lam: SZ)
        assert np.allclose(A, -1.0 / (2 * (4 + 1)) * SY, atol=1e-12)

    def test_cd_equals_rate_times_agp(self, lz):
        t = 0.3
        lam = lz.schedule(t)
        rate = lz.schedule.rate(t)[0]
        A = adiabatic_gauge_potential(lz.H_of_lambda, lam, dH_dlambda=lambda l: SZ)
        cd = exact_cd(lz.hamiltonian, t, lz.dhamiltonian)
        assert np.abs(cd - rate * A).max() < 1e-10

    def test_parameter_independent_vanishes(self):
        A = adiabatic_gauge_potential(lambda lam: SZ + 0.5 * SX, np.array([1.0]))
        assert np.abs(A).max() < 1e-8


class TestAdiabaticState:
    def test_constant_hamiltonian_phase(self):
        grid = np.linspace(0, 2.0, 801)
        path = eigenpath(lambda t: SZ, grid)
        ad = adiabatic_state(path, np.array([1.0, 0.0]))
        expect = np.exp(1j * grid)[:, None] * path.vectors[:, :, 0]  # E_0 = -1
        fid = np.abs(np.einsum("ti,ti->t", expect.conj(), ad.trajectory.states))
        assert (1 - fid).max() < 1e-12

    def test_populations_frozen(self, lz):
        grid = np.linspace(0, 1, 401)
        path = eigenpath(lz.hamiltonian, grid)
        c0 = np.array([0.6, 0.8])
        ad = adiabatic_state(path, c0)
        pops = np.abs(np.einsum("tdn,td->tn", path.vectors.conj(), ad.trajectory.states)) ** 2
        assert np.abs(pops - c0**2).max() < 1e-10

    def test_geometric_integrand_pure_imaginary(self):
        # the maximal-overlap gauge parallel-transports the frame, so the
        # connection stays purely imaginary and in fact vanishingly small
        def H(t):
            theta, phi = 0.8, 2 * np.pi * t
            n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
            return n[0] * SX + n[1] * SY + n[2] * SZ

        grid = np.linspace(0, 1, 2001)
        path = eigenpath(H, grid)
        g = geometric_integrand(path, 0)
        assert np.abs(g.real).max() < 1e-10
        assert np.abs(g.imag).max() < 1e-10

    def test_berry_phase_half_solid_angle(self):
        """Closed conical loop on the Bloch sphere: the loop holonomy matches
        the discrete line-integral oracle and half the solid angle; the
        adiabatic state carries the same phase physically."""
        theta = 0.8

        def H(t):
            phi = 2 * np.pi * t
            n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
            return n[0] * SX + n[1] * SY + n[2] * SZ

        grid = np.linspace(0, 1, 4001)
        path = eigenpath(H, grid)
        gamma = loop_geometric_phase(path, 1)                 # aligned (upper) state
        solid_angle = 2 * np.pi * (1 - np.cos(theta))
        oracle = discrete_berry_phase(path.vectors[:, :, 1])
        assert gamma == pytest.approx(oracle, abs=1e-9)
        assert gamma == pytest.approx(-solid_angle / 2, abs=1e-4)
        # gauge-invariant check through the state itself: remove the dynamical
        # phase from <Psi_ad(0)|Psi_ad(T)> and the Berry phase remains
        ad = adiabatic_state(path, np.array([0.0, 1.0]))
        ov = np.vdot(ad.trajectory.states[0], ad.trajectory.states[-1])
        gamma_state = np.angle(ov * np.exp(1j * ad.dynamical_phases[-1, 1]))
        assert gamma_state == pytest.approx(gamma, abs=1e-6)

    def test_geometric_phase_reparameterization_invariant(self):
        """Same Bloch loop on two clocks: dynamical phases differ, the loop
        geometric phase does not."""
        def H_factory(T):
            def H(t):
                phi = 2 * np.pi * t / T
                n = np.array([np.sin(0.8) * np.cos(phi), np.sin(0.8) * np.sin(phi), np.cos(0.8)])
                return n[0] * SX + n[1] * SY + n[2] * SZ
            return H

        geos, dyns = [], []
        for T in (1.0, 2.0):
            grid = np.linspace(0, T, 4001)
            path = eigenpath(H_factory(T), grid)
            geos.append(loop_geometric_phase(path, 0))
            ad = adiabatic_state(path, np.array([1.0, 0.0]))
            dyns.append(ad.dynamical_phases[-1, 0])
        assert abs(geos[0] - geos[1]) < 1e-8
        assert abs(dyns[0] - dyns[1]) > 0.1


class TestAdiabaticityMetric:
    def test_static(self):
        assert adiabaticity_metric(lambda t: SZ, 0.1, 0, 1, dH_of_t=lambda t: np.zeros((2, 2))) == 0.0

    def test_lz_value(self, lz):
        # at lambda = 0: |<0|dH|1>| = rate, gap = 2 -> rate/4 = 2.5 for rate 10
        val = adiabaticity_metric(lz.hamiltonian, 0.5, 0, 1, dH_of_t=lz.dhamiltonian)
        assert val == pytest.approx(2.5, abs=1e-9)

    def test_unit_rate_value(self):
        H_of_t = lambda t: t * SZ + SX
        val = adiabaticity_metric(H_of_t, 0.0, 0, 1, dH_of_t=lambda t: SZ)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self, lz):
        a = adiabaticity_metric(lz.hamiltonian, 0.3, 0, 1, dH_of_t=lz.dhamiltonian)
        b = adiabaticity_metric(lz.hamiltonian, 0.3, 1, 0, dH_of_t=lz.dhamiltonian)
        assert a == pytest.approx(b, rel=1e-12)


class TestQuantumGeometricTensor:
    def test_parameter_independent(self):
        g = quantum_geometric_tensor(lambda lam: SZ + 0.2 * SX, np.array([0.7]))
        assert np.abs(g).max() < 1e-10

    def test_two_level_closed_form(self):
        delta = 1.0
        H = lambda lam: lam[0] * SZ + delta * SX
        for lam in (-2.0, 0.0, 1.5):
            g = quantum_geometric_tensor(H, np.array([lam]), n=0, dH_dlambda=[lambda l: SZ])
            expect = delta**2 / (4 * (lam**2 + delta**2) ** 2)
            assert g[0, 0] == pytest.approx(expect, rel=1e-9)

    def test_positive_semidefinite(self):
        def H(lam):
            return lam[0] * SZ + lam[1] * SX + 0.5 * SY

        g = quantum_geometric_tensor(H, np.array([0.3, 0.9]), n=0)
        assert np.linalg.eigvalsh(g).min() >= -1e-12
