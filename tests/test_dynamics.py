import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from shortcut_forge import (
    DimensionMismatchError,
    EigenPath,
    NonFiniteError,
    StateTrajectory,
    adiabatic_populations,
    adiabatic_state,
    eigenpath,
    evolve,
    fidelity,
    overlap,
    step_unitary,
    trotter_baseline_error,
    trotter_cd_evolve,
)
from shortcut_forge.dynamics import (_MAGNUS4, Magnus4Walk, check_normalized, cumulative_trapezoid, stack_at,
                                     uniform_step)
from shortcut_forge.models import landau_zener, random_hermitian, random_hermitian_ramp

from conftest import SX, SY, SZ, cd_driven, stacked


class TestEvolve:
    def test_larmor_quarter_period(self):
        """Unit-frequency Larmor precession: |+x> reaches |-y> at t = pi/2.

        Oracle is the closed-form 2x2 exponential e^{-iHt} = diag(e^{it/2}, e^{-it/2})
        for H = -sz/2, checked at every grid time."""
        H = -0.5 * SZ
        plus_x = np.array([1, 1]) / np.sqrt(2)
        minus_y = np.array([1, -1j]) / np.sqrt(2)
        grid = np.linspace(0, np.pi / 2, 101)
        traj = evolve(stacked(lambda t: H), plus_x, grid)
        closed_form = np.stack([np.exp(1j * grid / 2), np.exp(-1j * grid / 2)], axis=1) / np.sqrt(2)
        assert np.abs(traj.states - closed_form).max() < 1e-12
        assert fidelity(minus_y, traj.final()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian(self):
        psi0 = np.array([0.6, 0.8j])
        traj = evolve(stacked(lambda t: np.zeros((2, 2))), psi0, np.linspace(0, 1, 11))
        assert np.abs(traj.states - psi0).max() < 1e-14

    def test_constant_matches_single_exponential(self, rng):
        H = random_hermitian(4, rng)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        traj = evolve(stacked(lambda t: H), psi0, np.linspace(0, 2.0, 101))
        direct = step_unitary(H, 2.0) @ psi0
        assert fidelity(direct, traj.final()) >= 1 - 1e-10

    def test_unitarity(self, lz):
        grid = np.linspace(0, 1, 501)
        psi0 = np.array([1.0, 0.0])
        traj = evolve(lz.hamiltonian, psi0, grid)
        assert np.abs(traj.norms() - 1).max() < 1e-10

    def test_fourth_order_convergence(self, lz):
        """Halving the step cuts the error against a fine reference by about
        16: the walk's O(h^4), on a 3-point grid split 16, 32 and 64 times."""
        psi0 = np.array([1.0, 0.0], dtype=complex)
        grid = np.linspace(0, 1, 3)
        ref = evolve(lz.hamiltonian, psi0, grid, steps_per_interval=2048).final()
        errs = []
        for steps in (16, 32, 64):
            psi = evolve(lz.hamiltonian, psi0, grid, steps_per_interval=steps).final()
            errs.append(np.linalg.norm(psi - ref))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(13.2 < r < 18.8 for r in ratios)

    def test_rejects_nonfinite(self):
        H_bad = stacked(lambda t: np.array([[np.nan, 0], [0, 1.0]]))
        with pytest.raises(ValueError):
            evolve(H_bad, np.array([1.0, 0.0]), np.linspace(0, 1, 3))

    def test_rejects_a_state_of_another_dimension_before_stepping(self):
        times = []
        H_of_t = lambda t: times.append(len(t)) or np.broadcast_to(SZ, (len(t), 2, 2))
        with pytest.raises(DimensionMismatchError, match=r"psi0 has shape \(3,\)"):
            evolve(H_of_t, np.ones(3) / np.sqrt(3), np.linspace(0, 1, 11))
        assert times == [1]

    @pytest.mark.parametrize("steps", [0, -1, 1.5, 2.0, True])
    def test_rejects_steps_per_interval_not_a_positive_int_before_stepping(self, steps):
        times = []
        H_of_t = lambda t: times.append(len(t)) or np.broadcast_to(SZ, (len(t), 2, 2))
        with pytest.raises(ValueError, match="steps_per_interval must be an int >= 1"):
            evolve(H_of_t, np.array([1.0, 0.0]), np.linspace(0, 1, 11), steps_per_interval=steps)
        assert times == []

    def test_split_grid_holds_only_the_returned_states(self):
        """The walk records the state at the grid times alone, so evolve's
        traced peak on a 3-point D = 8 grid is the same at 2048 steps per
        interval as at 64, within 10 % (the split grid's 4097 times are the
        rest); 4097 held states doubled it."""
        system = random_hermitian_ramp(8, 0)
        grid = np.linspace(0.0, 1.0, 3)
        psi0 = np.eye(8, dtype=complex)[0]
        peaks = []
        for steps in (64, 2048):
            tracemalloc.start()
            try:
                traj = evolve(system.hamiltonian, psi0, grid, steps_per_interval=steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert traj.states.shape == (3, 8)
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("dim", [6, 50])
    def test_memory_layout_of_psi0_changes_no_bit(self, dim):
        """A strided psi0, such as an eigenpath column, and its contiguous copy
        give the same trajectory bit for bit; BLAS sums the two layouts in
        different orders, which moved the last bits on these dimensions."""
        system = random_hermitian_ramp(dim, 1)
        grid = np.linspace(0.0, 1.0, 3)
        psi0 = eigenpath(system.hamiltonian, grid).vectors[0, :, 0]
        assert not psi0.flags.c_contiguous
        strided = evolve(system.hamiltonian, psi0, grid).states
        assert np.array_equal(strided, evolve(system.hamiltonian, psi0.copy(), grid).states)


def _push_in_chunks(walk, nodes, sizes):
    start = 0
    for n in sizes:
        walk.push(nodes[start:start + n])
        start += n
    assert start == len(nodes)
    return walk.trajectory().states


class TestMagnus4Walk:
    @pytest.mark.parametrize("n_t, degree", [(3, 2), (4, 3), (11, 3)])
    @pytest.mark.parametrize("dim, chunk", [(2, 64), (50, 1)])
    def test_polynomial_drive_of_one_operator_is_exact(self, rng, n_t, degree, dim, chunk):
        """For A(t) = f(t) B the commutator term vanishes, and the stencils
        integrate a polynomial f of degree 3 (2 on a 3-point grid) exactly,
        so every state is exp(-i F(t) B) psi0 with F the integral of f: by
        one batched eigh per chunk at D = 2 and by Lanczos steps at D = 50."""
        coeffs = [1.0, 2.0, -3.0, 0.5][:degree + 1]
        grid = np.linspace(0.0, 1.3, n_t)
        f = np.polynomial.Polynomial(coeffs)
        B = random_hermitian(dim, rng)
        psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi0 /= np.linalg.norm(psi0)
        nodes = f(grid)[:, None, None] * B
        sizes = [1] + [chunk] * ((n_t - 1) // chunk) + ([(n_t - 1) % chunk] if (n_t - 1) % chunk else [])
        states = _push_in_chunks(Magnus4Walk(psi0, grid), nodes, sizes)
        F = f.integ()(grid) - f.integ()(grid[0])
        exact = np.array([step_unitary(B, F_k) @ psi0 for F_k in F])
        assert np.abs(states - exact).max() < 1e-12

    @pytest.mark.parametrize("n_t", [3, 7])
    def test_one_time_operator_is_the_written_out_stencil(self, rng, n_t):
        """At D = 50, one time per push, each interval's H_eff comes from the
        held ring and work arrays; it equals sum_k w_k A_k + (i h / 12)
        [a0, A_i+1 - A_i] written out from the ``_MAGNUS4`` weights to 1e-13,
        on the first, the interior and the last intervals (3 points: the
        quadratic stencil, whose fourth ring slot has weight 0)."""
        grid = np.linspace(0.0, 0.6, n_t)
        h = grid[1] - grid[0]
        nodes = np.array([random_hermitian(50, rng) for _ in grid])
        walk = Magnus4Walk(np.eye(50)[0].astype(complex), grid)
        made = {}
        operator = walk._operator
        walk._operator = lambda i: made.setdefault(int(i[0]), operator(i).copy())
        _push_in_chunks(walk, nodes, [1] * n_t)
        assert sorted(made) == list(range(n_t - 1))
        for i, H_eff in made.items():
            assert np.abs(H_eff[0] - _written_out_operator(nodes, i, h)).max() <= 1e-13

    @pytest.mark.parametrize("dim, chunk", [(2, 6), (50, 1)])
    def test_an_overflowing_step_is_a_nonfinite_error_naming_its_interval(self, rng, dim, chunk):
        """A node of 1e200 first overflows the commutator product of the
        interval that ends on it. The walk raises NonFiniteError naming that
        interval, with no numpy warning (which the test run makes an error):
        by one batched eigh at D = 2 and by held one-time steps at D = 50."""
        grid = np.linspace(0.0, 6.0, 7)
        nodes = np.array([random_hermitian(dim, rng) for _ in grid])
        nodes[4] *= 1e200
        with pytest.raises(NonFiniteError, match=r"^the Magnus step between t = 3\.0 and t = 4\.0 is not finite$"):
            _push_in_chunks(Magnus4Walk(np.eye(dim)[0], grid), nodes, [1] + [chunk] * (6 // chunk))

    def test_chunk_boundaries_change_no_state(self, rng):
        """The ring of held points serves any chunking: pushing the grid points
        in uneven chunks gives the states of one chunk after the first."""
        grid = np.linspace(0.0, 1.0, 30)
        H0, H1 = random_hermitian(3, rng), random_hermitian(3, rng)
        nodes = H0 + np.sin(3 * grid)[:, None, None] * H1
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        whole = _push_in_chunks(Magnus4Walk(psi0, grid), nodes, [1, 29])
        uneven = _push_in_chunks(Magnus4Walk(psi0, grid), nodes, [1, 1, 1, 4, 1, 2, 9, 1, 10])
        assert np.abs(uneven - whole).max() < 1e-13

    @pytest.mark.parametrize("check", [lambda grid: Magnus4Walk(np.array([1.0, 0.0]), grid), uniform_step,
                                       lambda grid: evolve(stacked(lambda t: SZ), np.array([1.0, 0.0]), grid)],
                             ids=["walk", "uniform_step", "evolve"])
    @pytest.mark.parametrize("grid", [np.geomspace(0.1, 1.0, 11), np.linspace(0.0, 1.0, 2),
                                      np.linspace(1.0, 0.0, 11), np.r_[np.linspace(0.0, 1.0, 10), 1.2]])
    def test_rejects_a_grid_that_is_not_evenly_spaced(self, grid, check):
        with pytest.raises(ValueError, match="grid"):
            check(grid)

    def test_a_spacing_within_1e_9_relative_is_even(self):
        grid = np.linspace(0.0, 1.0, 11)
        grid[5] += 5e-11
        assert uniform_step(grid) == pytest.approx(0.1, rel=1e-15)

    def test_rejects_extra_points_and_an_early_trajectory(self):
        walk = Magnus4Walk(np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 5))
        walk.push(np.broadcast_to(SZ, (4, 2, 2)))      # the first two intervals read points 0 .. 3
        with pytest.raises(ValueError, match="stepped 2 of 4 intervals"):
            walk.trajectory()
        with pytest.raises(ValueError, match="takes 5 grid points, got 6"):
            walk.push(np.broadcast_to(SZ, (2, 2, 2)))
        with pytest.raises(DimensionMismatchError):
            walk.push(np.eye(3)[None])


class TestAdiabaticPopulations:
    def test_initial_eigenstate(self, lz):
        grid = np.linspace(0, 1, 201)
        path = eigenpath(lz.hamiltonian, grid)
        traj = evolve(lz.hamiltonian, path.vectors[0][:, 0], grid)
        pops = adiabatic_populations(traj, path)
        assert np.allclose(pops[0], [1.0, 0.0], atol=1e-12)

    def test_cd_driven_moduli_constant(self, lz):
        grid = np.linspace(0, 1, 1001)
        path = eigenpath(lz.hamiltonian, grid)
        H_tot = cd_driven(lz)
        psi0 = (path.vectors[0][:, 0] + path.vectors[0][:, 1]) / np.sqrt(2)
        traj = evolve(H_tot, psi0, grid, steps_per_interval=2)
        pops = adiabatic_populations(traj, path)
        assert np.abs(np.sqrt(pops) - np.sqrt(pops[0])).max() < 1e-6
        assert np.abs(pops.sum(axis=1) - 1).max() < 1e-8

    def test_sudden_quench_projection(self):
        """An instantaneous parameter jump redistributes the populations
        exactly by the overlap of old and new eigenbases."""
        H0 = 2.0 * SZ
        H1 = 2.0 * SX + 0.5 * SZ
        E0, V0 = np.linalg.eigh(H0)
        E1, V1 = np.linalg.eigh(H1)
        psi = V0[:, 0]
        expected = np.abs(V1.conj().T @ psi) ** 2
        grid = np.linspace(0, 0.5, 101)
        path = eigenpath(stacked(lambda t: H1), grid)
        traj = evolve(stacked(lambda t: H1), psi, grid)
        assert np.abs(adiabatic_populations(traj, path) - expected).max() < 1e-10

    def test_per_time_overlaps_without_a_path_copy(self):
        """On a D = 64, 401-point path the populations are the per-time
        |<n(t_i)|psi(t_i)>|^2, and the call allocates less than half of the
        path's vectors: the (n_t, D, D) path is never copied."""
        rng = np.random.default_rng(7)
        n_t, D = 401, 64
        grid = np.linspace(0, 1, n_t)
        vectors = rng.standard_normal((n_t, D, D)) + 1j * rng.standard_normal((n_t, D, D))
        path = EigenPath(grid=grid, energies=rng.standard_normal((n_t, D)), vectors=vectors)
        traj = StateTrajectory(grid=grid, states=rng.standard_normal((n_t, D)) + 1j * rng.standard_normal((n_t, D)))
        tracemalloc.start()
        try:
            pops = adiabatic_populations(traj, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = np.abs([[np.vdot(vectors[i, :, n], traj.states[i]) for n in range(D)] for i in range(n_t)]) ** 2
        assert np.abs(pops - expected).max() <= 1e-12 * expected.max()
        assert peak < 0.5 * vectors.nbytes

    def test_rejects_a_trajectory_on_another_grid(self, lz):
        grid = np.linspace(0, 1, 11)
        path = eigenpath(lz.hamiltonian, grid)
        traj = StateTrajectory(grid=grid + 1e-6, states=path.vectors[:, :, 0])
        with pytest.raises(ValueError, match="not aligned"):
            adiabatic_populations(traj, path)


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


def _written_out_operator(nodes, i, h):
    """H_eff of interval i of an evenly spaced grid of spacing h with the
    operators ``nodes`` at its points, written out from ``_MAGNUS4``:
    sum_k w_k A_k + (i h / 12) [a0, A_i+1 - A_i] with a0 = sum_k m_k A_k."""
    n_t = len(nodes)
    s = min(n_t, 4)
    row, lo = (0 if i == 0 else 2 if i == n_t - 2 else 1), min(max(i - 1, 0), n_t - s)
    W, M = _MAGNUS4[s]
    stencil = nodes[lo:lo + s]
    a0 = np.einsum("k,kab->ab", M[row], stencil)
    dA = nodes[i + 1] - nodes[i]
    return np.einsum("k,kab->ab", W[row], stencil) + 1j * h / 12 * (a0 @ dA - dA @ a0)


def _magnus_loop(H_of_t, psi0, grid, per=1):
    """The per-step reference of ``evolve``: on the grid split ``per`` times,
    one ``step_unitary`` of each interval's written-out Magnus operator; the
    states at the grid times."""
    fine = np.linspace(grid[0], grid[-1], (len(grid) - 1) * per + 1)
    nodes, h = H_of_t(fine), fine[1] - fine[0]
    psi, states = psi0, [psi0]
    for i in range(len(fine) - 1):
        psi = step_unitary(_written_out_operator(nodes, i, h), h) @ psi
        states.append(psi)
    return np.array(states[::per])


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of every array handed to np.linalg.eigh, in call order."""
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


class TestTimeChunks:
    @pytest.mark.parametrize("dim", [8, 64])
    def test_chunk_edges_off_the_grid_match_the_loop(self, dim):
        """49 intervals of 3 steps: at D = 8 the 148 points of the split grid
        come in chunks of 1 + 64 + 64 + 19, whose edges fall between grid
        points; D = 64 chunks hold one point each and step by Lanczos. The
        states match a per-step loop."""
        system = random_hermitian_ramp(dim, 2)
        grid = np.linspace(0.0, 1.0, 50)
        psi0 = np.linalg.eigh(system.hamiltonian(0.0))[1][:, 0]
        traj = evolve(system.hamiltonian, psi0, grid, steps_per_interval=3)
        assert np.abs(traj.states - _magnus_loop(system.hamiltonian, psi0, grid, per=3)).max() <= 1e-12

    def test_unstacked_callable_is_rejected_naming_the_contract(self):
        with pytest.raises(ValueError, match=r"must map 1 times to an \(1, D, D\) stack, got shape \(2, 2\)"):
            evolve(lambda t: SZ, np.array([1.0, 0.0]), np.linspace(0, 1, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_stack_is_rejected_naming_its_first_time(self, bad):
        """The one stack gate names the first time whose matrix holds a NaN or
        an infinity; evolve and every other kernel read their stacks through it."""
        def H_of_t(t):
            H = np.array(np.broadcast_to(SZ, (len(t), 2, 2)), dtype=complex)
            H[t > 0.4, 0, 0] = bad
            return H

        with pytest.raises(NonFiniteError, match=r"non-finite entries at t = 0\.5$"):
            stack_at(H_of_t, np.linspace(0.0, 1.0, 5))
        with pytest.raises(NonFiniteError, match=r"non-finite entries at t = 0\.5$"):
            evolve(H_of_t, np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 5))

    def test_step_unitary_rejects_a_nonfinite_matrix(self):
        with pytest.raises(NonFiniteError):
            step_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)


class TestCheckNormalized:
    """One normalization check serves the walk, the digitized product, the
    baseline and the adiabatic reference state."""

    def test_accepts_a_unit_vector_within_1e_10(self):
        check_normalized(np.array([0.6, 0.8j]) * (1 + 9e-11), "initial state")

    @pytest.mark.parametrize("psi", [np.array([0.6, 0.8]) * (1 + 2e-10), np.array([np.nan, 0.0]), np.zeros(2)])
    def test_rejects_naming_what(self, psi):
        with pytest.raises(ValueError, match="^initial coefficients must be normalized$"):
            check_normalized(psi, "initial coefficients")

    @pytest.mark.parametrize("entry, message", [
        (lambda psi: Magnus4Walk(psi, np.linspace(0.0, 1.0, 3)), "initial state"),
        (lambda psi: trotter_cd_evolve(stacked(lambda t: SZ), stacked(lambda t: SX), 4, 1.0, psi),
         "initial state"),
        (lambda psi: trotter_baseline_error(SZ, SX, 1.0, [4, 8, 16, 32], psi), "initial state"),
        (lambda psi: adiabatic_state(eigenpath(stacked(lambda t: SZ), np.linspace(0.0, 1.0, 3)), psi),
         "initial coefficients"),
    ], ids=["Magnus4Walk", "trotter_cd_evolve", "trotter_baseline_error", "adiabatic_state"])
    @pytest.mark.parametrize("psi", [np.array([1.0, 1.0]), np.array([np.nan, 0.0])], ids=["long", "nan"])
    def test_every_entry_point_rejects(self, entry, message, psi):
        with pytest.raises(ValueError, match=f"^{message} must be normalized$"):
            entry(psi)


class TestLanczosStep:
    """Chunks of one time (D >= 46) step by Lanczos; each case matches the
    per-step ``step_unitary`` loop of the written-out Magnus operators within
    1e-12."""

    def test_eigenvector_breaks_down_at_one_vector(self, eigh_shapes):
        """psi0 = e_0 is decoupled from the rest of every H(t), so each step's
        Krylov basis ends at m = 1: beta_1 is 0, or about 1e-31 after the
        second orthogonalization pass where |psi| rounds off 1."""
        system = random_hermitian_ramp(64, 3)
        decoupled = np.ones((64, 64))
        decoupled[0, 1:] = decoupled[1:, 0] = 0.0
        H_of_t = lambda t: system.hamiltonian(t) * decoupled
        grid = np.linspace(0.0, 1.0, 41)
        psi0 = np.eye(64, dtype=complex)[0]
        traj = evolve(H_of_t, psi0, grid)
        assert eigh_shapes == [(1, 1)] * 40
        assert np.abs(traj.states - _magnus_loop(H_of_t, psi0, grid)).max() <= 1e-12

    @pytest.mark.parametrize("points, all_fall_back", [(5, True), (21, False)])
    def test_stiff_coarse_grid(self, points, all_fall_back, eigh_shapes):
        """h ||H_eff||_F is 16-23 on 5 points, past what D/2 = 32 Lanczos
        vectors can bound, so every step falls back to the eigendecomposition;
        on 21 points (3.2-4.6) some steps need 30-32 vectors and the rest fall
        back."""
        system = random_hermitian_ramp(64, 0)
        grid = np.linspace(0.0, 1.0, points)
        psi0 = np.linalg.eigh(system.hamiltonian(0.0))[1][:, 0]
        eigh_shapes.clear()
        traj = evolve(system.hamiltonian, psi0, grid)
        fallback = eigh_shapes.count((1, 64, 64))
        lanczos = [shape[0] for shape in eigh_shapes if len(shape) == 2]
        assert fallback + len(lanczos) == points - 1
        if all_fall_back:
            assert fallback == points - 1
        else:
            assert fallback > 0 and min(lanczos) >= 24
        assert np.abs(traj.states - _magnus_loop(system.hamiltonian, psi0, grid)).max() <= 1e-12

    def test_thousand_steps_keep_the_norm(self):
        system = random_hermitian_ramp(64, 1)
        grid = np.linspace(0.0, 1.0, 1001)
        psi0 = np.linalg.eigh(system.hamiltonian(0.0))[1][:, 0]
        traj = evolve(system.hamiltonian, psi0, grid)
        assert np.abs(traj.norms() - 1).max() <= 1e-13
        assert np.abs(traj.states - _magnus_loop(system.hamiltonian, psi0, grid)).max() <= 1e-12
