import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from shortcut_forge import (
    loop_geometric_phase,
    DegeneracyError,
    adiabatic_populations,
    adiabatic_state,
    adiabaticity_metric,
    cd_walk,
    counterdiabatic_term,
    eigenpath,
    evolve,
    geometric_integrand,
    quantum_geometric_tensor,
)
from shortcut_forge.errors import DimensionMismatchError, GridTooCoarseError
from shortcut_forge.dynamics import STACK_BYTES, sample
from shortcut_forge.models import DrivenSystem, landau_zener, random_hermitian, random_hermitian_ramp
from shortcut_forge.schedule import Schedule
from shortcut_forge import spectral
from shortcut_forge.agp import frame_krylov_cd, variational_cd
from shortcut_forge.spectral import MAX_REFINE, OVERLAP_MIN, _align_frames, _initial_gauge, discrete_connection

from conftest import SX, SY, SZ, cd_driven, discrete_berry_phase, lz_cd_oracle, stacked


class TestEigenpath:
    def test_constant_sz(self):
        grid = np.linspace(0, 1, 11)
        path = eigenpath(stacked(lambda t: SZ), grid)
        assert np.allclose(path.energies, [[-1.0, 1.0]] * 11)
        assert np.abs(path.vectors - path.vectors[0]).max() < 1e-12

    def test_lz_gap_closed_form(self, lz):
        grid = np.linspace(0, 1, 201)
        path = eigenpath(lz.hamiltonian, grid)
        lams = np.array([lz.schedule(t) for t in grid])
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


def _ambiguous_frames():
    """The frame path V(t) = V0 R01(t (pi/4 + 0.02)) R12(0.3 t). From V(0) to
    V(1) modes 0 and 1 turn by ~47 degrees and mode 1 leaks into mode 2: no
    overlap of mode 0 exceeds 1/2, so the row-wise maxima do not decide."""
    V0 = np.linalg.eigh(random_hermitian(4, np.random.default_rng(3)))[1]
    return lambda t: V0 @ _rotation(4, 0, 1, t * (np.pi / 4 + 0.02)) @ _rotation(4, 1, 2, 0.3 * t)


class TestAlignFrames:
    @pytest.mark.parametrize("D", [2, 8, 64])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_unique_match_equals_assignment_solver(self, D, scrambled):
        rng = np.random.default_rng(D)
        V_prev = np.linalg.eigh(random_hermitian(D, rng))[1]
        # the next frame: eigenvectors of a nearby Hamiltonian (smallest
        # best-partner overlap 0.66 at D = 64, still above 1/2)
        H = V_prev @ np.diag(np.arange(D, dtype=float)) @ V_prev.conj().T
        E_cur, V_cur = np.linalg.eigh(H + 0.2 * random_hermitian(D, rng))
        if scrambled:
            p = rng.permutation(D)
            E_cur, V_cur = E_cur[p], V_cur[:, p] * np.exp(2j * np.pi * rng.random(D))
        E, V, size, rank = _align_frames(V_prev, E_cur, V_cur)
        E_ref, V_ref, ov_ref = _lsap_align(V_prev, E_cur, V_cur)
        assert np.array_equal(E, E_ref) and np.array_equal(E_cur[rank], E_ref)
        assert np.abs(V - V_ref).max() <= 1e-15
        assert abs(size.min() - ov_ref) <= 1e-15

    def test_ambiguous_frame_fails_the_overlap_test(self):
        """A row maximum of |overlap|^2 below 1/2 caps that mode's overlap at
        1/sqrt(2) < OVERLAP_MIN, whatever the row-wise argmax matched."""
        frame = _ambiguous_frames()
        V_prev, V_cur = frame(0.0), frame(1.0)
        P = np.abs(V_prev.conj().T @ V_cur) ** 2
        assert P[0].max() < 0.5
        _, _, size, _ = _align_frames(V_prev, np.arange(4.0), V_cur)
        assert size.min() <= 1 / np.sqrt(2) < OVERLAP_MIN


class TestEigenpathRefinement:
    def test_ambiguous_step_is_bisected(self):
        """eigenpath over the ambiguous step [0, 1] bisects it and ends where
        the assignment solver, chained over eight sub-steps, ends."""
        frame = _ambiguous_frames()
        levels = np.diag(np.arange(4.0))
        H = lambda t: np.array([frame(s) @ levels @ frame(s).conj().T for s in t])
        calls = []
        path = eigenpath(lambda t: calls.append(len(t)) or H(t), np.array([0.0, 1.0]))
        assert len(calls) > 2                       # midpoints were evaluated
        E_ref, V_ref = path.energies[0], path.vectors[0]
        for t in np.linspace(0, 1, 9)[1:]:
            E, V = np.linalg.eigh(H([t]))
            E_ref, V_ref, ov = _lsap_align(V_ref, E[0], V[0])
            assert ov > OVERLAP_MIN
        assert np.array_equal(path.energies[1], E_ref)
        assert np.abs(E_ref - np.arange(4.0)).max() < 1e-12     # labels kept: no swap of modes 0 and 1
        assert np.abs(path.vectors[1] - V_ref).max() <= 1e-12

    def test_bisection_splits_coarse_steps(self):
        """The field turns by pi/2 per grid step (mode overlap cos(pi/4) < 0.9);
        each step is bisected once and the half steps (overlap cos(pi/8)) pass.
        The grid is evaluated in time chunks, then only the failing midpoints."""
        calls = []

        def H(t):
            calls.append(list(t))
            return np.cos(np.pi * t)[:, None, None] * SZ + np.sin(np.pi * t)[:, None, None] * SX

        path = eigenpath(H, np.array([0.0, 0.5, 1.0]))
        assert calls == [[0.0], [0.5, 1.0], [0.25], [0.75]]
        assert np.allclose(path.energies, [[-1.0, 1.0]] * 3)

    def test_discontinuity_exhausts_refinement(self):
        """A jump from sz to sx at t = 1/3 leaves overlap 1/sqrt(2) at every
        level; the error names the last dyadic interval around the jump."""
        with pytest.raises(GridTooCoarseError) as err:
            eigenpath(stacked(lambda t: SZ if t < 1 / 3 else SX), np.array([0.0, 1.0]))
        assert str(err.value) == (
            "mode overlap 0.707 < 0.9 between t = 0.333251953125 and 0.33349609375 "
            "after 12 refinement levels"
        )

    @pytest.mark.parametrize("modes", [None, [0]])
    def test_a_rank_change_it_cannot_resolve_raises(self, modes):
        """Levels that cross while their eigenvectors turn, H = (t - 1/2) n(t).sigma
        with n(t) = (sin t, 0, cos t), change energy rank with an overlap short
        of 1 on every refinement: eigh's frame of H(1/2) = 0 is the identity,
        which the turning vectors beside it overlap by about cos(1/4). A grid
        error naming the mode and its overlap, not a silent diabatic path."""
        def H(t):
            t = np.asarray(t, dtype=float)[:, None, None]
            return (t - 0.5) * (np.cos(t) * SZ + np.sin(t) * SX)

        with pytest.raises(GridTooCoarseError) as err:
            eigenpath(H, np.linspace(0.0, 1.0, 4), modes=modes)
        assert str(err.value) == (
            "mode 0 changes energy rank with overlap 0.968902354015668 between t = 0.5 and "
            "0.5000813802083333 after 12 refinement levels"
        )


def _ground_and_turning_pair(jump: bool):
    """D = 3: the ground mode is e_0 at energy -5 throughout; modes 1 and 2
    are those of cos(pi t) sz + sin(pi t) sx on (e_1, e_2), or of sz before
    t = 1/3 and sx after it (``jump``). Only modes 1 and 2 turn, so a path
    that keeps mode 0 alone drops every mode the overlap gate fails on."""
    def H(t):
        t = np.asarray(t, dtype=float)
        if jump:
            block = np.where((t < 1 / 3)[:, None, None], SZ, SX)
        else:
            block = np.cos(np.pi * t)[:, None, None] * SZ + np.sin(np.pi * t)[:, None, None] * SX
        out = np.zeros((len(t), 3, 3), dtype=complex)
        out[:, 0, 0] = -5.0
        out[:, 1:, 1:] = block
        return out

    return H


class TestKeptModes:
    """A path that keeps some modes is the full path's energies and columns."""

    @pytest.mark.parametrize("dim", [2, 16])
    @pytest.mark.parametrize("modes", [[0], [3, 1]])
    def test_kept_columns_are_the_full_paths_bit_for_bit(self, dim, modes):
        system = landau_zener() if dim == 2 else random_hermitian_ramp(16, seed=2)
        modes = [m for m in modes if m < dim]
        grid = np.linspace(0, 1, 301)
        full = eigenpath(system.hamiltonian, grid)
        kept = eigenpath(system.hamiltonian, grid, modes=modes)
        assert kept.vectors.shape == (301, dim, len(modes))
        assert kept.modes.tolist() == sorted(modes)
        assert np.array_equal(kept.energies, full.energies)
        assert np.array_equal(kept.vectors, full.vectors[:, :, sorted(modes)])
        for n in modes:
            assert np.array_equal(geometric_integrand(kept, n), geometric_integrand(full, n))

    def test_a_dropped_mode_is_bisected_like_the_full_path(self):
        """Only modes 1 and 2 turn, by pi/2 per grid step: a ground-only path
        bisects each step once, at the same midpoints as the full path."""
        H = _ground_and_turning_pair(jump=False)
        paths = []
        for modes in (None, [0]):
            calls = []
            paths.append(eigenpath(lambda t: calls.append(list(t)) or H(t), np.array([0.0, 0.5, 1.0]), modes=modes))
            assert calls == [[0.0], [0.5, 1.0], [0.25], [0.75]]
        full, ground = paths
        assert np.array_equal(ground.energies, full.energies)
        assert np.array_equal(ground.vectors[:, :, 0], full.vectors[:, :, 0])

    def test_a_dropped_mode_exhausts_refinement_like_the_full_path(self):
        H = _ground_and_turning_pair(jump=True)
        messages = []
        for modes in (None, [0]):
            with pytest.raises(GridTooCoarseError) as err:
                eigenpath(H, np.array([0.0, 1.0]), modes=modes)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "mode overlap 0.707 < 0.9 between t = 0.333251953125 and 0.33349609375 "
            "after 12 refinement levels"
        )

    def test_a_dropped_pair_crossing_between_grid_points_is_bisected(self):
        """D = 3: the ground mode is e_0 at energy -5 throughout, and levels 1
        and 2 are those of (t - 1/2) sz + 0.005 sx on (e_1, e_2), an avoided
        crossing at t = 1/2 between the grid points 0.4 and 0.6. Across that
        interval the diabatic overlap cos(0.05) passes the gate, so only the
        rank guard sees it: a ground-only path bisects there like the full
        path, and modes 1 and 2 end on their own levels."""
        def H(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros((len(t), 3, 3), dtype=complex)
            out[:, 0, 0] = -5.0
            out[:, 1:, 1:] = (t - 0.5)[:, None, None] * SZ + 0.005 * SX
            return out

        grid, paths = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], []
        for modes in (None, [0]):
            calls = []
            paths.append(eigenpath(lambda t: calls.append(list(t)) or H(t), np.array(grid), modes=modes))
            assert calls[:3] == [grid[:1], grid[1:], [0.5]]
        full, ground = paths
        assert np.array_equal(ground.energies, full.energies)
        assert np.array_equal(ground.vectors[:, :, 0], full.vectors[:, :, 0])
        assert (np.diff(full.energies, axis=1) > 0).all()       # every mode keeps its energy rank

    def test_readers_work_on_kept_columns_and_reject_dropped_modes(self, lz):
        grid = np.linspace(0, 1, 201)
        full = eigenpath(lz.hamiltonian, grid)
        ground = eigenpath(lz.hamiltonian, grid, modes=[0])
        e0 = np.array([1.0, 0.0])
        ad_full, ad = adiabatic_state(full, e0), adiabatic_state(ground, e0)
        assert np.array_equal(ad.trajectory.states, ad_full.trajectory.states)
        assert np.array_equal(ad.dynamical_phases, ad_full.dynamical_phases[:, :1])
        assert np.array_equal(geometric_integrand(ground, 0), geometric_integrand(full, 0))
        traj = evolve(lz.hamiltonian, full.vectors[0, :, 0], grid)
        assert np.array_equal(adiabatic_populations(traj, ground), adiabatic_populations(traj, full)[:, :1])
        with pytest.raises(ValueError, match="modes \\[1\\] that the path did not keep"):
            adiabatic_state(ground, np.array([0.6, 0.8]))
        for reader in (geometric_integrand, loop_geometric_phase):
            with pytest.raises(ValueError, match="mode 1 is not kept"):
                reader(ground, 1)

    @pytest.mark.parametrize("modes", [[], [2], [-1]])
    def test_modes_outside_the_labels_are_rejected(self, lz, modes):
        with pytest.raises(ValueError, match="modes must name"):
            eigenpath(lz.hamiltonian, np.linspace(0, 1, 5), modes=modes)


def _per_point_path(H_of_t, grid):
    """Reference tracker: ``_align_frames`` at every grid point from the
    previous aligned frame, an interval bisected recursively where a mode's
    overlap falls below OVERLAP_MIN or a mode changes energy rank (the
    ascending ``eigh`` column it matched) with an overlap below 1 - 1e-12.
    Returns the (n_t, D) energies, (n_t, D, D) vectors and the number of
    bisected intervals."""
    def eig(t):
        E, V = np.linalg.eigh(H_of_t(np.array([t])))
        return E[0], V[0]

    def match(V_from, rank_from, t1):
        E, V, size, rank = _align_frames(V_from, *eig(t1))
        ok = size.min() >= OVERLAP_MIN and not ((rank != rank_from) & (size < 1 - 1e-12)).any()
        return E, V, rank, ok

    bisected = []

    def connect(t0, V_from, rank_from, t1, depth):
        E, V, rank, ok = match(V_from, rank_from, t1)
        if ok:
            return E, V, rank
        assert depth < MAX_REFINE
        bisected.append(depth == 0)
        tm = 0.5 * (t0 + t1)
        return connect(tm, *connect(t0, V_from, rank_from, tm, depth + 1)[1:], t1, depth + 1)

    E, V = eig(grid[0])
    energies, vectors, rank = [E], [_initial_gauge(V.copy())], np.arange(len(E))
    for t0, t1 in zip(grid[:-1], grid[1:]):
        E, V, rank = connect(t0, vectors[-1], rank, t1, 0)
        energies.append(E)
        vectors.append(V)
    return np.array(energies), np.array(vectors), sum(bisected)


def _labels(H_of_t, grid, *paths):
    """For each (n_t, D, D) array of path vectors, labels[i, n]: the column of
    ``eigh``'s frame at grid[i] that mode n holds; 256 times at a time."""
    labels = [[] for _ in paths]
    for s in range(0, len(grid), 256):
        Vh = np.linalg.eigh(H_of_t(grid[s:s + 256]))[1].conj().swapaxes(1, 2)
        for out, vectors in zip(labels, paths):
            out.append(np.abs(Vh @ vectors[s:s + 256]).argmax(axis=1))
    return [np.concatenate(out) for out in labels]


def _sharp_turn(t):
    """The field turns by pi/2 about t = 0.5037 over a width of 0.002: of the
    grid linspace(0, 1, 101) only the interval [0.50, 0.51], in the middle of
    the second time chunk, has a mode overlap below OVERLAP_MIN (0.71)."""
    theta = 0.25 * np.pi * (1 + np.tanh((np.asarray(t) - 0.5037) / 0.002))
    return np.cos(theta)[:, None, None] * SZ + np.sin(theta)[:, None, None] * SX


def _beside_fixed_levels(H_of_t, n_fixed=48):
    """H_of_t's (n, 2, 2) stack as the top-left block of an (n, 2 + n_fixed,
    2 + n_fixed) H whose other levels are fixed at 3, 5, 7, ...: well apart
    from the block's levels (+-1 for ``_sharp_turn``) and from each other, with
    fixed eigenvectors."""
    def H(t):
        block = H_of_t(t)
        out = np.zeros((len(block), 2 + n_fixed, 2 + n_fixed), dtype=complex)
        out[:, :2, :2] = block
        out[:, np.arange(2, 2 + n_fixed), np.arange(2, 2 + n_fixed)] = 3.0 + 2.0 * np.arange(n_fixed)
        return out
    return H


@pytest.fixture
def align_calls(monkeypatch):
    """The list that gets one entry per call of ``spectral._align_frames``."""
    calls, align = [], spectral._align_frames
    monkeypatch.setattr(spectral, "_align_frames", lambda *a: calls.append(1) or align(*a))
    return calls


class TestChunkedTracker:
    """``eigenpath`` tracks a time chunk at a time; the per-point loop of
    ``_align_frames`` with bisection is its oracle."""

    @pytest.mark.parametrize("case", ["lz_crossing", "mid_chunk_bisection", "narrow_lz_avoided_crossing",
                                      "rh2_complex_phases", "rh8_chunk_boundaries", "d50_one_time_chunks",
                                      "d50_lz_crossing"])
    def test_matches_the_per_point_tracker(self, case, monkeypatch):
        """Energies and labels equal the oracle's, vectors to 1e-13 and of unit
        norm, and ``_align_frames`` serves only the intervals that fail the
        same-rank check: one where a mode's overlap with the column of its
        energy rank is below OVERLAP_MIN, either bisected or a protected
        crossing, which a single match passes."""
        if case == "lz_crossing":
            # delta = 0: the levels cross at grid point 1000, inside the 1024-time chunk [1, 1025)
            H_of_t, grid, bisected = landau_zener(delta=0.0).hamiltonian, np.linspace(0, 1, 2001), 0
        elif case == "d50_lz_crossing":
            # D = 50, one time per chunk: the LZ levels cross each other at t = 1/2 and the fixed level 3 at
            # t = 0.2 and 0.8, all with fixed eigenvectors
            H_of_t, grid = _beside_fixed_levels(landau_zener(delta=0.0).hamiltonian), np.linspace(0, 1, 2001)
            bisected = 0
        elif case == "narrow_lz_avoided_crossing":
            # delta = 0.003: the avoided crossing at t = 1/2 falls between grid points 99 and 100, inside
            # the chunk [1, 200), where the diabatic overlap passes the gate and only the rank guard fails
            H_of_t, grid, bisected = landau_zener(delta=0.003).hamiltonian, np.linspace(0, 1, 200), 1
        elif case == "mid_chunk_bisection":
            H_of_t, grid, bisected = _sharp_turn, np.linspace(0, 1, 101), 1
        elif case == "d50_one_time_chunks":
            # D = 50: every chunk holds one time; of the 100 intervals only [0.50, 0.51] fails and bisects
            H_of_t, grid, bisected = _beside_fixed_levels(_sharp_turn), np.linspace(0, 1, 101), 1
        elif case == "rh2_complex_phases":
            # complex overlaps: the phases turn over 1024-time chunks
            H_of_t, grid, bisected = random_hermitian_ramp(2, seed=4).hamiltonian, np.linspace(0, 1, 3001), 0
        else:
            # D = 8: time chunks of 64, so 301 points cross four chunk boundaries
            H_of_t, grid, bisected = random_hermitian_ramp(8, seed=4).hamiltonian, np.linspace(0, 1, 301), 0
        evaluated, served = [], []      # the last time of each H_of_t call; that time at each match
        count = spectral._align_frames
        monkeypatch.setattr(spectral, "_align_frames", lambda *a: served.append(evaluated[-1]) or count(*a))
        path = eigenpath(lambda t: evaluated.append(t[-1]) or H_of_t(t), grid)
        energies, vectors, n_bisected = _per_point_path(H_of_t, grid)
        assert n_bisected == bisected
        assert np.array_equal(path.energies, energies)
        labels, path_labels = _labels(H_of_t, grid, vectors, path.vectors)
        assert np.array_equal(path_labels, labels)
        assert np.abs(path.vectors - vectors).max() <= 1e-13
        assert np.abs(np.linalg.norm(path.vectors, axis=1) - 1).max() <= 4e-15     # unit phases keep unit vectors
        steps = discrete_connection(path.vectors)
        assert (steps.real > 0).all()
        assert np.abs(steps.imag).max() <= 1e-14

        # a same-rank overlap below OVERLAP_MIN: a mode changes rank (its overlap with the column of its old
        # rank is then at most sqrt(2e-12)) or keeps it with a step overlap below the gate
        turns = np.abs(discrete_connection(vectors)).min(axis=1) < OVERLAP_MIN
        fails = (np.diff(labels, axis=0) != 0).any(axis=1) | turns
        ends = np.intersect1d(evaluated, grid)      # the last time of each grid chunk: midpoints are off the grid

        def serves(i, t):
            """A match of interval i sees its own times, its end or a midpoint, or the end of the chunk that
            holds it, evaluated right before its first match."""
            return grid[i] < t <= grid[i + 1] or t == ends[np.searchsorted(ends, grid[i + 1])]

        failing = np.flatnonzero(fails)
        assert all(any(serves(i, t) for t in served) for i in failing)
        assert all(any(serves(i, t) for i in failing) for t in served)
        if not bisected:        # a protected crossing is passed by one match
            assert len(served) == failing.size

    def test_lz_crossing_keeps_its_labels(self):
        """Across the delta = 0 crossing eigh's ascending order swaps the two
        vectors; the tracked modes keep theirs, so their energies cross."""
        path = eigenpath(landau_zener(delta=0.0).hamiltonian, np.linspace(0, 1, 2001))
        assert path.energies[0, 0] < path.energies[0, 1] and path.energies[-1, 0] > path.energies[-1, 1]
        assert np.abs(np.abs(path.vectors[-1]) - np.abs(path.vectors[0])).max() < 1e-12

    @pytest.mark.parametrize("system, n_t", [(landau_zener(), 1001),
                                             (random_hermitian_ramp(16, seed=0, shape="linear"), 1001),
                                             (random_hermitian_ramp(64, seed=0), 201)],
                             ids=["lz_1024_time_chunks", "rh16_16_time_chunks", "rh64_one_time_chunks"])
    def test_a_smooth_path_makes_no_per_point_match(self, system, n_t, align_calls):
        """Every interval of a smooth path passes the same-rank check, at chunks
        of 1024 times (LZ), 16 times (D = 16 on a linear schedule, as the
        approximate CD routes run) and one time (D = 64)."""
        eigenpath(system.hamiltonian, np.linspace(0, system.duration, n_t))
        assert align_calls == []

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(D=st.sampled_from([2, 3, 5, 8, 16]), seed=st.integers(0, 2**16), chunks=st.integers(1, 2),
           tail=st.integers(0, 20))
    def test_random_ramps_match_the_per_point_tracker(self, D, seed, chunks, tail):
        """On a random ramp whose grid ends up to 20 times (short of a full
        chunk) past the end of one or two full chunks, the path equals the
        oracle's: energies exactly, vectors to 1e-13."""
        system = random_hermitian_ramp(D, seed=seed)
        per_chunk = STACK_BYTES // (16 * D ** 2)
        grid = np.linspace(0, system.duration, 1 + chunks * per_chunk + min(tail, per_chunk - 1))
        path = eigenpath(system.hamiltonian, grid)
        energies, vectors, _ = _per_point_path(system.hamiltonian, grid)
        assert np.array_equal(path.energies, energies)
        assert np.abs(path.vectors - vectors).max() <= 1e-13

    @pytest.mark.parametrize("grid, match", [
        (np.array([]), "at least one time"),
        (np.array([0.0, np.nan, 1.0]), "finite, got nan at index 1"),
        (np.array([0.0, 0.5, np.inf]), "finite, got inf at index 2"),
    ])
    def test_a_bad_grid_raises_before_any_eigh(self, lz, grid, match, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(1) or eigh(*a))
        with pytest.raises(ValueError, match=match):
            eigenpath(lz.hamiltonian, grid)
        assert calls == []


class TestExactCD:
    def test_static_hamiltonian(self):
        assert np.abs(counterdiabatic_term(SZ + 0.3 * SX, np.zeros((2, 2)))).max() == 0.0

    def test_lz_closed_form_at_crossing(self, lz):
        # delta = 1, rate = 10 at lambda = 0 (t = 0.5): CD = -(10/2) sy / (0+1) -> -5 sy... scaled
        cd = counterdiabatic_term(lz.hamiltonian(0.5), lz.dhamiltonian(0.5))
        assert np.allclose(cd, lz_cd_oracle(0.0, 10.0), atol=1e-12)

    def test_unit_rate_convention(self):
        # lam = 0, delta = 1, rate = 1: CD = -(1/2) sy
        # H(t) = t sz + sx at t = 0
        cd = counterdiabatic_term(SX, SZ)
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
        cd = counterdiabatic_term(sys4.hamiltonian(grid[i]), sys4.dhamiltonian(grid[i]))
        assert np.abs(cd - oracle).max() < 1e-6

    def test_population_freezing_any_speed(self, lz):
        """Driving with H + H_cd keeps adiabatic-frame populations constant
        for arbitrary sweep speed."""
        for T in (0.05, 5.0):
            sys_t = landau_zener(duration=T)
            grid = np.linspace(0, T, 3001)
            path = eigenpath(sys_t.hamiltonian, grid)
            H_tot = cd_driven(sys_t)
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
    """The adiabatic gauge potential is counterdiabatic_term of d_lambda H."""

    def test_lz_closed_form(self, lz):
        A = counterdiabatic_term(lz.H_of_lambda(2.0), SZ)
        assert np.allclose(A, -1.0 / (2 * (4 + 1)) * SY, atol=1e-12)

    def test_cd_equals_rate_times_agp(self, lz):
        t = 0.3
        lam = lz.schedule(t)
        rate = lz.schedule.rate(t)
        A = counterdiabatic_term(lz.H_of_lambda(lam), SZ)
        cd = counterdiabatic_term(lz.hamiltonian(t), lz.dhamiltonian(t))
        assert np.abs(cd - rate * A).max() < 1e-10

    def test_parameter_independent_vanishes(self):
        A = counterdiabatic_term(SZ + 0.5 * SX, np.zeros((2, 2)))
        assert np.abs(A).max() < 1e-8


class TestAdiabaticState:
    def test_constant_hamiltonian_phase(self):
        grid = np.linspace(0, 2.0, 801)
        path = eigenpath(stacked(lambda t: SZ), grid)
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
        path = eigenpath(stacked(H), grid)
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
        path = eigenpath(stacked(H), grid)
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
            path = eigenpath(stacked(H_factory(T)), grid)
            geos.append(loop_geometric_phase(path, 0))
            ad = adiabatic_state(path, np.array([1.0, 0.0]))
            dyns.append(ad.dynamical_phases[-1, 0])
        assert abs(geos[0] - geos[1]) < 1e-8
        assert abs(dyns[0] - dyns[1]) > 0.1


class TestAdiabaticityMetric:
    def test_static(self):
        assert adiabaticity_metric(SZ, np.zeros((2, 2)), 0, 1) == 0.0

    def test_lz_value(self, lz):
        # at lambda = 0: |<0|dH|1>| = rate, gap = 2 -> rate/4 = 2.5 for rate 10
        val = adiabaticity_metric(lz.hamiltonian(0.5), lz.dhamiltonian(0.5), 0, 1)
        assert val == pytest.approx(2.5, abs=1e-9)

    def test_unit_rate_value(self):
        # H(t) = t sz + sx at t = 0
        val = adiabaticity_metric(SX, SZ, 0, 1)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self, lz):
        a = adiabaticity_metric(lz.hamiltonian(0.3), lz.dhamiltonian(0.3), 0, 1)
        b = adiabaticity_metric(lz.hamiltonian(0.3), lz.dhamiltonian(0.3), 1, 0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_closed_gap_of_the_pair_raises(self):
        # levels 1 and 2 of diag(-1, 1, 1) are degenerate; the drive couples only 0 and 1
        H, X01 = np.diag([-1.0, 1.0, 1.0]), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert adiabaticity_metric(H, X01, 0, 1) == pytest.approx(0.25, abs=1e-12)
        with pytest.raises(DegeneracyError, match="levels 1 and 2"):
            adiabaticity_metric(H, X01, 1, 2)


@pytest.mark.parametrize("reader", [lambda H, dH: counterdiabatic_term(H, dH),
                                    lambda H, dH: adiabaticity_metric(H, dH, 0, 1)],
                         ids=["counterdiabatic_term", "adiabaticity_metric"])
@pytest.mark.parametrize("dH", [np.stack([SZ, SX]), np.eye(3)], ids=["stack_of_two", "three_by_three"])
def test_mismatched_derivative_raises(reader, dH):
    """A 2 x 2 H with a stack of two derivatives, or with a 3 x 3 one, is a
    DimensionMismatchError, as in ``agp``: not the CD term of the first
    derivative alone, nor a bare reshape error."""
    with pytest.raises(DimensionMismatchError):
        reader(SX + 0.3 * SZ, dH)


def test_adiabaticity_metric_rejects_a_stack():
    H = np.stack([SX + 0.3 * SZ, SX - 0.3 * SZ])
    with pytest.raises(DimensionMismatchError, match="stack of 2"):
        adiabaticity_metric(H, np.stack([SZ, SZ]), 0, 1)


class TestQuantumGeometricTensor:
    def test_parameter_independent(self):
        g = quantum_geometric_tensor(SZ + 0.2 * SX, np.zeros((1, 2, 2)))
        assert np.abs(g).max() < 1e-10

    def test_two_level_closed_form(self):
        delta = 1.0
        for lam in (-2.0, 0.0, 1.5):
            g = quantum_geometric_tensor(lam * SZ + delta * SX, SZ[None], n=0)
            expect = delta**2 / (4 * (lam**2 + delta**2) ** 2)
            assert g[0, 0] == pytest.approx(expect, rel=1e-9)

    def test_positive_semidefinite(self):
        # H(lam) = lam_0 sz + lam_1 sx + 0.5 sy at lam = (0.3, 0.9)
        g = quantum_geometric_tensor(0.3 * SZ + 0.9 * SX + 0.5 * SY, np.array([SZ, SX]), n=0)
        assert np.linalg.eigvalsh(g).min() >= -1e-12

    def test_uncoupled_degenerate_level_contributes_nothing(self):
        """Level 2 of diag(-1, 1, 1) is degenerate with level 1 but no
        derivative couples them: the tensor of level 1 is its coupling to
        level 0 alone, 1/gap^2 = 1/4. A coupled degenerate pair raises."""
        H = np.diag([-1.0, 1.0, 1.0])
        X01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        X12 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert quantum_geometric_tensor(H, X01[None], n=1)[0, 0] == pytest.approx(0.25, abs=1e-12)
        with pytest.raises(DegeneracyError):
            quantum_geometric_tensor(H, np.array([X01, X12]), n=1)


class TestCounterdiabaticStack:
    """A time stack gives the per-point results, time by time."""

    @staticmethod
    def _stack(rng, H_closed, dH_closed):
        H = [random_hermitian(3, rng) for _ in range(4)]
        dH = [random_hermitian(3, rng) for _ in range(4)]
        H.insert(2, H_closed)
        dH.insert(2, dH_closed)
        return np.array(H), np.array(dH)

    def test_uncoupled_closed_gap_matches_the_loop(self, rng):
        # levels 1 and 2 of diag(-1, 1, 1) are degenerate; the drive couples only 0 and 1
        X01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        H, dH = self._stack(rng, np.diag([-1.0, 1.0, 1.0]).astype(complex), X01)
        cd = counterdiabatic_term(H, dH)
        loop = np.array([counterdiabatic_term(h, d) for h, d in zip(H, dH)])
        assert cd.shape == H.shape
        assert np.abs(cd - loop).max() <= 1e-12
        assert np.abs(cd[2, 1:, 1:]).max() <= 1e-12

    def test_coupled_closed_gap_raises_like_the_loop(self, rng):
        X12 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        H, dH = self._stack(rng, np.diag([-1.0, 1.0, 1.0]).astype(complex), X12)
        with pytest.raises(DegeneracyError, match="stack index 2"):
            counterdiabatic_term(H, dH)
        with pytest.raises(DegeneracyError):
            [counterdiabatic_term(h, d) for h, d in zip(H, dH)]

    def test_discrete_connection_chunks_match_the_per_mode_products(self, rng):
        """2500 times of D = 2 span three time chunks; the products equal the
        per-mode inner products bit for bit."""
        V = rng.standard_normal((2500, 2, 2)) + 1j * rng.standard_normal((2500, 2, 2))
        per_mode = np.stack([np.einsum("ij,ij->i", V[:-1, :, n].conj(), V[1:, :, n]) for n in range(2)], axis=1)
        assert np.array_equal(discrete_connection(V), per_mode)

    def test_eigenpath_rejects_an_unstacked_callable(self):
        with pytest.raises(ValueError, match=r"time callable must map 1 times to an \(1, D, D\) stack"):
            eigenpath(lambda t: SZ, np.linspace(0, 1, 5))


class TestCDWalk:
    """One eigh per grid chunk serves the eigenpath, the exact H_cd and a
    fourth-order Magnus step; an approximate route's H_cd is evaluated once
    per grid point and stepped the same way."""

    @staticmethod
    def _walk(system, n_t, **kwargs):
        grid = np.linspace(0.0, system.duration, n_t)
        return cd_walk(system.hamiltonian, system.dhamiltonian, grid, **kwargs)

    @staticmethod
    def _walk_cd(system, n_t, **kwargs):
        """The walk and the (n_t, D, D) H_cd it stepped, which a consumer
        copies chunk by chunk."""
        cds = []
        walk = TestCDWalk._walk(system, n_t, on_chunk=lambda *chunk: cds.append(chunk[-1].copy()), **kwargs)
        return walk, np.concatenate(cds)

    @pytest.mark.parametrize("system", [landau_zener(), random_hermitian_ramp(4, seed=0)], ids=["lz", "rh4"])
    def test_fourth_order(self, system):
        """Each halving of the step cuts the final-state error against a
        6401-point walk 16 +- 3 fold: 21 -> 41 -> 81 -> 161 points."""
        ref = self._walk(system, 6401).trajectory.final()
        errs = [np.linalg.norm(self._walk(system, n).trajectory.final() - ref) for n in (21, 41, 81, 161)]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(13.0 <= r <= 19.0 for r in ratios), ratios

    @pytest.mark.parametrize("dim", [4, 50])
    def test_path_and_first_state_are_eigenpaths_bit_for_bit(self, dim):
        """The walk's path is ``eigenpath(..., modes=[0])``, and its state
        starts on that path's ground vector, bit for bit: batched chunks at
        D = 4, one time per chunk at D = 50."""
        system = random_hermitian_ramp(dim, seed=3)
        grid = np.linspace(0.0, 1.0, 41)
        walk = cd_walk(system.hamiltonian, system.dhamiltonian, grid, modes=[0])
        path = eigenpath(system.hamiltonian, grid, modes=[0])
        assert np.array_equal(walk.path.energies, path.energies)
        assert np.array_equal(walk.path.vectors, path.vectors)
        assert np.array_equal(walk.trajectory.states[0], path.vectors[0, :, 0])
        fid = np.abs(np.einsum("td,td->t", path.vectors[:, :, 0].conj(), walk.trajectory.states)) ** 2
        assert fid.min() >= 1 - 1e-6

    @pytest.mark.parametrize("dim, n_t", [(4, 301), (50, 31)])
    def test_cd_is_counterdiabatic_term_bit_for_bit(self, dim, n_t):
        """At D = 4 the walk forms H_cd a chunk at a time; at D = 50 one time
        per chunk in the walk's work arrays. Either way it is one ``frame_cd``
        with ``counterdiabatic_term``."""
        system = random_hermitian_ramp(dim, seed=1, shape="linear")
        walk, cd = self._walk_cd(system, n_t)
        assert np.array_equal(cd, sample(self._exact(system), walk.path.grid))

    def test_smoothstep_end_points_give_zero_cd(self):
        _, cd = self._walk_cd(random_hermitian_ramp(4, seed=0, shape="smoothstep"), 21)
        assert not cd[0].any() and not cd[-1].any()
        assert np.abs(cd[10]).max() > 0.1

    @pytest.mark.parametrize("grid", [np.geomspace(0.01, 1.0, 21), np.linspace(0.0, 1.0, 2)])
    def test_a_grid_that_is_not_evenly_spaced_raises_before_any_eigh(self, grid):
        calls = []
        system = landau_zener()
        H_of_t = lambda t: calls.append(t) or system.hamiltonian(t)
        with pytest.raises(ValueError, match="grid"):
            cd_walk(H_of_t, system.dhamiltonian, grid)
        assert calls == []

    def test_uncoupled_crossing_at_a_grid_point_runs(self):
        """At delta = 0 the Landau-Zener levels cross at lambda = 0, which is
        grid point 10: the gap closes there, but nothing couples across it, so
        H_cd is zero and the state stays on the tracked mode."""
        walk, cd = self._walk_cd(landau_zener(delta=0.0), 21)
        E = walk.path.energies[10]
        assert E[0] == E[1] == 0.0
        assert not cd.any()
        fid = np.abs(np.vdot(walk.path.vectors[-1, :, 0], walk.trajectory.final())) ** 2
        assert fid == pytest.approx(1.0, abs=1e-14)

    def test_coupled_closed_gap_at_a_grid_point_raises(self):
        """The delta = 0 crossing of the Landau-Zener levels at grid point 10,
        with dH = sx given for it: the frames match across the crossing, and
        the drive couples the closed gap."""
        system = landau_zener(delta=0.0)
        with pytest.raises(DegeneracyError, match="levels 0 and 1 are degenerate at t = 0.5"):
            cd_walk(system.hamiltonian, lambda t: np.broadcast_to(SX, (len(t), 2, 2)),
                          np.linspace(0.0, 1.0, 21))

    def test_a_failed_frame_match_is_raised_ahead_of_a_closed_gap(self):
        """H = lambda sx vanishes at grid point 10, where eigh's frame of the
        zero matrix matches neither neighbour: the tracker's error comes first."""
        system = DrivenSystem(H0=np.zeros((2, 2), dtype=complex), H1=SX, schedule=Schedule.linear(-1.0, 1.0, 1.0))
        with pytest.raises(GridTooCoarseError, match="and 0.5 after 12 refinement levels"):
            self._walk(system, 21)

    @staticmethod
    def _exact(system):
        return lambda t: counterdiabatic_term(system.hamiltonian(t), system.dhamiltonian(t))

    @staticmethod
    def _variational_of_t(system):
        return lambda t: variational_cd(system.hamiltonian(t), system.dhamiltonian(t), 1)

    @staticmethod
    def _variational(calls=None):
        """The order-1 variational route on the walk's frames; it records the
        H stacks it sees in ``calls``."""
        def route(H, E, V, dH):
            if calls is not None:
                calls.append(H.copy())
            return frame_krylov_cd(E, V, dH, k_max=3)
        return route

    def test_fourth_order_on_a_variational_route(self):
        """An order-1 variational route on a D = 8 ramp: each halving of the
        step cuts the final-state error against a 6401-point walk 16 +- 3 fold,
        21 -> 41 -> 81 -> 161 points."""
        system = random_hermitian_ramp(8, seed=1, shape="linear")
        route = self._variational()
        ref = self._walk(system, 6401, route=route).trajectory.final()
        errs = [np.linalg.norm(self._walk(system, n, route=route).trajectory.final() - ref)
                for n in (21, 41, 81, 161)]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(13.0 <= r <= 19.0 for r in ratios), ratios

    def test_route_cd_is_the_route_at_the_grid_points_bit_for_bit(self):
        """201 points of D = 8 span four time chunks; the stepped H_cd, formed
        on the walk's frames, is ``variational_cd`` sampled on the grid, and
        the route sees H at each grid time once."""
        system = random_hermitian_ramp(8, seed=1, shape="linear")
        calls = []
        walk, cd = self._walk_cd(system, 201, route=self._variational(calls))
        assert np.array_equal(cd, sample(self._variational_of_t(system), walk.path.grid))
        assert np.array_equal(np.concatenate(calls), sample(system.hamiltonian, walk.path.grid))

    @pytest.mark.parametrize("dim, n_t, modes", [(4, 401, None), (48, 11, [0])], ids=["batched", "lone"])
    @pytest.mark.parametrize("route", ["exact", "variational"])
    def test_consumer_sees_each_chunk_kept_vectors_and_cd(self, dim, n_t, modes, route):
        """The consumer sees the chunks in order, each once H_cd is formed:
        its kept rows are the path's vectors and its cd rows the route (or the
        exact term) sampled on the grid, bit for bit, on batched chunks at
        D = 4 and on lone frames at D = 48."""
        system = random_hermitian_ramp(dim, seed=0, shape="linear")
        seen = []
        walk = self._walk(system, n_t, modes=modes,
                          route=None if route == "exact" else self._variational(),
                          on_chunk=lambda start, H, E, V, kept, cd: seen.append((start, kept.copy(), cd.copy())))
        starts = [start for start, _, _ in seen]
        assert len(seen) > 2 and starts == [0] + np.cumsum([len(kept) for _, kept, _ in seen[:-1]]).tolist()
        assert np.array_equal(np.concatenate([kept for _, kept, _ in seen]), walk.path.vectors)
        cd_of_t = self._exact(system) if route == "exact" else self._variational_of_t(system)
        assert np.array_equal(np.concatenate([cd for _, _, cd in seen]), sample(cd_of_t, walk.path.grid))

    def test_a_failed_frame_match_is_raised_before_the_route_sees_its_chunk(self):
        """H = lambda sx vanishes at grid point 10, inside the second time
        chunk: the route has seen the first chunk, t = 0, alone."""
        system = DrivenSystem(H0=np.zeros((2, 2), dtype=complex), H1=SX, schedule=Schedule.linear(-1.0, 1.0, 1.0))
        calls = []
        with pytest.raises(GridTooCoarseError, match="and 0.5 after 12 refinement levels"):
            self._walk(system, 21, route=self._variational(calls))
        assert len(calls) == 1 and np.array_equal(calls[0], system.hamiltonian(np.array([0.0])))

    def test_a_read_only_route_stack_runs(self):
        """A route that returns a read-only broadcast of zeros steps H alone:
        the same states as a route that returns fresh zeros."""
        system = landau_zener()
        read_only, cd = self._walk_cd(
            system, 21, route=lambda H, E, V, dH: np.broadcast_to(np.zeros((2, 2), dtype=complex), H.shape))
        fresh = self._walk(system, 21, route=lambda H, E, V, dH: np.zeros_like(H))
        assert not cd.any()
        assert np.array_equal(read_only.trajectory.states, fresh.trajectory.states)

    def test_a_cached_route_array_is_left_unchanged(self):
        """At D = 50 every time chunk holds one time, and the route hands back
        the same (1, D, D) array on every call: the walk only reads it."""
        system = random_hermitian_ramp(50, seed=3)
        cache = 0.01 * random_hermitian(50, np.random.default_rng(0))[None]
        saved = cache.copy()
        _, cd = self._walk_cd(system, 11, route=lambda H, E, V, dH: cache)
        assert np.array_equal(cache, saved)
        assert np.array_equal(cd, np.broadcast_to(saved, cd.shape))
