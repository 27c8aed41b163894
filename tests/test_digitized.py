import tracemalloc

import numpy as np
import pytest

from shortcut_forge import digitized
from shortcut_forge.digitized import (
    digitization_error,
    fit_scaling,
    trotter_baseline_error,
    trotter_cd_evolve,
    trotter_step_unitaries,
)
from shortcut_forge.dynamics import step_unitary
from shortcut_forge.models import random_hermitian, random_hermitian_ramp
from shortcut_forge.spectral import counterdiabatic_term

from conftest import SX, SZ, stacked


class TestCommutingPair:
    """With H_cd proportional to H every slice commutes, so the product equals
    exp(-i T (H + H_cd)) for any number of slices."""

    rng = np.random.default_rng(5)
    H = random_hermitian(4, rng)
    psi0 = np.linalg.eigh(H)[1][:, 0]

    @pytest.mark.parametrize("M", [1, 2, 7, 64])
    def test_product_equals_exact(self, M):
        steps = trotter_step_unitaries(stacked(lambda t: self.H), stacked(lambda t: 0.4 * self.H), M, 1.3)
        U = np.linalg.multi_dot([np.eye(4)] + list(steps[::-1]))
        exact = step_unitary(1.4 * self.H, 1.3)
        assert np.abs(U - exact).max() < 1e-12
        psi = trotter_cd_evolve(stacked(lambda t: self.H), stacked(lambda t: 0.4 * self.H), M, 1.3, self.psi0)
        assert np.abs(psi - exact @ self.psi0).max() < 1e-12

    def test_rejects_no_slices(self):
        with pytest.raises(ValueError, match="M must be >= 1"):
            trotter_step_unitaries(stacked(lambda t: self.H), stacked(lambda t: 0.4 * self.H), 0, 1.3)

    def test_error_at_floor_skips_the_fit(self):
        """The ground state of H is stationary under H + H_cd = 1.4 H: every
        infidelity sits at the floor, and every QSL bound is 1."""
        report = digitization_error(stacked(lambda t: self.H), stacked(lambda t: 0.4 * self.H), 1.3, [4, 8, 16, 32])
        assert report.fit_skipped and report.slope is None
        assert report.values.max() < 1e-12
        assert np.abs(report.qsl_bound - 1.0).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_cd_on_a_random_smoothstep_ramp_falls_as_one_over_m_squared(seed):
    """``digitization_error`` on a D = 4 random Hermitian smoothstep ramp
    with exact CD, a pair the CLI does not run: the infidelity falls as
    1/M^2, and the discrete QSL bound holds at T for every M. The counts
    start at 16: seed 0 is not yet asymptotic at 8 (local slope -2.75 from 8
    to 16, then -2.00)."""
    system = random_hermitian_ramp(4, seed)
    cd = lambda t: counterdiabatic_term(system.hamiltonian(t), system.dhamiltonian(t))
    report = digitization_error(system.hamiltonian, cd, system.duration, [16, 32, 64, 128, 256])
    assert report.metric == "infidelity" and not report.fit_skipped
    assert -2.1 <= report.slope <= -1.9
    assert (np.sqrt(1.0 - report.values) >= report.qsl_bound).all()


class TestFitScaling:
    def test_recovers_power_law(self):
        M = np.array([8, 16, 32, 64, 128])
        report = fit_scaling(M, 3.7 * M.astype(float) ** -2, "infidelity")
        assert report.slope == pytest.approx(-2.0, abs=1e-12)
        assert report.intercept == pytest.approx(np.log(3.7), abs=1e-12)
        assert report.slope_stderr < 1e-12
        assert np.array_equal(report.M_list, M) and np.array_equal(report.values, 3.7 * M.astype(float) ** -2)

    def test_needs_two_octaves(self):
        with pytest.raises(ValueError, match="two octaves"):
            fit_scaling(np.array([8, 10, 12, 16]), np.ones(4), "infidelity")

    @pytest.mark.parametrize("M_list", [[8, 8, 8, 32], [0, 8, 16, 32]], ids=["two-distinct", "zero"])
    def test_needs_four_distinct_positive_counts(self, M_list):
        with pytest.raises(ValueError, match="^need >= 4 distinct positive values of M"):
            fit_scaling(np.array(M_list), np.ones(4), "infidelity")


def test_baseline_first_order_slope():
    """A constant non-commuting pair: the state error of the first-order
    product falls as 1/M."""
    psi0 = np.array([1.0, 0.0], dtype=complex)
    report = trotter_baseline_error(SX, SZ, 1.0, [8, 16, 32, 64, 128], psi0)
    assert report.metric == "state_error" and not report.fit_skipped
    assert -1.1 <= report.slope <= -0.9


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    A, B = random_hermitian(dim, rng), random_hermitian(dim, rng)
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return A, B, psi0 / np.linalg.norm(psi0)


class TestBaseline:
    """``trotter_baseline_error`` powers one step unitary per slice count."""

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_equals_the_stacked_product_bit_for_bit(self, dim):
        """The digitized product of the pair sampled as constant time
        callables gives the same state errors, bit for bit."""
        A, B, psi0 = _random_pair(dim, dim)
        T, M_list = 1.3, [3, 5, 9, 17, 40]
        report = trotter_baseline_error(A, B, T, M_list, psi0)
        target = step_unitary(np.asarray(A + B, dtype=complex), T) @ psi0
        const = lambda X: (lambda t: np.broadcast_to(X, (len(t),) + X.shape))
        oracle = [np.linalg.norm(trotter_cd_evolve(const(A), const(B), M, T, psi0) - target)
                  for M in M_list]
        assert report.metric == "state_error"
        assert np.array_equal(report.values, oracle)

    def test_two_eigendecompositions_per_slice_count(self, monkeypatch):
        """One for each factor of the step per M and one for the target; the
        time-dependent digitized path is not entered."""
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(np.shape(H)) or eigh(H))
        for name in ("digitization_error", "trotter_step_unitaries", "sample"):
            monkeypatch.setattr(digitized, name, lambda *a, **k: pytest.fail("time-dependent path entered"))
        A, B, psi0 = _random_pair(4, 0)
        trotter_baseline_error(A, B, 1.0, [8, 16, 32, 64, 128, 256], psi0)
        assert calls == [(4, 4)] * 13

    def test_memory_does_not_grow_with_slice_count(self):
        """The peak at slice counts up to 256 stays within 1.5x of that up to
        32 at D = 64: only D-vectors are stepped, no (M, D, D) stack is held."""
        A, B, psi0 = _random_pair(64, 1)
        peaks = []
        for M_list in ([8, 16, 24, 32], [8, 16, 32, 64, 128, 256]):
            tracemalloc.start()
            try:
                trotter_baseline_error(A, B, 1.0, M_list, psi0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_rejects_an_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            trotter_baseline_error(SX, SZ, 1.0, [8, 16, 32, 64], np.array([1.0, 1.0]))
