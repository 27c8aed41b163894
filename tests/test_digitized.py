import numpy as np
import pytest

from shortcut_forge.digitized import (
    TrotterPlan,
    _fit_scaling,
    digitization_error,
    trotter_baseline_error,
    trotter_cd_evolve,
    trotter_step_unitaries,
)
from shortcut_forge.dynamics import step_unitary
from shortcut_forge.models import random_hermitian

from conftest import SX, SZ


class TestCommutingPair:
    """With H_cd proportional to H every slice commutes, so the product equals
    exp(-i T (H + H_cd)) for any number of slices."""

    rng = np.random.default_rng(5)
    H = random_hermitian(4, rng)
    psi0 = np.linalg.eigh(H)[1][:, 0]

    @pytest.mark.parametrize("M", [1, 2, 7, 64])
    @pytest.mark.parametrize("ordering", ["h-then-cd", "cd-then-h"])
    def test_product_equals_exact(self, M, ordering):
        plan = TrotterPlan(M=M, T=1.3, ordering=ordering)
        steps = trotter_step_unitaries(lambda t: self.H, lambda t: 0.4 * self.H, plan)
        U = np.linalg.multi_dot([np.eye(4)] + steps[::-1])
        exact = step_unitary(1.4 * self.H, 1.3)
        assert np.abs(U - exact).max() < 1e-12
        psi = trotter_cd_evolve(lambda t: self.H, lambda t: 0.4 * self.H, plan, self.psi0)
        assert np.abs(psi - exact @ self.psi0).max() < 1e-12

    def test_error_at_floor_skips_the_fit(self):
        target = step_unitary(1.4 * self.H, 1.3) @ self.psi0
        report = digitization_error(lambda t: self.H, lambda t: 0.4 * self.H, 1.3, [4, 8, 16, 32],
                                    target, psi0=self.psi0)
        assert report.fit_skipped and report.slope is None
        assert report.values.max() < 1e-12


class TestFitScaling:
    def test_recovers_power_law(self):
        M = np.array([8, 16, 32, 64, 128])
        report = _fit_scaling(M, 3.7 * M.astype(float) ** -2, "infidelity")
        assert report.slope == pytest.approx(-2.0, abs=1e-12)
        assert report.intercept == pytest.approx(np.log(3.7), abs=1e-12)
        assert report.slope_stderr < 1e-12
        assert report.per_M == {int(m): 3.7 * m**-2.0 for m in M}

    def test_needs_two_octaves(self):
        with pytest.raises(ValueError, match="two octaves"):
            _fit_scaling(np.array([8, 10, 12, 16]), np.ones(4), "infidelity")


def test_baseline_first_order_slope():
    """A constant non-commuting pair: the state error of the first-order
    product falls as 1/M."""
    psi0 = np.array([1.0, 0.0], dtype=complex)
    report = trotter_baseline_error(SX, SZ, 1.0, [8, 16, 32, 64, 128], psi0)
    assert report.metric == "state_error" and not report.fit_skipped
    assert -1.1 <= report.slope <= -0.9
