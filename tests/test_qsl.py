import warnings

import numpy as np
import pytest

from shortcut_forge.dynamics import StateTrajectory, evolve, step_unitary
from shortcut_forge.errors import NonFiniteError
from shortcut_forge.models import SX, landau_zener, random_hermitian
from shortcut_forge.qsl import qsl_continuous, qsl_discrete, qsl_from_integrand, stddev_in_state


def _random_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("seed", range(5))
def test_stddev_matches_second_moment_formula(seed):
    rng = np.random.default_rng(seed)
    X = random_hermitian(6, rng)
    psi = _random_state(6, rng)
    mean = np.vdot(psi, X @ psi).real
    second = np.vdot(psi, X @ X @ psi).real
    assert stddev_in_state(X, psi) == pytest.approx(np.sqrt(second - mean**2), rel=1e-12)


def test_eigenstate_has_zero_stddev():
    rng = np.random.default_rng(7)
    X = random_hermitian(5, rng)
    psi = np.linalg.eigh(X)[1][:, 2]
    assert stddev_in_state(X, psi) < 1e-13


def test_constant_shift_gives_no_angle():
    """H_2 = H_1 + c I differs by a global phase only: zero angle, bound 1,
    and the observed overlap stays 1."""
    system = landau_zener()
    grid = np.linspace(0.0, system.duration, 51)
    H1 = system.hamiltonian
    H2 = lambda t: system.hamiltonian(t) + 0.7 * np.eye(2)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    ref, other = evolve(H1, psi0, grid), evolve(H2, psi0, grid)
    report = qsl_continuous(H1, H2, ref, other=other)
    assert np.abs(report.angle).max() < 1e-14
    assert np.abs(report.bound - 1.0).max() < 1e-14
    assert np.abs(report.observed - 1.0).max() < 1e-12
    assert report.holds() and not report.vacuous.any()


def test_rejects_an_other_trajectory_on_a_shifted_grid():
    grid = np.linspace(0.0, 1.0, 11)
    states = np.tile([1.0, 0.0], (11, 1)).astype(complex)
    reference = StateTrajectory(grid=grid, states=states)
    qsl_from_integrand(np.ones(11), reference, StateTrajectory(grid=grid.copy(), states=states))
    with pytest.raises(ValueError, match="not aligned"):
        qsl_from_integrand(np.ones(11), reference, StateTrajectory(grid=grid + 1e-6, states=states))


def test_an_overflowing_integrand_is_a_nonfinite_error_naming_its_time():
    """A stddev whose squares overflow is inf with no numpy warning (the test
    run makes a warning an error), and the bound refuses it at its time."""
    grid = np.linspace(0.0, 1.0, 3)
    states = np.tile([1.0, 0.0], (3, 1)).astype(complex)
    X = np.array([0.1 * SX, 1e300 * SX, SX])
    L = stddev_in_state(X, states)
    assert L[0] == pytest.approx(0.1) and L[1] == np.inf
    with pytest.raises(NonFiniteError, match=r"the QSL integrand is inf at t = 0\.5"):
        qsl_from_integrand(L, StateTrajectory(grid=grid, states=states))


@pytest.mark.parametrize("seed", range(4))
def test_discrete_bound_is_a_triangle_inequality(seed):
    """The Bures angle between the two trajectories grows by at most the
    per-step angle L_n, so |<psi_1|psi_2>| >= cos(sum L) while that sum stays
    within pi/2."""
    rng = np.random.default_rng(seed)
    dim, M = 4, 40
    U1 = [step_unitary(random_hermitian(dim, rng), 0.3) for _ in range(M)]
    U2 = [step_unitary(0.05 * random_hermitian(dim, rng), 1.0) @ U for U in U1]
    psi1 = [_random_state(dim, rng)]
    psi2 = [psi1[0]]
    for a, b in zip(U1, U2):
        psi1.append(a @ psi1[-1])
        psi2.append(b @ psi2[-1])
    observed = np.abs(np.einsum("ti,ti->t", np.conj(psi1), psi2))
    report = qsl_discrete(U2, np.array(psi1), observed=observed)
    assert report.angle[-1] > np.pi / 2          # the test reaches the vacuous regime
    live = report.angle <= np.pi / 2
    assert live.sum() > 5
    assert (observed[live] >= report.bound[live] - 1e-12).all()
    assert np.all(np.diff(report.angle) >= 0)


def test_overlap_above_one_warns_and_keeps_the_ray_angle():
    """A step that is not unitary warns, and its angle is that between the
    rays: 0 for a pure rescale of the reference step, the rotation angle for a
    rescaled rotation of a static reference."""
    rng = np.random.default_rng(3)
    U = step_unitary(random_hermitian(3, rng), 0.4)
    psi0 = _random_state(3, rng)
    states = np.array([psi0, U @ psi0])
    with pytest.warns(UserWarning, match="not unitary"):
        report = qsl_discrete([(1 + 1e-6) * U], states)
    assert abs(report.metadata["per_step_angle"][0]) < 1e-15   # 0 up to rounding of the two states
    assert report.bound[-1] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qsl_discrete([(1 + 1e-12) * U], states)   # within the 1e-9 tolerance: silent
    zero = np.array([1.0, 0.0], dtype=complex)
    with pytest.warns(UserWarning, match="not unitary"):
        report = qsl_discrete([1.1 * step_unitary(SX, 0.3)], np.array([zero, zero]))
    assert report.metadata["per_step_angle"][0] == pytest.approx(0.3, rel=1e-15)


def test_steps_that_are_not_unitary_warn_once_naming_the_first():
    """A stack of steps takes one stacked pass: the warning names the first
    step that is not unitary and is given once, however many there are."""
    zero = np.array([1.0, 0.0], dtype=complex)
    U = step_unitary(SX, 0.3)
    steps = np.array([U, 1.1 * U, 1.2 * U])
    states = np.array([zero, U @ zero, U @ U @ zero, U @ U @ U @ zero])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = qsl_discrete(steps, states)
    assert [str(w.message).split(":")[0] for w in caught] == ["step 2 is not unitary"]
    assert np.abs(report.metadata["per_step_angle"]).max() < 1e-15


def test_small_step_angle_keeps_every_digit():
    """A step that rotates the reference state by 1e-9 against a static
    reference has the angle 1e-9; arccos of the overlap, which rounds to 1,
    would keep only about half the digits."""
    psi0 = np.array([1.0, 0.0], dtype=complex)
    report = qsl_discrete([step_unitary(SX, 1e-9)], np.array([psi0, psi0]))
    assert report.metadata["per_step_angle"][0] == pytest.approx(1e-9, rel=1e-15)
