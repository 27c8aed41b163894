"""Oracle tests for the 1-D grid fast-forward, built on the Gaussian width ramp:
its scaling phase m wdot x^2 / (2 w) solves the continuity equation
exactly, and its fast-forward potential is a harmonic trap in closed form."""

import numpy as np
import pytest

from shortcut_forge.fastforward import TimeRescaling
from shortcut_forge.gridff import GridSystem1D, ff_potential, phase_from_continuity, split_step_evolve
from shortcut_forge.models import GaussianWidthRamp

from conftest import sine_rescaling

RAMP = GaussianWidthRamp()


def _grid(n_points, extent=40.0):
    x = np.linspace(-extent / 2, extent / 2, n_points, endpoint=False)
    return GridSystem1D(x=x, mass=RAMP.mass, r=lambda t: RAMP.amplitude(x, t),
                        drdt=lambda t: RAMP.amplitude_rate(x, t))


def _width_acceleration(t):
    u = t / RAMP.duration
    return (RAMP.width_stop - RAMP.width_start) * 60 * u * (1 - u) * (1 - 2 * u) / RAMP.duration**2


def _second_order(errors):
    """Each halving of dx divides the error by 4, within 10 %."""
    ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
    return bool(np.all((ratios >= 3.6) & (ratios <= 4.4))), ratios


@pytest.mark.parametrize("t", [0.3, 2.0, 3.9])
def test_amplitude_rate_is_the_time_derivative_of_the_amplitude(t):
    x = _grid(1024).x
    h = 1e-6
    central = (RAMP.amplitude(x, t + h) - RAMP.amplitude(x, t - h)) / (2 * h)
    assert np.abs(RAMP.amplitude_rate(x, t) - central).max() <= 1e-8


def test_continuity_phase_converges_to_the_scaling_phase_at_second_order():
    t = 2.0
    errors = []
    for n in (512, 1024, 2048, 4096):
        grid = _grid(n)
        live = grid.r(t) > 1e-4
        errors.append(np.abs(phase_from_continuity(grid, t) - RAMP.theta_exact(grid.x, t))[live].max())
    ok, ratios = _second_order(errors)
    assert ok, (errors, ratios)
    assert errors[-1] <= 1e-3


@pytest.mark.parametrize("rate", [1.0, 2.0, "sine"])
@pytest.mark.parametrize("t", [0.25, 1.5])
def test_ff_potential_is_the_harmonic_trap_of_the_rescaled_width(rate, t):
    """V_FF = m omega^2 x^2 / 2 - 1 / (2 m w^2) with
    omega^2 = 1 / (m^2 w^4) - ((ds/dt)^2 w'' + (d2s/dt2) w') / w, the
    width and its s-derivatives at s(t); rate "sine" is the non-uniform clock."""
    if rate == "sine":
        rescale = sine_rescaling(RAMP.duration)
    else:
        rescale = TimeRescaling.uniform(rate, RAMP.duration / rate)
    s, sp, spp = rescale.s(t), rescale.dsdt(t), rescale.d2sdt2(t)
    w = RAMP.width(s)
    omega2 = 1 / (RAMP.mass**2 * w**4) - (sp**2 * _width_acceleration(s) + spp * RAMP.width_rate(s)) / w
    errors = []
    for n in (512, 1024, 2048, 4096):
        grid = _grid(n)
        V = ff_potential(grid, rescale, t)
        exact = 0.5 * RAMP.mass * omega2 * grid.x**2 - 1 / (2 * RAMP.mass * w**2)
        errors.append(np.abs(V - exact)[grid.r(s) > 1e-4].max())
    ok, ratios = _second_order(errors)
    assert ok, (errors, ratios)


def test_split_step_reproduces_free_gaussian_spreading():
    """psi(x, T) = (pi w^2)^(-1/4) a^(-1/2) exp(-x^2 / (2 w^2 a)), a = 1 + i T / (m w^2)."""
    x = np.linspace(-20.0, 20.0, 256, endpoint=False)
    w, mass, T = 1.0, 1.0, 2.0
    psi0 = (np.pi * w**2) ** -0.25 * np.exp(-(x**2) / (2 * w**2))
    psi = split_step_evolve(x, lambda t: np.zeros_like(x), psi0, T, 50, mass)
    a = 1 + 1j * T / (mass * w**2)
    exact = (np.pi * w**2) ** -0.25 * a**-0.5 * np.exp(-(x**2) / (2 * w**2 * a))
    assert np.abs(psi - exact).max() <= 1e-14


def _moving_trap():
    x = np.linspace(-20.0, 20.0, 256, endpoint=False)
    dx = x[1] - x[0]
    psi0 = np.exp(-((x - 1.0) ** 2) / 2 + 0.5j * x)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)
    return x, psi0, lambda t: 0.5 * (1 + t) * (x - np.sin(t)) ** 2


def test_split_step_keeps_the_norm_in_a_moving_trap():
    x, psi0, V = _moving_trap()
    psi = split_step_evolve(x, V, psi0, 3.0, 300, 1.0)
    assert abs(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]) - 1.0) <= 1e-13


def test_split_step_is_second_order_in_time():
    """Strang splitting: against a 12,800-step run of the moving trap to
    T = 3, each doubling of 100, 200, 400, 800 steps divides the L2 error by
    4 (4.00-4.01 measured; errors 4.0e-4 down to 6.3e-6)."""
    x, psi0, V = _moving_trap()
    ref = split_step_evolve(x, V, psi0, 3.0, 12800, 1.0)
    errors = [np.sqrt(np.sum(np.abs(split_step_evolve(x, V, psi0, 3.0, n, 1.0) - ref) ** 2) * (x[1] - x[0]))
              for n in (100, 200, 400, 800)]
    ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
    assert np.all(np.abs(ratios - 4.0) <= 0.4), (errors, ratios)
