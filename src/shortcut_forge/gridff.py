"""Coordinate-space fast-forward on a uniform 1-D grid.

Given a target amplitude r(x, t), the phase theta(x, t) follows from the
continuity condition Im V = 0, the trapping potential from the real part of
the inverted Schrodinger equation, and the fast-forward potential from the
time-rescaled phase choice f = (ds/dt - 1) theta. A split-step Fourier
integrator (periodic boundary) serves as the independent reference for
acceptance checks; the construction itself uses second-order central
differences only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import config
from .dynamics import cumulative_trapezoid
from .errors import IllConditionedError
from .fastforward import TimeRescaling


@dataclass
class GridSystem1D:
    """Uniform grid, particle mass, and the target amplitude r(x, t) >= 0."""

    x: np.ndarray
    mass: float
    r: Callable[[float], np.ndarray]           # t -> amplitude on the grid
    drdt: Callable[[float], np.ndarray] | None = None
    r_floor: float = 1e-8

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        dx = np.diff(self.x)
        if not np.allclose(dx, dx[0], rtol=1e-12, atol=1e-15):
            raise ValueError("grid must be uniform")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def density(self, t: float) -> np.ndarray:
        r = np.asarray(self.r(t), dtype=float)
        if (r < 0).any():
            raise ValueError("amplitude must be non-negative")
        return r * r

    def density_rate(self, t: float) -> np.ndarray:
        if self.drdt is not None:
            return 2.0 * np.asarray(self.r(t)) * np.asarray(self.drdt(t))
        h = 1e-6
        return (self.density(t + h) - self.density(t - h)) / (2 * h)


def _grad(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * dx)
    out[0] = (f[1] - f[0]) / dx
    out[-1] = (f[-1] - f[-2]) / dx
    return out


def _lap(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / dx**2
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def phase_from_continuity(grid: GridSystem1D, t: float, hbar: float | None = None) -> np.ndarray:
    """Phase theta(x, t) solving d_x(r^2 d_x theta) = -(m/hbar) d_t(r^2).

    Integrated from the left edge with d_x theta(x_min) = 0; the additive
    constant anchors theta = 0 at the density maximum. Probability flux
    through a region where r is below the floor cannot be carried by a
    finite phase gradient and raises IllConditionedError.
    """
    hb = config.hbar(hbar)
    rho = grid.density(t)
    drho = grid.density_rate(t)
    flux = -(grid.mass / hb) * cumulative_trapezoid(drho, grid.x)
    dead = rho < grid.r_floor**2
    flux_scale = max(np.abs(flux).max(), 1e-300)
    if (np.abs(flux[dead]) > 1e-6 * flux_scale).any():
        raise IllConditionedError(
            "probability flux crosses a region with amplitude below r_floor; "
            "the continuity equation has no well-conditioned phase there"
        )
    grad_theta = np.zeros_like(rho)
    grad_theta[~dead] = flux[~dead] / rho[~dead]
    theta = cumulative_trapezoid(grad_theta, grid.x)
    theta -= theta[np.argmax(rho)]
    return theta


def potentials_from_wavefunction(
    grid: GridSystem1D,
    theta_of_t: Callable[[float], np.ndarray],
    t: float,
    hbar: float | None = None,
    fd_step: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """(Re V, Im V) reconstructed from amplitude and phase at time t.

    Re V = -hbar d_t theta + hbar^2/2m [ (d_x^2 r)/r - (d_x theta)^2 ];
    Im V = hbar (d_t r)/r + hbar^2/2m [ d_x^2 theta + 2 (d_x theta)(d_x r)/r ].
    Im V is a diagnostic: it vanishes when theta solves the continuity
    equation. Outside the amplitude support the potentials are continued
    with their nearest defined value.
    """
    hb = config.hbar(hbar)
    r = np.asarray(grid.r(t), dtype=float)
    th = theta_of_t(t)
    dth_dt = (theta_of_t(t + fd_step) - theta_of_t(t - fd_step)) / (2 * fd_step)
    if grid.drdt is not None:
        drdt = np.asarray(grid.drdt(t))
    else:
        drdt = (np.asarray(grid.r(t + fd_step)) - np.asarray(grid.r(t - fd_step))) / (2 * fd_step)
    live = r > grid.r_floor
    inv_r = np.zeros_like(r)
    inv_r[live] = 1.0 / r[live]
    grad_th = _grad(th, grid.dx)
    reV = -hb * dth_dt + hb**2 / (2 * grid.mass) * (_lap(r, grid.dx) * inv_r - grad_th**2)
    imV = hb * drdt * inv_r + hb**2 / (2 * grid.mass) * (
        _lap(th, grid.dx) + 2 * grad_th * _grad(r, grid.dx) * inv_r
    )
    reV = _continue_outside(reV, live)
    imV = _continue_outside(imV, live)
    return reV, imV


def _continue_outside(V: np.ndarray, live: np.ndarray) -> np.ndarray:
    if live.all():
        return V
    idx = np.where(live)[0]
    out = V.copy()
    out[: idx[0]] = V[idx[0]]
    out[idx[-1] + 1 :] = V[idx[-1]]
    return out


def ff_potential(
    grid: GridSystem1D,
    theta_of_t: Callable[[float], np.ndarray],
    rescale: TimeRescaling,
    t: float,
    hbar: float | None = None,
    fd_step: float = 1e-6,
) -> np.ndarray:
    """Real fast-forward potential at time t for the phase choice
    f = (ds/dt - 1) theta(s):

    V_FF = Re V(s) - hbar s'' theta(s) - hbar (s'^2 - 1) d_s theta(s)
           - hbar^2/2m (s'^2 - 1) (d_x theta(s))^2.
    """
    hb = config.hbar(hbar)
    s = rescale.s(t)
    sp = rescale.dsdt(t)
    spp = rescale.d2sdt2(t)
    reV, _ = potentials_from_wavefunction(grid, theta_of_t, s, hbar=hbar, fd_step=fd_step)
    th = theta_of_t(s)
    dth_ds = (theta_of_t(s + fd_step) - theta_of_t(s - fd_step)) / (2 * fd_step)
    grad_th = _grad(th, grid.dx)
    return (
        reV
        - hb * spp * th
        - hb * (sp**2 - 1.0) * dth_ds
        - hb**2 / (2 * grid.mass) * (sp**2 - 1.0) * grad_th**2
    )


def ff_wavefunction(
    grid: GridSystem1D,
    theta_of_t: Callable[[float], np.ndarray],
    rescale: TimeRescaling,
    t: float,
) -> np.ndarray:
    """Target fast-forward state r(x, s) e^{i (ds/dt) theta(x, s)}."""
    s = rescale.s(t)
    return np.asarray(grid.r(s), dtype=complex) * np.exp(1j * rescale.dsdt(t) * theta_of_t(s))


def split_step_evolve(
    x: np.ndarray,
    V_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    duration: float,
    n_steps: int,
    mass: float,
    hbar: float | None = None,
) -> np.ndarray:
    """Strang-split Fourier reference integrator (periodic boundary).

    Independent of the finite-difference construction path; the domain should
    be padded so boundary density stays negligible.
    """
    hb = config.hbar(hbar)
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    k = 2 * np.pi * np.fft.fftfreq(len(x), d=dx)
    dt = duration / n_steps
    half_kin = np.exp(-1j * (hb * k**2 / (2 * mass)) * dt / 2)
    psi = np.asarray(psi0, dtype=complex).copy()
    for n in range(n_steps):
        tm = (n + 0.5) * dt
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        psi = np.exp(-1j * V_of_t(tm) * dt / hb) * psi
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
    return psi
