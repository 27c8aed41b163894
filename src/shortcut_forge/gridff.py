"""Coordinate-space fast-forward on a uniform 1-D grid.

Given a target amplitude r(x, t), the phase theta(x, t) follows from the
continuity equation d_x(r^2 d_x theta) = -(m/hbar) d_t(r^2), the reference
potential from inverting the Schrodinger equation for r e^{i theta}, and the
fast-forward potential from the time-rescaled phase choice
f = (ds/dt - 1) theta(s). This is the coordinate form of the generator
relation in ``fastforward``: the state r(x, s) e^{i (ds/dt) theta(x, s)}
reproduces the reference density r(x, s(t))^2 on the rescaled clock, with
the phase entering e^{+i f} as there. A split-step Fourier integrator
(periodic boundary) serves as the independent reference for acceptance
checks; the construction itself uses second-order central differences only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import cumulative_trapezoid
from .errors import IllConditionedError
from .fastforward import TimeRescaling

#: amplitude below which the grid carries no phase: no flux may cross it, and
#: the reference potential is continued over it
R_FLOOR = 1e-8


@dataclass
class GridSystem1D:
    """Uniform grid, particle mass, the target amplitude r(x, t) >= 0 and its
    time derivative."""

    x: np.ndarray
    mass: float
    r: Callable[[float], np.ndarray]           # t -> amplitude on the grid
    drdt: Callable[[float], np.ndarray]        # t -> d_t r on the grid

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
        return 2.0 * np.asarray(self.r(t)) * np.asarray(self.drdt(t))


def _lap(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / dx**2
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def phase_from_continuity(grid: GridSystem1D, t: float, hbar: float = 1.0) -> np.ndarray:
    """Phase theta(x, t) solving d_x(r^2 d_x theta) = -(m/hbar) d_t(r^2).

    Integrated from the left edge with d_x theta(x_min) = 0; the additive
    constant anchors theta = 0 at the density maximum. Probability flux
    through a region where r is below the floor cannot be carried by a
    finite phase gradient and raises IllConditionedError.
    """
    rho = grid.density(t)
    drho = grid.density_rate(t)
    flux = -(grid.mass / hbar) * cumulative_trapezoid(drho, grid.x)
    dead = rho < R_FLOOR**2
    flux_scale = max(np.abs(flux).max(), 1e-300)
    if (np.abs(flux[dead]) > 1e-6 * flux_scale).any():
        raise IllConditionedError(
            "probability flux crosses a region with amplitude below R_FLOOR; "
            "the continuity equation has no well-conditioned phase there"
        )
    grad_theta = np.zeros_like(rho)
    grad_theta[~dead] = flux[~dead] / rho[~dead]
    theta = cumulative_trapezoid(grad_theta, grid.x)
    theta -= theta[np.argmax(rho)]
    return theta


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
    rescale: TimeRescaling,
    t: float,
    hbar: float = 1.0,
) -> np.ndarray:
    """Real fast-forward potential at time t for the phase choice
    f = (ds/dt - 1) theta(s):

    V_FF = Re V(s) - hbar s'' theta(s) - hbar (s'^2 - 1) d_s theta(s)
           - hbar^2/2m (s'^2 - 1) (d_x theta(s))^2,

    where Re V = -hbar d_s theta + hbar^2/2m [(d_x^2 r)/r - (d_x theta)^2] is
    the reference potential of r e^{i theta}, with theta from
    ``phase_from_continuity``. Outside the amplitude support (r above
    R_FLOOR) Re V is continued with its nearest defined value. d_s theta is
    a central difference whose step, T_ref / n_points on the reference
    clock, shrinks with dx: the potential stays second order in dx without
    the step falling to where rounding in theta dominates.
    """
    s = rescale.s(t)
    sp = rescale.dsdt(t)
    spp = rescale.d2sdt2(t)
    r = np.asarray(grid.r(s), dtype=float)
    theta = lambda u: phase_from_continuity(grid, u, hbar=hbar)
    th = theta(s)
    h = rescale.s(rescale.T_ff) / len(grid.x)
    dth_ds = (theta(s + h) - theta(s - h)) / (2 * h)
    live = r > R_FLOOR
    inv_r = np.zeros_like(r)
    inv_r[live] = 1.0 / r[live]
    grad_th = np.gradient(th, grid.dx)
    reV = -hbar * dth_ds + hbar**2 / (2 * grid.mass) * (_lap(r, grid.dx) * inv_r - grad_th**2)
    return (
        _continue_outside(reV, live)
        - hbar * spp * th
        - hbar * (sp**2 - 1.0) * dth_ds
        - hbar**2 / (2 * grid.mass) * (sp**2 - 1.0) * grad_th**2
    )


def split_step_evolve(
    x: np.ndarray,
    V_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    duration: float,
    n_steps: int,
    mass: float,
    hbar: float = 1.0,
) -> np.ndarray:
    """Strang-split Fourier reference integrator (periodic boundary).

    Independent of the finite-difference construction path; the domain should
    be padded so boundary density stays negligible.
    """
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    k = 2 * np.pi * np.fft.fftfreq(len(x), d=dx)
    dt = duration / n_steps
    half_kin = np.exp(-1j * (hbar * k**2 / (2 * mass)) * dt / 2)
    psi = np.asarray(psi0, dtype=complex).copy()
    for n in range(n_steps):
        tm = (n + 0.5) * dt
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        psi = np.exp(-1j * V_of_t(tm) * dt / hbar) * psi
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
    return psi
