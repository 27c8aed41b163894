"""Norm-preserving integration of the time-dependent Schrodinger equation,
adiabatic-frame coefficients, and overlap metrics.

The propagator exponentiates the midpoint Hamiltonian of each step by
eigendecomposition, so every step is exactly unitary and the global error is
O(dt^2). Population invariants at the 1e-7 level need norm preservation by
construction, which generic adaptive ODE steppers do not guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .errors import DimensionMismatchError


@dataclass
class StateTrajectory:
    """Time-indexed normalized state vectors plus integration metadata."""

    grid: np.ndarray
    states: np.ndarray             # (n_t, D)
    method: str = "midpoint-exponential"
    steps_per_interval: int = 1
    hbar: float = 1.0
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def final(self) -> np.ndarray:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def step_unitary(H: np.ndarray, dt: float, hbar: float | None = None) -> np.ndarray:
    """exp(-i dt H / hbar) by eigendecomposition; exactly unitary at desk scale."""
    hb = config.hbar(hbar)
    if not np.isfinite(H).all():
        raise ValueError("Hamiltonian contains non-finite entries")
    E, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * E * dt / hb)[None, :]) @ V.conj().T


def evolve(
    H_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    grid: np.ndarray,
    steps_per_interval: int = 1,
    hbar: float | None = None,
) -> StateTrajectory:
    """Propagate psi0 along a time grid under H(t).

    Each grid interval is split into ``steps_per_interval`` sub-steps; each
    sub-step applies the exponential of the midpoint Hamiltonian.
    """
    hb = config.hbar(hbar)
    grid = np.asarray(grid, dtype=float)
    psi = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    states = np.empty((len(grid), len(psi)), dtype=complex)
    states[0] = psi
    for i in range(len(grid) - 1):
        dt = (grid[i + 1] - grid[i]) / steps_per_interval
        for j in range(steps_per_interval):
            tm = grid[i] + (j + 0.5) * dt
            H = np.asarray(H_of_t(tm), dtype=complex)
            if not np.isfinite(H).all():
                raise ValueError(f"Hamiltonian contains non-finite entries at t = {tm}")
            E, V = np.linalg.eigh(H)
            psi = V @ (np.exp(-1j * E * dt / hb) * (V.conj().T @ psi))
        states[i + 1] = psi
    return StateTrajectory(
        grid=grid, states=states, steps_per_interval=steps_per_interval, hbar=hb
    )


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over the grid x along the first
    axis, zero at x[0]; the result has the shape of y."""
    y = np.asarray(y)
    dx = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    steps = dx * (y[1:] + y[:-1]) / 2.0
    return np.concatenate([np.zeros((1,) + steps.shape[1:], dtype=steps.dtype), np.cumsum(steps, axis=0)])


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> with the physics convention (conjugate-linear in the first slot)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"state shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2, insensitive to the global phase of either state."""
    return abs(overlap(a, b)) ** 2


def adiabatic_coefficients(traj: StateTrajectory, path, hbar: float | None = None) -> np.ndarray:
    """Adiabatic-frame coefficients c_n(t) = e^{+(i/hbar) int E_n} <n(t)|Psi(t)>.

    ``path`` is an EigenPath on the same grid. The dynamical phase is removed
    so that |c_n| is constant exactly when transitions are suppressed.
    """
    hb = config.hbar(hbar)
    if len(traj.grid) != len(path.grid) or np.abs(traj.grid - path.grid).max() > 1e-12 * max(
        1.0, abs(traj.grid[-1])
    ):
        raise ValueError("trajectory and eigenpath grids are not aligned")
    dyn = cumulative_trapezoid(path.energies, path.grid) / hb
    raw = np.einsum("tdn,td->tn", path.vectors.conj(), traj.states)
    return np.exp(1j * dyn) * raw
