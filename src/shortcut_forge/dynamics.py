"""Norm-preserving integration of the time-dependent Schrodinger equation,
adiabatic-frame coefficients, and overlap metrics.

The propagator exponentiates the midpoint Hamiltonian of each step by
eigendecomposition, so every step is exactly unitary and the global error is
O(dt^2). Population invariants at the 1e-7 level need norm preservation by
construction, which generic adaptive ODE steppers do not guarantee.

Time stacks. A time callable such as ``H_of_t`` maps a 1-D array of n times
to an (n, D, D) stack; ``stack_at`` enforces that contract. Kernels walk a
grid in chunks (``time_chunks``): the first chunk holds one time and fixes D,
every later one holds as many times as fit one complex (n, D, D) stack into
``STACK_BYTES`` (1024 times at D = 2, 64 at D = 8, 16 at D = 16, 1 at
D >= 64), and each chunk is one batched eigendecomposition. Only the state
recursion runs point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .errors import DimensionMismatchError

#: byte budget of one complex (n, D, D) time stack
STACK_BYTES = 64 * 1024


def stack_at(H_of_t: Callable[[np.ndarray], np.ndarray], times: np.ndarray) -> np.ndarray:
    """H_of_t(times) as a complex (n, D, D) stack; any other shape is a ValueError."""
    H = np.asarray(H_of_t(times), dtype=complex)
    if H.ndim != 3 or H.shape[0] != len(times) or H.shape[1] != H.shape[2]:
        raise ValueError(f"a time callable must map {len(times)} times to an ({len(times)}, D, D) stack, "
                         f"got shape {H.shape}")
    return H


def time_chunks(H_of_t: Callable[[np.ndarray], np.ndarray], times: np.ndarray):
    """Yield (start, H_of_t(times[start:start + n])) over consecutive chunks of
    ``times``: one time first, then chunks of the ``STACK_BYTES`` budget."""
    times = np.asarray(times, dtype=float)
    start, n = 0, 1
    while start < len(times):
        H = stack_at(H_of_t, times[start:start + n])
        yield start, H
        start += n
        n = max(1, STACK_BYTES // (16 * H.shape[1] ** 2))


def sample(H_of_t: Callable[[np.ndarray], np.ndarray], times: np.ndarray) -> np.ndarray:
    """The whole (n, D, D) stack of H_of_t on ``times``, evaluated chunk by chunk."""
    return np.concatenate([H for _, H in time_chunks(H_of_t, times)])


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


def step_unitary(H: np.ndarray, dt, hbar: float | None = None) -> np.ndarray:
    """exp(-i dt H / hbar) by eigendecomposition; exactly unitary at desk scale.

    H is one (D, D) matrix or an (n, D, D) stack, dt a number or one step per
    matrix."""
    hb = config.hbar(hbar)
    if not np.isfinite(H).all():
        raise ValueError("Hamiltonian contains non-finite entries")
    E, V = np.linalg.eigh(H)
    phase = np.exp(-1j * E * np.asarray(dt, dtype=float)[..., None] / hb)
    return (V * phase[..., None, :]) @ V.conj().swapaxes(-1, -2)


def evolve(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    psi0: np.ndarray,
    grid: np.ndarray,
    steps_per_interval: int = 1,
    hbar: float | None = None,
) -> StateTrajectory:
    """Propagate psi0 along a time grid under H(t).

    Each grid interval is split into ``steps_per_interval`` sub-steps; each
    sub-step applies the exponential of the midpoint Hamiltonian. The
    midpoint Hamiltonians are evaluated and diagonalized one time chunk at a
    time; the state then steps through the chunk in order.
    """
    hb = config.hbar(hbar)
    grid = np.asarray(grid, dtype=float)
    psi = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    per = steps_per_interval
    dt = np.repeat(np.diff(grid) / per, per)
    tm = np.repeat(grid[:-1], per) + (np.tile(np.arange(per), len(grid) - 1) + 0.5) * dt
    states = np.empty((len(grid), len(psi)), dtype=complex)
    states[0] = psi
    for start, H in time_chunks(H_of_t, tm):
        finite = np.isfinite(H).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"Hamiltonian contains non-finite entries at t = {tm[start + np.argmin(finite)]}")
        E, V = np.linalg.eigh(H)
        phase = np.exp(-1j * E * dt[start:start + len(H), None] / hb)
        Vh = V.conj().swapaxes(1, 2)
        for k in range(len(H)):
            psi = V[k] @ (phase[k] * (Vh[k] @ psi))
            if (start + k + 1) % per == 0:
                states[(start + k + 1) // per] = psi
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
