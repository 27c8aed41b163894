"""Norm-preserving integration of the time-dependent Schrodinger equation,
adiabatic-frame coefficients, and overlap metrics.

Each step of ``evolve`` applies exp(-i dt H/hbar) of the midpoint Hamiltonian,
so the global error is O(dt^2). Population invariants at the 1e-7 level need
norm preservation by construction, which generic adaptive ODE steppers do not
guarantee.

Time stacks. A time callable such as ``H_of_t`` maps a 1-D array of n times
to an (n, D, D) stack; ``stack_at`` enforces that contract. Kernels walk a
grid in chunks (``time_chunks``): the first chunk holds one time and fixes D,
every later one holds as many times as fit one complex (n, D, D) stack into
``STACK_BYTES`` (1024 times at D = 2, 64 at D = 8, 16 at D = 16, 1 at
D >= 46). Only the state recursion runs point by point.

Two step kernels. A chunk of several times is one batched eigendecomposition,
whose exponentials are exactly unitary. A chunk of one time (every chunk at
D >= 46, and the first chunk of every run) applies the exponential to the
state alone by short-iterative Lanczos (``lanczos_step``; Park & Light,
J. Chem. Phys. 85, 5870 (1986)), which costs matrix-vector products instead of
a D x D eigendecomposition. Its basis grows until an a-priori bound on the
Krylov defect (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)) is
at most ``KRYLOV_TOL`` times the norm of the state, so its step is unitary and
exact to that bound; a step whose basis reaches D/2 first, where the basis
costs about as much as the eigendecomposition, goes through the
eigendecomposition instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError

#: byte budget of one complex (n, D, D) time stack
STACK_BYTES = 64 * 1024

#: bound on the Lanczos step's Krylov defect, per unit norm of the state
KRYLOV_TOL = 1e-16


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
    """Time-indexed normalized state vectors."""

    grid: np.ndarray
    states: np.ndarray             # (n_t, D)

    def final(self) -> np.ndarray:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def step_unitary(H: np.ndarray, dt, hbar: float = 1.0) -> np.ndarray:
    """exp(-i dt H / hbar) by eigendecomposition; exactly unitary at desk scale.

    H is one (D, D) matrix or an (n, D, D) stack, dt a number or one step per
    matrix."""
    if not np.isfinite(H).all():
        raise ValueError("Hamiltonian contains non-finite entries")
    E, V = np.linalg.eigh(H)
    phase = np.exp(-1j * E * np.asarray(dt, dtype=float)[..., None] / hbar)
    return (V * phase[..., None, :]) @ V.conj().swapaxes(-1, -2)


def lanczos_step(H: np.ndarray, psi: np.ndarray, tau: float) -> np.ndarray | None:
    """exp(-i tau H) psi by short-iterative Lanczos, or None when the basis
    reaches D/2 vectors before its defect bound holds.

    The Krylov basis of the Hermitian part A of H is reorthogonalized in full,
    in two passes per vector. With T_m the m x m Lanczos tridiagonal and
    beta_k its couplings (beta_m the norm of the residual), the defect of an
    m-vector step is at most, per unit norm of psi,

        tau beta_m [tau^(m-1) prod_{k<m} beta_k / (m-1)! + x^m e^x / m!],  x = tau ||A||_F,

    a bound on the integral over s in [0, tau] of |<e_m| exp(-i s T_m) |e_1>|
    from its first nonzero Taylor term plus the tail of the series. The basis
    grows until that is at most ``KRYLOV_TOL`` (beta_m = 0, a breakdown,
    makes it 0), and T_m is diagonalized once. Past D/2 vectors the basis
    costs about as much as a D x D eigendecomposition.
    """
    A = 0.5 * (H + H.conj().T)
    x = tau * math.sqrt(np.vdot(A, A).real)
    norm = math.sqrt(np.vdot(psi, psi).real)
    cap = len(psi) // 2
    V = np.empty((cap + 1, len(psi)), dtype=complex)
    V[0] = psi / norm
    alpha, beta = np.empty(cap), np.empty(cap)
    lead, tail = 1.0, x * math.exp(x) if x < 700.0 else math.inf
    for m in range(1, cap + 1):
        Vm = V[:m]
        w = A @ V[m - 1]
        a = 0.0
        for _ in range(2):
            h = (Vm @ w.conj()).conj()
            w -= h @ Vm
            a += h[m - 1].real
        alpha[m - 1], beta[m - 1] = a, math.sqrt(np.vdot(w, w).real)
        if beta[m - 1] == 0.0 or tau * beta[m - 1] * (lead + tail) <= KRYLOV_TOL:
            break
        V[m] = w / beta[m - 1]
        lead *= tau * beta[m - 1] / m
        tail *= x / (m + 1)
    else:
        return None
    T = np.diag(alpha[:m]) + np.diag(beta[:m - 1], 1) + np.diag(beta[:m - 1], -1)
    theta, S = np.linalg.eigh(T)
    return norm * ((S @ (np.exp(-1j * tau * theta) * S[0])) @ V[:m])


def _chunk_states(H: np.ndarray, psi: np.ndarray, dt: np.ndarray, hbar: float):
    """Yield the state after each step of one time chunk: by ``lanczos_step``
    when the chunk holds one time and its basis suffices, else by one batched
    eigendecomposition of the chunk."""
    if len(H) == 1:
        psi_next = lanczos_step(H[0], psi, dt[0] / hbar)
        if psi_next is not None:
            yield psi_next
            return
    E, V = np.linalg.eigh(H)
    phase = np.exp(-1j * E * dt[:, None] / hbar)
    Vh = V.conj().swapaxes(1, 2)
    for k in range(len(H)):
        psi = V[k] @ (phase[k] * (Vh[k] @ psi))
        yield psi


def evolve(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    psi0: np.ndarray,
    grid: np.ndarray,
    steps_per_interval: int = 1,
    hbar: float = 1.0,
) -> StateTrajectory:
    """Propagate psi0 along a time grid under H(t).

    Each grid interval is split into ``steps_per_interval`` sub-steps; each
    sub-step applies exp(-i dt H/hbar) of the midpoint Hamiltonian. The
    midpoint Hamiltonians are evaluated one ``time_chunks`` chunk at a time,
    and the chunk length, which follows from D, picks the step kernel: a chunk
    of several times is diagonalized in one batched ``eigh``, whose steps are
    exactly unitary; a chunk of one time (every chunk at D >= 46, and the
    first chunk) steps by ``lanczos_step``, unitary and exact to within
    ``KRYLOV_TOL`` times the norm of the state, and falls back to the
    ``eigh`` step when its Krylov basis would reach D/2 vectors first. Every
    chunk must be finite, and its D must match ``psi0``; ``steps_per_interval``
    must be an int >= 1. psi0 is copied to a contiguous array, so the
    trajectory does not depend on its memory layout.
    """
    per = steps_per_interval
    if isinstance(per, bool) or not isinstance(per, (int, np.integer)) or per < 1:
        raise ValueError(f"steps_per_interval must be an int >= 1, got {per!r}")
    grid = np.asarray(grid, dtype=float)
    # a contiguous copy: BLAS sums a strided vector in another order
    psi = np.ascontiguousarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    dt = np.repeat(np.diff(grid) / per, per)
    tm = np.repeat(grid[:-1], per) + (np.tile(np.arange(per), len(grid) - 1) + 0.5) * dt
    states = np.empty((len(grid), len(psi)), dtype=complex)
    states[0] = psi
    for start, H in time_chunks(H_of_t, tm):
        if H.shape[1] != len(psi):
            raise DimensionMismatchError(f"psi0 has shape {psi.shape}, the Hamiltonian {H.shape[1:]}")
        finite = np.isfinite(H).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"Hamiltonian contains non-finite entries at t = {tm[start + np.argmin(finite)]}")
        for k, psi in enumerate(_chunk_states(H, psi, dt[start:start + len(H)], hbar), start + 1):
            if k % per == 0:
                states[k // per] = psi
    return StateTrajectory(grid=grid, states=states)


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


def adiabatic_coefficients(traj: StateTrajectory, path, hbar: float = 1.0) -> np.ndarray:
    """Adiabatic-frame coefficients c_n(t) = e^{+(i/hbar) int E_n} <n(t)|Psi(t)>
    of the modes ``path`` keeps: an (n_t, K) array whose column k is mode
    ``path.modes[k]``, so (n_t, D) for a path that keeps every mode.

    ``path`` is an EigenPath on the same grid. The dynamical phase is removed
    so that |c_n| is constant exactly when transitions are suppressed. The
    overlaps are taken against the conjugated states, so the (n_t, D, K)
    path is never copied.
    """
    if len(traj.grid) != len(path.grid) or np.abs(traj.grid - path.grid).max() > 1e-12 * max(
        1.0, abs(traj.grid[-1])
    ):
        raise ValueError("trajectory and eigenpath grids are not aligned")
    dyn = cumulative_trapezoid(path.energies[:, path.modes], path.grid) / hbar
    raw = np.einsum("tdn,td->tn", path.vectors, traj.states.conj()).conj()
    return np.exp(1j * dyn) * raw
