"""Quantum-speed-limit certificates for approximate shortcuts.

Two driven states can separate no faster than the accumulated standard
deviation of their Hamiltonian difference allows:

    |<Psi_1(t)|Psi_2(t)>| >= cos( (1/hbar) int_0^t L dt' ),
    L(t) = stddev of (H_1 - H_2) in either trajectory's state.

A discretized form bounds digitized protocols through per-step propagator
mismatch angles. Angles are reported raw beyond pi/2 (the cosine bound is
then vacuous but the integrand remains a nonadiabaticity measure).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .dynamics import StateTrajectory, cumulative_trapezoid


@dataclass
class BoundReport:
    """Accumulated bound angle, the cosine bound, and observed overlaps."""

    grid: np.ndarray
    angle: np.ndarray                 # non-decreasing accumulated angle (radians)
    bound: np.ndarray                 # cos(angle), vacuous once angle > pi/2
    observed: np.ndarray | None = None
    vacuous: np.ndarray = field(default=None)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.vacuous is None:
            self.vacuous = self.angle > np.pi / 2

    def margin(self) -> np.ndarray:
        """observed - bound; the inequality asserts this stays >= -1e-8."""
        if self.observed is None:
            raise ValueError("no observed trajectory was supplied")
        return self.observed - self.bound

    def holds(self, tol: float = 1e-8) -> bool:
        return bool((self.margin() >= -tol).all())


def stddev_in_state(X: np.ndarray, psi: np.ndarray) -> float:
    """Standard deviation of a Hermitian operator in a pure state.

    Computed as the norm of the deviation vector (X - <X>)|psi>, which is
    algebraically <X^2> - <X>^2 without the catastrophic cancellation of the
    explicit difference when the deviation is tiny.
    """
    Xp = X @ psi
    mean = np.vdot(psi, Xp)
    return float(np.linalg.norm(Xp - mean * psi))


def qsl_continuous(
    H1_of_t: Callable[[float], np.ndarray],
    H2_of_t: Callable[[float], np.ndarray],
    reference: StateTrajectory,
    other: StateTrajectory | None = None,
    hbar: float | None = None,
) -> BoundReport:
    """Continuous bound from the reference trajectory (solving either H_1 or H_2).

    The integrand L(t_i) is evaluated on the reference grid and accumulated
    with the trapezoid rule. When the other trajectory is supplied the
    per-time |overlap| is reported alongside for the inequality check.
    """
    hb = config.hbar(hbar)
    grid = reference.grid
    L = np.empty(len(grid))
    for i, t in enumerate(grid):
        dHm = np.asarray(H1_of_t(t), dtype=complex) - np.asarray(H2_of_t(t), dtype=complex)
        L[i] = stddev_in_state(dHm, reference.states[i])
    angle = cumulative_trapezoid(L, grid) / hb
    observed = None
    if other is not None:
        if len(other.grid) != len(grid) or np.abs(other.grid - grid).max() > 1e-12 * max(1.0, abs(grid[-1])):
            raise ValueError("reference and other trajectory grids are not aligned")
        observed = np.abs(np.einsum("ti,ti->t", reference.states.conj(), other.states))
    return BoundReport(grid=grid, angle=angle, bound=np.cos(angle), observed=observed,
                       metadata={"integrand": L})


def qsl_discrete(
    U1_steps: list[np.ndarray],
    U2_steps: list[np.ndarray],
    reference_states: np.ndarray,
    grid: np.ndarray | None = None,
    reference_index: int = 1,
    observed: np.ndarray | None = None,
    clamp_warn: float = 1e-9,
) -> BoundReport:
    """Discretized bound from per-slice propagators.

    L_n = arccos |<Psi_i(t_n)| U_ibar U_i^dag |Psi_i(t_n)>| with Psi_i the
    reference trajectory (index 1 or 2) sampled at slice ends; the bound at
    slice n is cos(sum_{m<=n} L_m). Overlap magnitudes exceeding 1 by more
    than ``clamp_warn`` trigger a warning before clamping.
    """
    if len(U1_steps) != len(U2_steps):
        raise ValueError("step lists must have equal length")
    M = len(U1_steps)
    reference_states = np.asarray(reference_states, dtype=complex)
    if reference_states.shape[0] != M + 1:
        raise ValueError("need M + 1 reference states (slice boundaries)")
    if reference_index not in (1, 2):
        raise ValueError("reference_index must be 1 or 2")
    Ui = U1_steps if reference_index == 1 else U2_steps
    Ubar = U2_steps if reference_index == 1 else U1_steps
    L = np.empty(M)
    for n in range(M):
        psi = reference_states[n + 1]
        val = abs(np.vdot(psi, Ubar[n] @ (Ui[n].conj().T @ psi)))
        if val > 1.0 + clamp_warn:
            warnings.warn(f"overlap magnitude {val - 1.0:.2e} above 1 clamped at slice {n + 1}")
        L[n] = np.arccos(min(val, 1.0))
    angle = np.concatenate([[0.0], np.cumsum(L)])
    if grid is None:
        grid = np.arange(M + 1, dtype=float)
    return BoundReport(grid=np.asarray(grid, float), angle=angle, bound=np.cos(angle),
                       observed=observed, metadata={"per_step_angle": L, "reference_index": reference_index})
