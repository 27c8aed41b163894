"""Quantum-speed-limit certificates for approximate shortcuts.

Two driven states can separate no faster than the accumulated standard
deviation of their Hamiltonian difference allows:

    |<Psi_1(t)|Psi_2(t)>| >= cos( (1/hbar) int_0^t L dt' ),
    L(t) = stddev of (H_1 - H_2) in either trajectory's state.

A discretized form bounds digitized protocols through per-slice mismatch
angles: the angle between the digitized step applied to the reference state
and the reference state one slice later, so it needs the digitized steps and
the reference trajectory at the slice ends only. Angles are reported raw
beyond pi/2 (the cosine bound is then vacuous but the integrand remains a
nonadiabaticity measure).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import StateTrajectory, check_aligned, cumulative_trapezoid, stack_at, time_chunks


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

    def holds(self) -> bool:
        """Whether the margin stays >= -1e-8 at every time."""
        return bool((self.margin() >= -1e-8).all())


def stddev_in_state(X: np.ndarray, psi: np.ndarray):
    """Standard deviation of a Hermitian operator in a pure state, or one per
    time for stacks X (n, D, D) and psi (n, D).

    Computed as the norm of the deviation vector (X - <X>)|psi>, which is
    algebraically <X^2> - <X>^2 without the catastrophic cancellation of the
    explicit difference when the deviation is tiny.
    """
    Xp = (X @ psi[..., None])[..., 0]
    mean = np.sum(psi.conj() * Xp, axis=-1, keepdims=True)
    out = np.linalg.norm(Xp - mean * psi, axis=-1)
    return out if out.ndim else float(out)


def qsl_continuous(
    H1_of_t: Callable[[np.ndarray], np.ndarray],
    H2_of_t: Callable[[np.ndarray], np.ndarray],
    reference: StateTrajectory,
    other: StateTrajectory | None = None,
    hbar: float = 1.0,
) -> BoundReport:
    """Continuous bound from the reference trajectory (solving either H_1 or H_2).

    The integrand L(t_i) is evaluated on the reference grid, one time stack
    per chunk, and ``qsl_from_integrand`` assembles the bound from it.
    """
    L = np.empty(len(reference.grid))
    for start, dHm in time_chunks(lambda t: stack_at(H1_of_t, t) - stack_at(H2_of_t, t), reference.grid):
        L[start:start + len(dHm)] = stddev_in_state(dHm, reference.states[start:start + len(dHm)])
    return qsl_from_integrand(L, reference, other, hbar)


def qsl_from_integrand(L: np.ndarray, reference: StateTrajectory, other: StateTrajectory | None = None,
                       hbar: float = 1.0) -> BoundReport:
    """The continuous bound from the integrand L(t_i) on the reference grid:
    the trapezoid angle (1/hbar) int L, its cosine and, given the other
    trajectory on the same grid, the per-time |overlap| for the check."""
    grid = reference.grid
    angle = cumulative_trapezoid(L, grid) / hbar
    observed = None
    if other is not None:
        check_aligned(grid, other.grid, "reference and other trajectory")
        observed = np.abs(np.einsum("ti,ti->t", reference.states.conj(), other.states))
    return BoundReport(grid=grid, angle=angle, bound=np.cos(angle), observed=observed,
                       metadata={"integrand": L})


def qsl_discrete(
    U2_steps: np.ndarray,
    reference_states: np.ndarray,
    grid: np.ndarray | None = None,
    observed: np.ndarray | None = None,
) -> BoundReport:
    """Discretized bound from per-slice propagators.

    ``reference_states`` is the trajectory Psi_1 at the M + 1 slice ends,
    Psi_1(t_{n+1}) = U_1 Psi_1(t_n) for the reference's slice propagator U_1,
    so the mismatch angle of slice n, between U_2 U_1^dag Psi_1(t_{n+1}) and
    Psi_1(t_{n+1}), needs the U_2 steps alone: with a = Psi_1(t_{n+1}) and
    b = U_2 Psi_1(t_n),

        L_n = atan2(||b - <a|b> a||, |<a|b>|),

    which is arccos |<a|b>| without its loss of half the digits at small
    angles (the deviation vector of ``stddev_in_state``). The bound at slice
    n is cos(sum_{m<=n} L_m). L_n does not change when b is rescaled, so it
    is the angle between the rays of a and b even for a step that is not
    unitary; an overlap magnitude above 1 + 1e-9 marks such a step, and one
    warning names the first. ``U2_steps`` is an (M, D, D) stack (or a
    sequence of M matrices); every angle comes from one stacked pass.
    """
    U2_steps = np.asarray(U2_steps)
    M = len(U2_steps)
    reference_states = np.asarray(reference_states, dtype=complex)
    if reference_states.shape[0] != M + 1:
        raise ValueError("need M + 1 reference states (slice boundaries)")
    a, b = reference_states[1:], (U2_steps @ reference_states[:-1, :, None])[..., 0]
    c = np.einsum("ti,ti->t", a.conj(), b)
    excess = np.abs(c) - 1.0
    bad = np.nonzero(excess > 1e-9)[0]
    if len(bad):
        warnings.warn(f"step {bad[0] + 1} is not unitary: overlap magnitude {excess[bad[0]]:.2e} above 1")
    L = np.arctan2(np.linalg.norm(b - c[:, None] * a, axis=1), np.abs(c))
    angle = np.concatenate([[0.0], np.cumsum(L)])
    if grid is None:
        grid = np.arange(M + 1, dtype=float)
    return BoundReport(grid=np.asarray(grid, float), angle=angle, bound=np.cos(angle),
                       observed=observed, metadata={"per_step_angle": L})
