"""Trotterized counterdiabatic driving and empirical error-scaling fits.

The digitized propagator alternates exact exponentials of the reference and
counterdiabatic terms over M uniform slices,

    U(T) ~ prod_{n=M..1} exp(-i dt H(t_n)/hbar) exp(-i dt H_cd(t_n)/hbar),

sampled at the right endpoints t_n = n T / M (midpoint sampling available for
sensitivity checks). Infidelity against a coherent target scales as 1/M^2.
The baseline of a constant non-commuting pair powers one step unitary per
slice count; first-order product-formula theory bounds its state error,
which scales as 1/M, so that is the metric it fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import fidelity, sample, step_unitary

ORDERINGS = ("h-then-cd", "cd-then-h")   # operator order within a slice
SAMPLINGS = ("right", "midpoint")        # where each slice samples H and H_cd


@dataclass
class TrotterPlan:
    """Uniform slicing of [0, T] into M product-formula steps."""

    M: int
    T: float
    ordering: str = "h-then-cd"      # operator order in the product (cd acts on the state first)
    sampling: str = "right"          # "right" endpoints n T/M, or "midpoint"

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.sampling not in SAMPLINGS:
            raise ValueError(f"unknown sampling {self.sampling!r}")

    @property
    def dt(self) -> float:
        return self.T / self.M

    def sample_time(self, n):
        """Sampling time of slice n (1-based), or of an array of slices."""
        if self.sampling == "right":
            return n * self.T / self.M
        return (n - 0.5) * self.T / self.M


def trotter_step_unitaries(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    cd_of_t: Callable[[np.ndarray], np.ndarray],
    plan: TrotterPlan,
    hbar: float = 1.0,
) -> np.ndarray:
    """The (M, D, D) stack of per-slice unitaries of the digitized
    counterdiabatic product, built from one time stack of each term."""
    tn = plan.sample_time(np.arange(1, plan.M + 1))
    Uh = step_unitary(sample(H_of_t, tn), plan.dt, hbar=hbar)
    Uc = step_unitary(sample(cd_of_t, tn), plan.dt, hbar=hbar)
    return Uh @ Uc if plan.ordering == "h-then-cd" else Uc @ Uh


def trotter_cd_evolve(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    cd_of_t: Callable[[np.ndarray], np.ndarray],
    plan: TrotterPlan,
    psi0: np.ndarray,
    hbar: float = 1.0,
) -> np.ndarray:
    """Apply the digitized counterdiabatic product to psi0.

    Each slice uses exact (eigendecomposition) exponentials, so the composed
    map is unitary for any M; as M grows the result converges to continuous
    evolution under H + H_cd.
    """
    psi = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    for U in trotter_step_unitaries(H_of_t, cd_of_t, plan, hbar=hbar):
        psi = U @ psi
    return psi


#: infidelities below this are integrator noise, not Trotter error
ERROR_FLOOR = 1e-12


@dataclass
class ScalingReport:
    """Log-log fit of digitization error against slice count."""

    M_list: np.ndarray
    values: np.ndarray
    metric: str
    slope: float | None
    slope_stderr: float | None
    intercept: float | None = None
    fit_skipped: bool = False
    note: str = ""


def digitization_error(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    cd_of_t: Callable[[np.ndarray], np.ndarray],
    T: float,
    M_list,
    target: np.ndarray,
    psi0: np.ndarray,
    hbar: float = 1.0,
) -> ScalingReport:
    """Infidelity 1 - |<target|psi_M>|^2 against the coherent target at T, per
    slice count, for the default ``TrotterPlan`` (right endpoints, H after
    H_cd). Points within 10x of the error floor are excluded from the
    least-squares slope fit and reported; the fit needs M_list to span at
    least two octaves.
    """
    target = np.asarray(target, dtype=complex)
    M_list = np.asarray(sorted(M_list), dtype=int)
    values = np.empty(len(M_list))
    for i, M in enumerate(M_list):
        plan = TrotterPlan(M=int(M), T=T)
        psi = trotter_cd_evolve(H_of_t, cd_of_t, plan, psi0, hbar=hbar)
        values[i] = 1.0 - fidelity(target, psi)
    return fit_scaling(M_list, values, "infidelity")


def fit_spans(M_list) -> bool:
    """Whether ascending slice counts support the scaling fit: >= 4 values over >= two octaves."""
    return len(M_list) >= 4 and M_list[-1] >= 4 * M_list[0]


def fit_scaling(M_list: np.ndarray, values: np.ndarray, metric: str) -> ScalingReport:
    """The log-log slope fit of ``digitization_error`` and
    ``trotter_baseline_error`` on values already measured at each M of the
    ascending M_list."""
    if not fit_spans(M_list):
        raise ValueError("need >= 4 values of M spanning at least two octaves")
    used = values > 10 * ERROR_FLOOR
    report = ScalingReport(M_list=M_list, values=values, metric=metric, slope=None, slope_stderr=None)
    if used.sum() < 2:
        report.fit_skipped = True
        report.note = "errors at the integrator floor; scaling fit skipped"
        return report
    if used.sum() < len(M_list):
        report.note = f"{len(M_list) - int(used.sum())} point(s) below 10x error floor excluded"
    logM = np.log(M_list[used].astype(float))
    logE = np.log(values[used])
    A = np.vstack([logM, np.ones_like(logM)]).T
    coef, res, *_ = np.linalg.lstsq(A, logE, rcond=None)
    report.slope, report.intercept = float(coef[0]), float(coef[1])
    n = used.sum()
    if n > 2:
        rss = float(np.sum((logE - A @ coef) ** 2))
        var = rss / (n - 2) / np.sum((logM - logM.mean()) ** 2)
        report.slope_stderr = float(np.sqrt(var))
    else:
        report.slope_stderr = float("nan")
    return report


def trotter_baseline_error(
    A: np.ndarray,
    B: np.ndarray,
    T: float,
    M_list,
    psi0: np.ndarray,
    hbar: float = 1.0,
) -> ScalingReport:
    """Conventional first-order baseline: constant non-commuting pair.

    Per slice count M, the step U = exp(-i dt A/hbar) exp(-i dt B/hbar) with
    dt = T/M (the default ``TrotterPlan`` order) is applied M times to psi0,
    and the state error ||psi_M - exp(-iT(A+B)/hbar) psi0|| is fitted; its
    slope sits at the first-order value of -1. Two D x D eigendecompositions
    per slice count and one for the target; only D-vectors grow with M.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    target = step_unitary(A + B, T, hbar=hbar) @ psi0
    M_list = np.asarray(sorted(M_list), dtype=int)
    values = np.empty(len(M_list))
    for i, M in enumerate(M_list):
        dt = TrotterPlan(M=int(M), T=T).dt
        U = step_unitary(A, dt, hbar=hbar) @ step_unitary(B, dt, hbar=hbar)
        psi = psi0
        for _ in range(M):
            psi = U @ psi
        values[i] = np.linalg.norm(psi - target)
    return fit_scaling(M_list, values, "state_error")
