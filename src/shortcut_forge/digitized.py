"""Trotterized counterdiabatic driving and empirical error-scaling fits.

The digitized propagator alternates exact exponentials of the reference and
counterdiabatic terms over M uniform slices,

    U(T) ~ prod_{n=M..1} exp(-i dt H(t_n)/hbar) exp(-i dt H_cd(t_n)/hbar),

sampled at the right endpoints t_n = n T / M (midpoint sampling available for
sensitivity checks). Infidelity against a coherent target scales as 1/M^2;
the first-order product-formula theory bounds the operator/state norm error,
which scales as 1/M, so scaling baselines should fit that metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .dynamics import fidelity, step_unitary


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
        if self.ordering not in ("h-then-cd", "cd-then-h"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.sampling not in ("right", "midpoint"):
            raise ValueError(f"unknown sampling {self.sampling!r}")

    @property
    def dt(self) -> float:
        return self.T / self.M

    def sample_time(self, n: int) -> float:
        """Sampling time of slice n (1-based)."""
        if self.sampling == "right":
            return n * self.T / self.M
        return (n - 0.5) * self.T / self.M


def trotter_step_unitaries(
    H_of_t: Callable[[float], np.ndarray],
    cd_of_t: Callable[[float], np.ndarray],
    plan: TrotterPlan,
    hbar: float | None = None,
) -> list[np.ndarray]:
    """Per-slice unitaries of the digitized counterdiabatic product."""
    hb = config.hbar(hbar)
    out = []
    for n in range(1, plan.M + 1):
        tn = plan.sample_time(n)
        Uh = step_unitary(np.asarray(H_of_t(tn), dtype=complex), plan.dt, hbar=hb)
        Uc = step_unitary(np.asarray(cd_of_t(tn), dtype=complex), plan.dt, hbar=hb)
        out.append(Uh @ Uc if plan.ordering == "h-then-cd" else Uc @ Uh)
    return out


def trotter_cd_evolve(
    H_of_t: Callable[[float], np.ndarray],
    cd_of_t: Callable[[float], np.ndarray],
    plan: TrotterPlan,
    psi0: np.ndarray,
    return_intermediate: bool = False,
    hbar: float | None = None,
):
    """Apply the digitized counterdiabatic product to psi0.

    Each slice uses exact (eigendecomposition) exponentials, so the composed
    map is unitary for any M; as M grows the result converges to continuous
    evolution under H + H_cd.
    """
    psi = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    states = [psi.copy()]
    for U in trotter_step_unitaries(H_of_t, cd_of_t, plan, hbar=hbar):
        psi = U @ psi
        if return_intermediate:
            states.append(psi.copy())
    if return_intermediate:
        return psi, np.array(states)
    return psi


#: infidelities below this are integrator noise, not Trotter error
ERROR_FLOOR = 1e-12


@dataclass
class ScalingReport:
    """Log-log fit of digitization error against slice count."""

    M_list: np.ndarray
    values: np.ndarray
    metric: str
    used: np.ndarray                 # mask of points entering the fit
    slope: float | None
    slope_stderr: float | None
    intercept: float | None = None
    fit_skipped: bool = False
    note: str = ""
    per_M: dict = field(default_factory=dict)


def digitization_error(
    H_of_t: Callable[[float], np.ndarray],
    cd_of_t: Callable[[float], np.ndarray],
    T: float,
    M_list,
    target: np.ndarray,
    metric: str = "infidelity",
    ordering: str = "h-then-cd",
    sampling: str = "right",
    psi0: np.ndarray | None = None,
    hbar: float | None = None,
) -> ScalingReport:
    """Digitization error against the coherent target at T, per slice count.

    metric "infidelity" is 1 - |<target|psi_M>|^2; metric "state_error" is
    the 2-norm ||psi_M - target|| (the quantity first-order product-formula
    theory bounds). Points within 10x of the error floor are excluded from
    the least-squares slope fit and reported; the fit needs M_list to span
    at least two octaves.
    """
    if metric not in ("infidelity", "state_error"):
        raise ValueError(f"unknown metric {metric!r}")
    target = np.asarray(target, dtype=complex)
    if psi0 is None:
        raise ValueError("psi0 is required (the digitized product needs an initial state)")
    M_list = np.asarray(sorted(M_list), dtype=int)
    values = np.empty(len(M_list))
    for i, M in enumerate(M_list):
        plan = TrotterPlan(M=int(M), T=T, ordering=ordering, sampling=sampling)
        psi = trotter_cd_evolve(H_of_t, cd_of_t, plan, psi0, hbar=hbar)
        if metric == "infidelity":
            values[i] = 1.0 - fidelity(target, psi)
        else:
            values[i] = np.linalg.norm(psi - target)
    return _fit_scaling(M_list, values, metric)


def _fit_scaling(M_list: np.ndarray, values: np.ndarray, metric: str) -> ScalingReport:
    """The log-log slope fit of ``digitization_error`` on values already
    measured at each M of the ascending M_list."""
    if len(M_list) < 4 or M_list[-1] < 4 * M_list[0]:
        raise ValueError("need >= 4 values of M spanning at least two octaves")
    used = values > 10 * ERROR_FLOOR
    report = ScalingReport(
        M_list=M_list, values=values, metric=metric, used=used,
        slope=None, slope_stderr=None,
        per_M={int(M): float(v) for M, v in zip(M_list, values)},
    )
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
    metric: str = "state_error",
    hbar: float | None = None,
) -> ScalingReport:
    """Conventional first-order baseline: constant non-commuting pair.

    Trotterizes exp(-iT(A+B)) as M alternating steps and measures the chosen
    error metric against the exact evolution; with the norm metric the fitted
    slope sits at the first-order value of -1.
    """
    hb = config.hbar(hbar)
    target = step_unitary(np.asarray(A + B, dtype=complex), T, hbar=hb) @ np.asarray(psi0, dtype=complex)
    return digitization_error(
        lambda t: A, lambda t: B, T, M_list, target, metric=metric, psi0=psi0, hbar=hb
    )
