"""Trotterized counterdiabatic driving and empirical error-scaling fits.

The digitized propagator alternates exact exponentials of the reference and
counterdiabatic terms over M uniform slices,

    U(T) ~ prod_{n=M..1} exp(-i dt H(t_n)) exp(-i dt H_cd(t_n)),

sampled at the right endpoints t_n = n T / M. ``digitization_error`` is the
one digitized-CD driver. Its reference is the ground mode of H, tracked by
one ``eigenpath`` on the slice ends of every M: it steps the mode's state at
t = 0 and scores the infidelity against the mode at T, which scales as 1/M^2,
beside each product's discrete QSL bound. The baseline of a constant
non-commuting pair powers one step unitary per slice count; first-order
product-formula theory bounds its state error, which scales as 1/M, so that
is the metric it fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import check_normalized, fidelity, sample, step_unitary
from .qsl import qsl_discrete
from .spectral import eigenpath


def trotter_step_unitaries(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    cd_of_t: Callable[[np.ndarray], np.ndarray],
    M: int,
    T: float,
) -> np.ndarray:
    """The (M, D, D) stack of per-slice unitaries exp(-i dt H(t_n)) exp(-i dt
    H_cd(t_n)), dt = T/M, of the digitized counterdiabatic product on [0, T],
    built from one time stack of each term."""
    if M < 1:
        raise ValueError("M must be >= 1")
    tn = np.arange(1, M + 1) * T / M
    Uh = step_unitary(sample(H_of_t, tn), T / M)
    Uc = step_unitary(sample(cd_of_t, tn), T / M)
    return Uh @ Uc


def trotter_cd_evolve(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    cd_of_t: Callable[[np.ndarray], np.ndarray],
    M: int,
    T: float,
    psi0: np.ndarray,
) -> np.ndarray:
    """Apply the digitized counterdiabatic product of M slices on [0, T] to psi0.

    Each slice uses exact (eigendecomposition) exponentials, so the composed
    map is unitary for any M; as M grows the result converges to continuous
    evolution under H + H_cd.
    """
    psi = np.asarray(psi0, dtype=complex)
    check_normalized(psi, "initial state")
    for U in trotter_step_unitaries(H_of_t, cd_of_t, M, T):
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
    qsl_bound: np.ndarray | None = None     # per M, the digitized product's QSL bound at T


def digitization_error(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    cd_of_t: Callable[[np.ndarray], np.ndarray],
    T: float,
    M_list,
) -> ScalingReport:
    """Infidelity 1 - |<g(T)|psi_M>|^2 of the digitized product per slice
    count, with psi_M the product applied to g(0), and g the ground mode of
    H tracked by one ``eigenpath`` on the sorted union of every M's slice
    ends. ``qsl_bound`` holds each product's ``qsl_discrete`` bound at T
    against g at its slice ends. Points within 10x of the error floor are
    excluded from the least-squares slope fit and reported; the fit needs
    M_list to span at least two octaves.
    """
    M_list = _slice_counts(M_list)
    slice_grids = [np.linspace(0.0, T, M + 1) for M in M_list]
    ends = np.array(sorted(set(np.concatenate(slice_grids).tolist())))
    mode = eigenpath(H_of_t, ends, modes=[0]).vectors[:, :, 0]
    values, bounds = np.empty(len(M_list)), np.empty(len(M_list))
    for i, (M, slice_grid) in enumerate(zip(M_list, slice_grids)):
        steps = trotter_step_unitaries(H_of_t, cd_of_t, int(M), T)
        psi = mode[0]
        for U in steps:
            psi = U @ psi
        values[i] = 1.0 - fidelity(mode[-1], psi)
        bounds[i] = qsl_discrete(steps, mode[np.searchsorted(ends, slice_grid)], grid=slice_grid).bound[-1]
    report = fit_scaling(M_list, values, "infidelity")
    report.qsl_bound = bounds
    return report


def fit_spans(M_list) -> bool:
    """Whether slice counts support the scaling fit: >= 4 distinct positive values over >= two octaves."""
    distinct = sorted(set(M_list))
    return len(distinct) >= 4 and distinct[0] >= 1 and distinct[-1] >= 4 * distinct[0]


def _slice_counts(M_list) -> np.ndarray:
    """M_list as an ascending int array; ValueError unless ``fit_spans`` holds."""
    M_list = np.asarray(sorted(M_list), dtype=int)
    if not fit_spans(M_list):
        raise ValueError("need >= 4 distinct positive values of M spanning at least two octaves")
    return M_list


def fit_scaling(M_list: np.ndarray, values: np.ndarray, metric: str) -> ScalingReport:
    """The log-log slope fit of ``digitization_error`` and
    ``trotter_baseline_error`` on values already measured at each M of the
    ascending M_list."""
    M_list = _slice_counts(M_list)
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
) -> ScalingReport:
    """Conventional first-order baseline: constant non-commuting pair.

    Per slice count M, the step U = exp(-i dt A) exp(-i dt B) with
    dt = T/M (the order of ``trotter_step_unitaries``) is applied M times to
    psi0, and the state error ||psi_M - exp(-iT(A+B)) psi0|| is fitted; its
    slope sits at the first-order value of -1. Two D x D eigendecompositions
    per slice count and one for the target; only D-vectors grow with M.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    check_normalized(psi0, "initial state")
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    target = step_unitary(A + B, T) @ psi0
    M_list = _slice_counts(M_list)
    values = np.empty(len(M_list))
    for i, M in enumerate(M_list):
        dt = T / int(M)
        U = step_unitary(A, dt) @ step_unitary(B, dt)
        psi = psi0
        for _ in range(M):
            psi = U @ psi
        values[i] = np.linalg.norm(psi - target)
    return fit_scaling(M_list, values, "state_error")
