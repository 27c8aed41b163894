"""Gauge-smoothed eigen-decompositions along a drive, exact counterdiabatic
terms, the adiabatic gauge potential, adiabatic reference states, and the
quantum geometric tensor.

Eigenvector gauges are fixed by maximal-overlap phase alignment between
consecutive grid points; level labels follow continuity (overlap matching),
not per-time sort order, so labels survive avoided crossings. The matching is
read off the overlap matrix directly when every mode has a partner with
squared overlap above 1/2, which makes it the unique best assignment; only
ambiguous frames go to an assignment solver (scipy's linear_sum_assignment,
imported on first use), so importing this module loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .dynamics import StateTrajectory, cumulative_trapezoid
from .errors import DegeneracyError, GridTooCoarseError


def _fd_derivative(H_of_t: Callable[[float], np.ndarray], t: float, span: float) -> np.ndarray:
    h = max(span, 1.0) * 1e-6
    return (np.asarray(H_of_t(t + h)) - np.asarray(H_of_t(t - h))) / (2 * h)


@dataclass
class EigenPath:
    """Smooth-gauge spectral data {E_n(t), |n(t)>} on a time grid.

    vectors[i, :, n] is the n-th tracked mode at grid[i]; the gauge satisfies
    Re <n(t_i)|n(t_{i+1})> > 0 for every consecutive pair.
    """

    grid: np.ndarray
    energies: np.ndarray           # (n_t, D), continuity-tracked order
    vectors: np.ndarray            # (n_t, D, D), columns are modes
    eps_gap: float
    gauge: str = "smooth-overlap"
    degenerate_points: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.energies.shape[1]

    def index_of(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.grid - t)))
        if abs(self.grid[i] - t) > 1e-9 * max(1.0, abs(self.grid[-1])):
            raise ValueError(f"t = {t} is not a grid point of this path")
        return i

    def min_gap(self, i: int) -> float:
        E = np.sort(self.energies[i])
        return float(np.diff(E).min())

    def require_nondegenerate(self, i: int) -> None:
        g = self.min_gap(i)
        if g < self.eps_gap:
            raise DegeneracyError(
                f"gap {g:.3e} below eps_gap {self.eps_gap:.3e} at t = {self.grid[i]}"
            )


def _align_frames(V_prev: np.ndarray, E_cur: np.ndarray, V_cur: np.ndarray):
    """Match modes of V_cur to V_prev by overlap and fix phases; returns
    (E, V, min_overlap) with Re <prev_n|cur_n> > 0.

    The matching maximises sum_n |<prev_n|cur_perm(n)>|^2. Each row and column
    of P = |overlap|^2 between two orthonormal frames sums to 1, so when every
    row maximum exceeds 1/2 the row-wise argmax is a permutation and the unique
    maximiser: any other permutation loses in every row where it differs. Only
    frames that fail this test (near-degenerate or strongly rotated modes) are
    matched by linear_sum_assignment, imported here so that scipy loads only
    when such a frame occurs.
    """
    O = V_prev.conj().T @ V_cur
    P = np.abs(O) ** 2
    rows = np.arange(len(P))
    perm = P.argmax(axis=1)
    if not (P[rows, perm] > 0.5).all():
        from scipy.optimize import linear_sum_assignment

        _, perm = linear_sum_assignment(-P)
    V = V_cur[:, perm]
    E = E_cur[perm]
    ov = O[rows, perm]
    V *= np.exp(-1j * np.angle(ov))[None, :]
    return E, V, float(np.abs(ov).min())


def eigenpath(
    H_of_t: Callable[[float], np.ndarray],
    grid: np.ndarray,
    eps_gap: float | None = None,
    overlap_min: float = 0.9,
    max_refine: int = 12,
) -> EigenPath:
    """Diagonalize H(t) on a grid with smooth gauge and continuity tracking.

    If consecutive mode overlaps fall below ``overlap_min`` the interval is
    bisected internally (the output grid is unchanged) up to ``max_refine``
    levels, then GridTooCoarseError is raised. Grid points whose minimum gap
    is below eps_gap are recorded in ``degenerate_points``; they only become
    errors when a gap-dividing quantity is requested there.
    """
    grid = np.asarray(grid, dtype=float)
    Es, Vs = [], []
    E0, V0 = np.linalg.eigh(np.asarray(H_of_t(grid[0]), dtype=complex))
    # initial gauge: largest component real positive
    for n in range(V0.shape[1]):
        i = np.argmax(np.abs(V0[:, n]))
        V0[:, n] *= np.exp(-1j * np.angle(V0[i, n]))
    Es.append(E0)
    Vs.append(V0)
    scale = max(np.abs(E0).max(), 1e-300)
    if eps_gap is None:
        eps_gap = config.EPS_GAP_REL * scale

    def connect(t0, V_from, t1, depth):
        E1, V1 = np.linalg.eigh(np.asarray(H_of_t(t1), dtype=complex))
        E, V, ov = _align_frames(V_from, E1, V1)
        if ov >= overlap_min:
            return E, V
        if depth >= max_refine:
            raise GridTooCoarseError(
                f"mode overlap {ov:.3f} < {overlap_min} between t = {t0} and {t1} "
                f"after {max_refine} refinement levels"
            )
        tm = 0.5 * (t0 + t1)
        _, Vm = connect(t0, V_from, tm, depth + 1)
        return connect(tm, Vm, t1, depth + 1)

    for i in range(1, len(grid)):
        E, V = connect(grid[i - 1], Vs[-1], grid[i], 0)
        Es.append(E)
        Vs.append(V)

    energies = np.array(Es)
    vectors = np.array(Vs)
    path = EigenPath(grid=grid, energies=energies, vectors=vectors, eps_gap=eps_gap)
    for i in range(len(grid)):
        g = path.min_gap(i)
        if g < eps_gap:
            path.degenerate_points.append((i, g))
    return path


def counterdiabatic_term(
    H: np.ndarray,
    dH: np.ndarray,
    hbar: float | None = None,
    eps_gap: float | None = None,
) -> np.ndarray:
    """Exact counterdiabatic operator from H and its time derivative.

    Built from the gauge-free projector form: the (n, m) eigenbasis element is
    i*hbar <n|dH|m> / (E_m - E_n) for m != n, zero on the diagonal. Closed
    gaps are tolerated only where the coupling matrix element also vanishes
    (symmetry-protected crossings); a genuine coupling across a closed gap
    raises DegeneracyError.
    """
    hb = config.hbar(hbar)
    E, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    scale = max(np.abs(E).max(), 1e-300)
    if eps_gap is None:
        eps_gap = config.EPS_GAP_REL * scale
    dHe = V.conj().T @ np.asarray(dH, dtype=complex) @ V
    gap = E[None, :] - E[:, None]          # gap[n, m] = E_m - E_n
    closed = np.abs(gap) < eps_gap
    np.fill_diagonal(closed, False)
    if closed.any():
        coupling_tol = 1e-9 * max(np.abs(dHe).max(), 1e-300)
        bad = closed & (np.abs(dHe) > coupling_tol)
        if bad.any():
            n, m = np.argwhere(bad)[0]
            raise DegeneracyError(
                f"levels {n} and {m} are degenerate (gap {abs(gap[n, m]):.3e}) "
                f"with coupling {abs(dHe[n, m]):.3e}"
            )
    safe_gap = np.where(np.abs(gap) < eps_gap, 1.0, gap)
    M = 1j * hb * dHe / safe_gap
    M[closed] = 0.0
    np.fill_diagonal(M, 0.0)
    return V @ M @ V.conj().T


def exact_cd(
    H_of_t: Callable[[float], np.ndarray],
    t: float,
    dH_of_t: Callable[[float], np.ndarray] | None = None,
    hbar: float | None = None,
    eps_gap: float | None = None,
    time_span: float = 1.0,
) -> np.ndarray:
    """Exact counterdiabatic operator of a driven Hamiltonian at time t.

    dH/dt is taken from ``dH_of_t`` when supplied and by central finite
    differences of H otherwise.
    """
    H = np.asarray(H_of_t(t), dtype=complex)
    dH = np.asarray(dH_of_t(t), dtype=complex) if dH_of_t is not None else _fd_derivative(H_of_t, t, time_span)
    return counterdiabatic_term(H, dH, hbar=hbar, eps_gap=eps_gap)


def adiabatic_gauge_potential(
    H_of_lambda: Callable[[np.ndarray], np.ndarray],
    lam: np.ndarray,
    component: int = 0,
    dH_dlambda: Callable[[np.ndarray], np.ndarray] | None = None,
    hbar: float | None = None,
    eps_gap: float | None = None,
) -> np.ndarray:
    """Adiabatic gauge potential A_i(lambda), the parameter-space generator of
    the eigenbasis: the counterdiabatic term is (dlambda/dt) . A(lambda)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if dH_dlambda is not None:
        dH = np.asarray(dH_dlambda(lam), dtype=complex)
    else:
        h = 1e-6 * max(1.0, np.abs(lam).max())
        lp, lm = lam.copy(), lam.copy()
        lp[component] += h
        lm[component] -= h
        dH = (np.asarray(H_of_lambda(lp)) - np.asarray(H_of_lambda(lm))) / (2 * h)
    return counterdiabatic_term(np.asarray(H_of_lambda(lam), dtype=complex), dH, hbar=hbar, eps_gap=eps_gap)


@dataclass
class AdiabaticState:
    """The transitionless reference trajectory with per-mode phase bookkeeping.

    states[i] = sum_n c_n(0) exp(-i * dynamical[i, n]) exp(+i * geometric[i, n]) |n(t_i)>
    """

    trajectory: StateTrajectory
    dynamical_phases: np.ndarray   # (n_t, D): (1/hbar) int E_n dt'
    geometric_phases: np.ndarray   # (n_t, D): -Im int <n|d_t n> dt'
    coefficients: np.ndarray       # c_n(0)

    def state(self, i: int) -> np.ndarray:
        return self.trajectory.states[i]


def geometric_integrand(path: EigenPath, n: int) -> np.ndarray:
    """Midpoint estimates of <n|d_t n> along the path (length n_t - 1).

    The antisymmetrized two-point estimator is purely imaginary by
    construction, matching the exact structure for normalized modes.
    """
    V = path.vectors[:, :, n]
    dt = np.diff(path.grid)
    ov = np.einsum("ij,ij->i", V[:-1].conj(), V[1:])
    return 1j * np.imag(ov) / dt


def adiabatic_state(path: EigenPath, c0: np.ndarray, hbar: float | None = None) -> AdiabaticState:
    """Adiabatic reference state for initial adiabatic-frame coefficients c0.

    Per-mode dynamical phases integrate E_n(t) with the trapezoid rule on the
    path grid; geometric phases accumulate the (purely imaginary) midpoint
    overlap increments, which for a closed parameter loop reproduce the Berry
    phase of each mode.
    """
    hb = config.hbar(hbar)
    c0 = np.asarray(c0, dtype=complex)
    if abs(np.linalg.norm(c0) - 1.0) > 1e-10:
        raise ValueError("initial coefficients must be normalized")
    n_t, D = path.energies.shape
    dyn = cumulative_trapezoid(path.energies, path.grid) / hb
    geo = np.zeros((n_t, D))
    for n in range(D):
        inc = np.imag(np.einsum("ij,ij->i", path.vectors[:-1, :, n].conj(), path.vectors[1:, :, n]))
        geo[1:, n] = -np.cumsum(inc)
    phases = np.exp(-1j * dyn + 1j * geo)
    states = np.einsum("n,tn,tdn->td", c0, phases, path.vectors)
    traj = StateTrajectory(grid=path.grid, states=states, method="adiabatic")
    return AdiabaticState(trajectory=traj, dynamical_phases=dyn, geometric_phases=geo, coefficients=c0)


def loop_geometric_phase(path: EigenPath, n: int, closure_tol: float = 1e-6) -> float:
    """Gauge-invariant geometric phase of mode n around a closed parameter loop.

    Requires H(T) = H(0) so that the final eigenframe matches the initial one
    up to a phase. In the maximal-overlap gauge the interior connection
    vanishes (discrete parallel transport) and the whole phase appears as the
    holonomy in the closure overlap; the discrete line-integral product makes
    the value gauge-independent either way. For a two-level system the result
    is minus half the solid angle enclosed on the Bloch sphere.
    """
    V = path.vectors[:, :, n]
    ov = np.einsum("ti,ti->t", V[:-1].conj(), V[1:])
    closure = np.vdot(V[-1], V[0])
    if abs(abs(closure) - 1.0) > closure_tol:
        raise ValueError(
            f"loop does not close: |<n(T)|n(0)>| = {abs(closure):.6f}; "
            "the Hamiltonian must return to its initial value"
        )
    return float(-(np.angle(ov).sum() + np.angle(closure)))


def adiabaticity_metric(
    H_of_t: Callable[[float], np.ndarray],
    t: float,
    m: int,
    n: int,
    dH_of_t: Callable[[float], np.ndarray] | None = None,
    hbar: float | None = None,
    eps_gap: float | None = None,
    time_span: float = 1.0,
) -> float:
    """Two-level adiabaticity measure hbar |<n|dH|m>| / (E_m - E_n)^2.

    Values much smaller than 1 indicate the pair (m, n) evolves adiabatically;
    the threshold is left to the caller.
    """
    if m == n:
        raise ValueError("adiabaticity metric needs two distinct levels")
    hb = config.hbar(hbar)
    H = np.asarray(H_of_t(t), dtype=complex)
    dH = np.asarray(dH_of_t(t), dtype=complex) if dH_of_t is not None else _fd_derivative(H_of_t, t, time_span)
    E, V = np.linalg.eigh(H)
    scale = max(np.abs(E).max(), 1e-300)
    gap = E[m] - E[n]
    if abs(gap) < (eps_gap if eps_gap is not None else config.EPS_GAP_REL * scale):
        raise DegeneracyError(f"levels {m} and {n} are degenerate at t = {t}")
    elem = V[:, n].conj() @ dH @ V[:, m]
    return float(hb * abs(elem) / gap**2)


def quantum_geometric_tensor(
    H_of_lambda: Callable[[np.ndarray], np.ndarray],
    lam: np.ndarray,
    n: int = 0,
    dH_dlambda: list[Callable] | None = None,
    eps_gap: float | None = None,
) -> np.ndarray:
    """Quantum geometric tensor g_ij of the n-th eigenstate at a parameter point.

    g_ij = Re <d_i n|(1 - |n><n|)|d_j n>, evaluated through the gauge-free
    matrix-element form sum_{m != n} <n|d_iH|m><m|d_jH|n> / (E_m - E_n)^2.
    Real, symmetric, positive semidefinite.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    p = len(lam)
    H = np.asarray(H_of_lambda(lam), dtype=complex)
    E, V = np.linalg.eigh(H)
    scale = max(np.abs(E).max(), 1e-300)
    if eps_gap is None:
        eps_gap = config.EPS_GAP_REL * scale
    gaps = E - E[n]
    others = [m for m in range(len(E)) if m != n]
    if min(abs(gaps[m]) for m in others) < eps_gap:
        raise DegeneracyError(f"level {n} is degenerate at lambda = {lam}")
    derivs = []
    for i in range(p):
        if dH_dlambda is not None:
            dH = np.asarray(dH_dlambda[i](lam), dtype=complex)
        else:
            h = 1e-6 * max(1.0, np.abs(lam).max())
            lp, lm = lam.copy(), lam.copy()
            lp[i] += h
            lm[i] -= h
            dH = (np.asarray(H_of_lambda(lp)) - np.asarray(H_of_lambda(lm))) / (2 * h)
        derivs.append(V.conj().T @ dH @ V)
    g = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            s = sum(derivs[i][n, m] * derivs[j][m, n] / gaps[m] ** 2 for m in others)
            g[i, j] = s.real
    return 0.5 * (g + g.T)
