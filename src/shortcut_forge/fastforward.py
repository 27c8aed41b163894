"""Generator-based fast-forward scaling.

A fast-forward state U_f(t)|Psi(s(t))> with a measurement-gauge unitary
U_f = exp(i sum_sigma f_sigma P_sigma) reproduces the reference probability
distribution in the projector basis on a rescaled clock. The driving
Hamiltonian is

    H_FF(t) = (ds/dt) U_f H(s) U_f^dag + i hbar (d_t U_f) U_f^dag.

Choosing adiabatic-basis projectors and the phase rates that absorb the
dynamical phases turns this into fast-forwarded counterdiabatic driving; a
further additive term reproduces nonadiabatic reference dynamics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import config
from .dynamics import cumulative_trapezoid
from .spectral import counterdiabatic_term


@dataclass
class TimeRescaling:
    """Monotone map s(t): [0, T_ff] -> [0, T_ref] with rate access."""

    s: Callable[[float], float]
    dsdt: Callable[[float], float]
    d2sdt2: Callable[[float], float]
    T_ff: float

    def __post_init__(self):
        if abs(self.s(0.0)) > 1e-12:
            raise ValueError("rescaling must satisfy s(0) = 0")
        probes = np.linspace(0.0, self.T_ff, 33)[1:]
        if any(self.dsdt(float(t)) <= 0 for t in probes):
            raise ValueError("rescaling rate ds/dt must stay positive")

    @classmethod
    def uniform(cls, ratio: float, T_ff: float) -> "TimeRescaling":
        return cls(s=lambda t: ratio * t, dsdt=lambda t: ratio, d2sdt2=lambda t: 0.0, T_ff=T_ff)

    @classmethod
    def identity(cls, T: float) -> "TimeRescaling":
        return cls.uniform(1.0, T)


@dataclass
class FFGauge:
    """Projector family P_sigma(t) with phase functions f_sigma(t).

    ``projectors(t)`` returns a (D, D, n_sigma) stack of orthogonal rank-1
    projectors summing to the identity; ``phases(t)`` the real f_sigma values.
    """

    projectors: Callable[[float], np.ndarray]
    phases: Callable[[float], np.ndarray]

    def unitary(self, t: float) -> np.ndarray:
        P = self.projectors(t)
        f = np.asarray(self.phases(t), dtype=float)
        return np.einsum("s,ijs->ij", np.exp(1j * f), P)


def ff_hamiltonian(
    H_of_s: Callable[[float], np.ndarray],
    gauge: FFGauge,
    rescale: TimeRescaling,
    t: float,
    hbar: float | None = None,
    fd_step: float = 1e-6,
) -> np.ndarray:
    """Fast-forward Hamiltonian at time t for an arbitrary measurement gauge.

    The generator term i hbar (d_t U_f) U_f^dag uses the antisymmetrized
    central difference of U_f, which is Hermitian by construction.
    """
    hb = config.hbar(hbar)
    s = rescale.s(t)
    Uf = gauge.unitary(t)
    H = np.asarray(H_of_s(s), dtype=complex)
    main = rescale.dsdt(t) * (Uf @ H @ Uf.conj().T)
    h = fd_step * max(rescale.T_ff, 1.0)
    Up = gauge.unitary(min(t + h, rescale.T_ff))
    Um = gauge.unitary(max(t - h, 0.0))
    dU = (Up - Um) / ((min(t + h, rescale.T_ff)) - (max(t - h, 0.0)))
    T_ = dU @ Uf.conj().T
    gen = 1j * hb * 0.5 * (T_ - T_.conj().T)   # (d_t U) U^dag is anti-Hermitian for unitary U
    return main + gen


def ff_of_cd(
    H_of_s: Callable[[float], np.ndarray],
    cd_of_s: Callable[[float], np.ndarray],
    rescale: TimeRescaling,
    t: float,
) -> np.ndarray:
    """Fast-forwarded counterdiabatic driving: H(s) + (ds/dt) H_cd(s).

    This is the gauge choice hbar df_n/dt = (ds/dt - 1) E_n(s) on adiabatic
    projectors: the reference term keeps its strength while the
    counterdiabatic term is amplified by the rate.
    """
    s = rescale.s(t)
    return np.asarray(H_of_s(s), dtype=complex) + rescale.dsdt(t) * np.asarray(cd_of_s(s), dtype=complex)


@dataclass
class FFPhases:
    """Accumulated per-mode gauge phases f_n(t) on a fine grid, interpolated."""

    grid: np.ndarray
    values: np.ndarray    # (n_t, D)

    def __call__(self, t: float) -> np.ndarray:
        out = np.empty(self.values.shape[1])
        for n in range(self.values.shape[1]):
            out[n] = np.interp(t, self.grid, self.values[:, n])
        return out


def nonadiabatic_phases(
    H_of_s: Callable[[float], np.ndarray],
    rescale: TimeRescaling,
    n_grid: int = 4001,
    hbar: float | None = None,
) -> FFPhases:
    """Phases with hbar df_n/dt = (1 - ds/dt) E_n(s(t)), integrated on a fine grid.

    Energies are taken in ascending order per time; the construction assumes
    the ordering tracks the modes (no true crossings along the sweep).
    """
    hb = config.hbar(hbar)
    ts = np.linspace(0.0, rescale.T_ff, n_grid)
    E = np.array([np.linalg.eigvalsh(np.asarray(H_of_s(rescale.s(float(t))), dtype=complex)) for t in ts])
    rate = np.array([(1.0 - rescale.dsdt(float(t))) for t in ts])[:, None] * E / hb
    return FFPhases(grid=ts, values=cumulative_trapezoid(rate, ts))


def ff_nonadiabatic_term(
    H_of_s: Callable[[float], np.ndarray],
    dH_of_s: Callable[[float], np.ndarray],
    phases: FFPhases,
    rescale: TimeRescaling,
    t: float,
    hbar: float | None = None,
) -> np.ndarray:
    """Additive term reproducing nonadiabatic reference dynamics under fast-forward.

    In the adiabatic basis at s(t) the (m, n) element is
    -i hbar e^{-i(f_m - f_n)} <m|d_s n> with <m|d_s n> = <m|d_sH|n>/(E_n - E_m).
    The full driving is H(s) + (ds/dt) (H_cd(s) + this term); in the adiabatic
    limit of the reference dynamics the term averages itself away and plain
    fast-forwarded counterdiabatic driving remains.
    """
    hb = config.hbar(hbar)
    s = rescale.s(t)
    H = np.asarray(H_of_s(s), dtype=complex)
    dH = np.asarray(dH_of_s(s), dtype=complex)
    E, V = np.linalg.eigh(H)
    dHe = V.conj().T @ dH @ V
    f = phases(t)
    D = len(E)
    M = np.zeros((D, D), dtype=complex)
    for m in range(D):
        for n in range(D):
            if m == n:
                continue
            M[m, n] = -1j * hb * np.exp(-1j * (f[m] - f[n])) * dHe[m, n] / (E[n] - E[m])
    return V @ M @ V.conj().T


def ff_nonadiabatic_hamiltonian(
    H_of_s: Callable[[float], np.ndarray],
    dH_of_s: Callable[[float], np.ndarray],
    rescale: TimeRescaling,
    n_phase_grid: int = 4001,
    hbar: float | None = None,
    include_nonadiabatic: bool = True,
) -> Callable[[float], np.ndarray]:
    """Assemble t -> H(s) + (ds/dt)(H_cd(s) + H_nad(t)) as a single callable."""
    phases = nonadiabatic_phases(H_of_s, rescale, n_grid=n_phase_grid, hbar=hbar)

    def H_ff(t: float) -> np.ndarray:
        s = rescale.s(t)
        H = np.asarray(H_of_s(s), dtype=complex)
        cd = counterdiabatic_term(H, np.asarray(dH_of_s(s), dtype=complex), hbar=hbar)
        extra = cd
        if include_nonadiabatic:
            extra = cd + ff_nonadiabatic_term(H_of_s, dH_of_s, phases, rescale, t, hbar=hbar)
        return H + rescale.dsdt(t) * extra

    return H_ff


def regularized_hamiltonian(
    H_of_lambda: Callable[[np.ndarray], np.ndarray],
    agp_of_lambda: Callable[[np.ndarray], list[np.ndarray]],
    schedule,
) -> Callable[[float], np.ndarray]:
    """Reference Hamiltonian plus the rate-contracted gauge potential.

    H_reg(t) = H(lambda(t)) + sum_i (dlambda_i/dt) A_i(lambda(t)). With an
    infinitesimal constant rate this regularizes adiabatic evolution so it
    solves the Schrodinger equation exactly; fast-forwarding it with
    ds/dt ~ 1/|rate| is counterdiabatic driving with a finite coefficient.
    """

    def H_reg(t: float) -> np.ndarray:
        lam = schedule(t)
        rate = schedule.rate(t)
        H = np.asarray(H_of_lambda(lam), dtype=complex)
        A = agp_of_lambda(lam)
        for i, Ai in enumerate(A):
            H = H + rate[i] * Ai
        return H

    return H_reg
