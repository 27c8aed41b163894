"""Concrete driven systems used by the demos, the scenario runner, and tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import as_hermitian, pauli_matrix
from .schedule import Schedule

SX = pauli_matrix("X")
SY = pauli_matrix("Y")
SZ = pauli_matrix("Z")


@dataclass
class DrivenSystem:
    """A Hamiltonian family H(lambda) pulled along a schedule lambda(t)."""

    H_terms: list[np.ndarray]        # H(lam) = H0 + sum_i lam_i * H_terms[i]
    H0: np.ndarray
    schedule: Schedule
    name: str = "driven-system"

    def __post_init__(self):
        as_hermitian(self.H0)
        for Hi in self.H_terms:
            as_hermitian(Hi)

    @property
    def dim(self) -> int:
        return self.H0.shape[0]

    @property
    def duration(self) -> float:
        return self.schedule.duration

    def H_of_lambda(self, lam: np.ndarray) -> np.ndarray:
        """H at a parameter vector, or the (n, D, D) stack at an (n, p) array of them."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        H = np.broadcast_to(self.H0, lam.shape[:-1] + self.H0.shape)
        for i, Hi in enumerate(self.H_terms):
            H = H + lam[..., i, None, None] * Hi
        return H

    def hamiltonian(self, t) -> np.ndarray:
        """H(t) at a time, or the (n, D, D) stack at a 1-D array of times."""
        return self.H_of_lambda(self.schedule(t))

    def dhamiltonian(self, t) -> np.ndarray:
        """dH/dt at a time, or the (n, D, D) stack at a 1-D array of times."""
        rate = self.schedule.rate(t)
        dH = np.zeros(rate.shape[:-1] + self.H0.shape, dtype=self.H0.dtype)
        for i, Hi in enumerate(self.H_terms):
            dH = dH + rate[..., i, None, None] * Hi
        return dH


def landau_zener(
    delta: float = 1.0,
    lam_start: float = -5.0,
    lam_stop: float = 5.0,
    duration: float = 1.0,
    shape: str = "linear",
) -> DrivenSystem:
    """Two-level avoided crossing H = lambda(t) sz + delta sx.

    The gap is 2 sqrt(lambda^2 + delta^2), minimal (2 delta) at lambda = 0.
    """
    sched = Schedule.of_shape(shape, lam_start, lam_stop, duration)
    return DrivenSystem(H_terms=[SZ], H0=delta * SX, schedule=sched, name="landau_zener")


def _site_operator(op: str, i: int, n: int) -> np.ndarray:
    label = "".join(op if j == i else "I" for j in range(n))
    return pauli_matrix(label)


def tfim_chain(
    n_sites: int = 4,
    coupling: float = 1.0,
    field: float = 1.0,
    duration: float = 1.0,
    lam_start: float = 0.0,
    lam_stop: float = 1.0,
    shape: str = "smoothstep",
) -> DrivenSystem:
    """Open transverse-field Ising chain interpolating field -> coupling.

    H(lambda) = -lambda J sum_i sz_i sz_{i+1} - (1 - lambda) h sum_i sx_i.
    """
    if not 2 <= n_sites <= 10:
        raise ValueError("n_sites must be between 2 and 10")
    Hzz = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for i in range(n_sites - 1):
        Hzz = Hzz + _site_operator("Z", i, n_sites) @ _site_operator("Z", i + 1, n_sites)
    Hx = np.zeros_like(Hzz)
    for i in range(n_sites):
        Hx = Hx + _site_operator("X", i, n_sites)
    sched = Schedule.of_shape(shape, lam_start, lam_stop, duration)
    # H(lam) = -h Hx + lam * (h Hx - J Hzz)
    return DrivenSystem(
        H_terms=[field * Hx - coupling * Hzz], H0=-field * Hx, schedule=sched, name="tfim_chain"
    )


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian matrix with O(1) entries."""
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (A + A.conj().T) / 2


def random_hermitian_ramp(
    dim: int, seed: int, duration: float = 1.0, shape: str = "smoothstep"
) -> DrivenSystem:
    """Seeded random two-term ramp H(lambda) = H0 + lambda H1, lambda: 0 -> 1."""
    rng = np.random.default_rng(seed)
    H0 = random_hermitian(dim, rng)
    H1 = random_hermitian(dim, rng)
    sched = Schedule.of_shape(shape, 0.0, 1.0, duration)
    return DrivenSystem(H_terms=[H1], H0=H0, schedule=sched, name=f"random_hermitian[{dim},{seed}]")


@dataclass(frozen=True)
class GaussianWidthRamp:
    """Normalized Gaussian amplitude whose width follows a quintic ramp,
    ``Schedule.smoothstep`` from width_start to width_stop.

    The scaling phase theta = m wdot x^2 / (2 hbar w) solves the continuity
    equation exactly, making this the standard oracle for the 1-D
    fast-forward construction.
    """

    width_start: float = 1.0
    width_stop: float = 2.0
    duration: float = 4.0
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "_ramp", Schedule.smoothstep(self.width_start, self.width_stop, self.duration))

    def width(self, t: float) -> float:
        """w at one time t."""
        return self._ramp(t)[0]

    def width_rate(self, t: float) -> float:
        """dw/dt at one time t."""
        return self._ramp.rate(t)[0]

    def amplitude(self, x: np.ndarray, t: float) -> np.ndarray:
        w = self.width(t)
        return (np.pi * w**2) ** -0.25 * np.exp(-(x**2) / (2 * w**2))

    def amplitude_rate(self, x: np.ndarray, t: float) -> np.ndarray:
        """d_t r = r (x^2/w^3 - 1/(2w)) wdot."""
        w = self.width(t)
        return self.amplitude(x, t) * (x**2 / w**3 - 1 / (2 * w)) * self.width_rate(t)

    def theta_exact(self, x: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
        w, wd = self.width(t), self.width_rate(t)
        return self.mass * wd * x**2 / (2 * hbar * w)
