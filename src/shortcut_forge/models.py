"""Concrete driven systems used by the scenario runner and the tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import as_hermitian, pauli_matrix
from .schedule import Schedule

SX = pauli_matrix("X")
SY = pauli_matrix("Y")
SZ = pauli_matrix("Z")


@dataclass
class DrivenSystem:
    """The Hamiltonian family H(lambda) = H0 + lambda H1 pulled along a scalar
    schedule lambda(t), so dH/dt = lambda'(t) H1.

    ``hamiltonian`` and ``dhamiltonian`` give one D x D matrix at one time and
    the (n, D, D) stack at a 1-D array of n times. H0 and H1 must be Hermitian
    (HermiticityError otherwise).
    """

    H0: np.ndarray
    H1: np.ndarray
    schedule: Schedule

    def __post_init__(self):
        as_hermitian(self.H0)
        as_hermitian(self.H1)

    @property
    def dim(self) -> int:
        return self.H0.shape[0]

    @property
    def duration(self) -> float:
        return self.schedule.duration

    def H_of_lambda(self, lam: float | np.ndarray) -> np.ndarray:
        """H at a parameter value, or the (n, D, D) stack at an (n,) array of them."""
        return self.H0 + np.asarray(lam, dtype=float)[..., None, None] * self.H1

    def hamiltonian(self, t) -> np.ndarray:
        """H(t) at a time, or the (n, D, D) stack at a 1-D array of times."""
        return self.H_of_lambda(self.schedule(t))

    def dhamiltonian(self, t) -> np.ndarray:
        """dH/dt at a time, or the (n, D, D) stack at a 1-D array of times."""
        return self.schedule.rate(t)[..., None, None] * self.H1


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
    return DrivenSystem(H0=delta * SX, H1=SZ, schedule=sched)


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
    return DrivenSystem(H0=-field * Hx, H1=field * Hx - coupling * Hzz, schedule=sched)


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
    return DrivenSystem(H0=H0, H1=H1, schedule=sched)


@dataclass(frozen=True)
class GaussianWidthRamp:
    """Normalized Gaussian amplitude whose width follows a quintic ramp,
    ``Schedule.smoothstep`` from width_start to width_stop.

    The scaling phase theta = m wdot x^2 / (2 w) solves the continuity
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
        return self._ramp(t)

    def width_rate(self, t: float) -> float:
        """dw/dt at one time t."""
        return self._ramp.rate(t)

    def amplitude(self, x: np.ndarray, t: float) -> np.ndarray:
        w = self.width(t)
        return (np.pi * w**2) ** -0.25 * np.exp(-(x**2) / (2 * w**2))

    def amplitude_rate(self, x: np.ndarray, t: float) -> np.ndarray:
        """d_t r = r (x^2/w^3 - 1/(2w)) wdot."""
        w = self.width(t)
        return self.amplitude(x, t) * (x**2 / w**3 - 1 / (2 * w)) * self.width_rate(t)

    def theta_exact(self, x: np.ndarray, t: float) -> np.ndarray:
        w, wd = self.width(t), self.width_rate(t)
        return self.mass * wd * x**2 / (2 * w)
