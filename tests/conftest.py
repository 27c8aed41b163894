import numpy as np
import pytest

from shortcut_forge import counterdiabatic_term
from shortcut_forge.fastforward import TimeRescaling
from shortcut_forge.models import landau_zener, random_hermitian
from shortcut_forge.operators import pauli_matrix

SX = pauli_matrix("X")
SY = pauli_matrix("Y")
SZ = pauli_matrix("Z")
ID2 = np.eye(2, dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def lz():
    """Unit-time Landau-Zener sweep, lambda: -5 -> 5, delta = 1."""
    return landau_zener(delta=1.0, lam_start=-5.0, lam_stop=5.0, duration=1.0)


def stacked(H_of_t):
    """The time-stacked form of a per-time callable: the (n, D, D) stack of
    its matrices at a 1-D array of n times, one call per time."""
    return lambda times: np.array([H_of_t(t) for t in times])


def sine_rescaling(T_ref: float, c: float = 0.5) -> TimeRescaling:
    """A non-uniform clock on [0, T_ref / 2]: s(t) = T_ref (u - (c / 2 pi) sin 2 pi u)
    with u = t / T_ff, so ds/dt runs from 2 (1 - c) to 2 (1 + c) and d2s/dt2
    is nonzero inside the interval."""
    T_ff = T_ref / 2
    k = 2 * np.pi / T_ff
    return TimeRescaling(s=lambda t: T_ref * (t / T_ff - c / (2 * np.pi) * np.sin(k * t)),
                         dsdt=lambda t: T_ref / T_ff * (1 - c * np.cos(k * t)),
                         d2sdt2=lambda t: T_ref / T_ff * c * k * np.sin(k * t), T_ff=T_ff)


def cd_driven(system):
    """H + H_cd of a DrivenSystem as a time callable: the (n, D, D) stack at a
    1-D array of times, or one matrix at one time."""
    return lambda t: system.hamiltonian(t) + counterdiabatic_term(system.hamiltonian(t), system.dhamiltonian(t))


def lz_cd_oracle(lam: float, rate: float, delta: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Closed-form two-level counterdiabatic operator from the Bloch-angle
    eigenbasis: -(hbar delta rate / (2 (lam^2 + delta^2))) sigma_y."""
    return -hbar * delta * rate / (2 * (lam**2 + delta**2)) * SY


def two_level_eigvecs(lam: float, delta: float = 1.0):
    """Symbolic eigenbasis of lam sz + delta sx via the Bloch angle."""
    theta = np.arctan2(delta, lam)
    ground = np.array([-np.sin(theta / 2), np.cos(theta / 2)], dtype=complex)
    excited = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
    return ground, excited


def random_hermitian_pair(dim: int, seed: int):
    rng = np.random.default_rng(seed)
    return random_hermitian(dim, rng), random_hermitian(dim, rng)


def discrete_berry_phase(vectors: np.ndarray) -> float:
    """Gauge-invariant discrete line-integral Berry phase of a closed loop of
    states vectors[i] (first and last should coincide up to phase)."""
    total = 1.0 + 0.0j
    for i in range(len(vectors) - 1):
        total *= np.vdot(vectors[i], vectors[i + 1])
    total *= np.vdot(vectors[-1], vectors[0])
    return float(-np.angle(total))
