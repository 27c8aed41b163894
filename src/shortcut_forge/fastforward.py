"""Generator-based fast-forward scaling.

A fast-forward state U_f(t)|Psi(s(t))> with a measurement-gauge unitary
U_f = sum_n e^{i f_n} P_n reproduces the reference probability distribution
in the projector basis on a rescaled clock s(t). The driving Hamiltonian is

    H_FF(t) = (ds/dt) U_f H(s) U_f^dag + i (d_t U_f) U_f^dag,

and ``ff_hamiltonian`` builds it for any gauge. With adiabatic projectors
P_n(s) of H(s), ``FFGauge`` phases f_n enter U_f with a plus sign, so a phase
rate df_n/dt = c E_n adds -c H to the generator term. Two relations tie
the method to counterdiabatic (CD) driving, and the tests check both:

1. ``ff_of_cd`` (H(s) + (ds/dt) H_cd(s)) is ``ff_hamiltonian`` of the CD
   reference H + H_cd in the adiabatic-projector gauge with
   df_n/dt = (ds/dt - 1) E_n(s).
2. In any adiabatic-projector gauge, ``ff_hamiltonian`` of H itself
   reproduces the nonadiabatic reference populations at s(t). In the gauge
   of relation 1 it equals H + (ds/dt)(H_cd - U_f H_cd U_f^dag): fast-forwarded
   CD plus the term that restores the reference's transitions.

The CLI's matrix ff run uses relation 1 on the uniform clock s = rate t, as CD
driving of the model rescaled to duration T / rate: ``ff_of_cd`` is H' + H'_cd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: time step of the U_f difference in ``ff_hamiltonian``, relative to max(T_ff, 1)
_DT_REL = 1e-6


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


@dataclass
class FFGauge:
    """Projector family P_n(t) with phase functions f_n(t).

    ``projectors(t)`` returns an (n, D, D) stack of orthogonal rank-1
    projectors summing to the identity; ``phases(t)`` the n real f_n values.
    """

    projectors: Callable[[float], np.ndarray]
    phases: Callable[[float], np.ndarray]

    def unitary(self, t: float) -> np.ndarray:
        """U_f(t) = sum_n e^{i f_n(t)} P_n(t)."""
        f = np.asarray(self.phases(t), dtype=float)
        return np.einsum("n,nij->ij", np.exp(1j * f), self.projectors(t))


def ff_hamiltonian(
    H_of_s: Callable[[float], np.ndarray],
    gauge: FFGauge,
    rescale: TimeRescaling,
    t: float,
) -> np.ndarray:
    """Fast-forward Hamiltonian at time t for an arbitrary measurement gauge.

    The generator term i (d_t U_f) U_f^dag uses a second-order difference
    of U_f with step _DT_REL max(T_ff, 1) (central inside [0, T_ff],
    three-point one-sided within one step of an end) and is antisymmetrized,
    which makes it Hermitian by construction.
    """
    Uf = gauge.unitary(t)
    H = np.asarray(H_of_s(rescale.s(t)), dtype=complex)
    main = rescale.dsdt(t) * (Uf @ H @ Uf.conj().T)
    h = _DT_REL * max(rescale.T_ff, 1.0)
    if t - h < 0.0 or t + h > rescale.T_ff:
        side = 1.0 if t - h < 0.0 else -1.0
        dU = side * (4 * gauge.unitary(t + side * h) - gauge.unitary(t + 2 * side * h) - 3 * Uf) / (2 * h)
    else:
        dU = (gauge.unitary(t + h) - gauge.unitary(t - h)) / (2 * h)
    T_ = dU @ Uf.conj().T
    gen = 1j * 0.5 * (T_ - T_.conj().T)   # (d_t U) U^dag is anti-Hermitian for unitary U
    return main + gen


def ff_of_cd(
    H_of_s: Callable[[float], np.ndarray],
    cd_of_s: Callable[[float], np.ndarray],
    rescale: TimeRescaling,
    t: float,
) -> np.ndarray:
    """Fast-forwarded counterdiabatic driving: H(s) + (ds/dt) H_cd(s).

    This is ``ff_hamiltonian`` of H + H_cd in the gauge
    df_n/dt = (ds/dt - 1) E_n(s) on adiabatic projectors: the reference
    term keeps its strength while the counterdiabatic term is amplified by
    the rate. For a 1-D array of times t, H_of_s and cd_of_s get the array
    s(t) and the result is the (n, D, D) stack.
    """
    s = rescale.s(t)
    rate = np.asarray(rescale.dsdt(t), dtype=float)[..., None, None]
    return np.asarray(H_of_s(s), dtype=complex) + rate * np.asarray(cd_of_s(s), dtype=complex)
