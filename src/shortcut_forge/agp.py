"""Approximate counterdiabatic construction without eigenstates.

One operator chain underlies every route. ``krylov_chain`` runs Lanczos on
the Liouvillian [H, .] from dH and returns an orthonormal stack of operators,
Hermitian at even and anti-Hermitian at odd positions. Each route solves one
linear system B a = u over a span of trial operators:

* krylov      -- the odd chain operators; B is tridiagonal in the chain
                 normalizations;
* variational -- the nested-commutator ansatz up to order K, which spans the
                 odd operators of a chain of length 2K + 1, so it is the krylov
                 route truncated there;
* algebraic   -- a user-supplied Hermitian trial basis, B_kl = ([H,L_k]|[H,L_l]);
                 the support of the odd chain operators in a basis
                 (``odd_commutator_support``) is the natural trial basis.

For identical spans the assembled operators coincide; at full span they
reproduce the exact counterdiabatic term (zero-diagonal in the eigenbasis).
A vanishing drive dH = 0 has a zero counterdiabatic term.

Operator sets are (n, D, D) arrays throughout, and every set-wise Frobenius
product is one ``gram_matrix`` call.

Sign convention: the solved coefficients are real and multiply the Hermitian
operators stored in ``basis_ops`` (i*hbar times an anti-Hermitian chain
element, or -hbar times a Hermitian trial element). The convention is pinned
by agreement with the spectral construction on two-level models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import DimensionMismatchError
from .operators import OperatorBasis, commutator, frobenius_norm, gram_matrix


@dataclass
class LinearCDSystem:
    """B a = u for approximate counterdiabatic coefficients.

    B is real symmetric positive semidefinite; for the krylov method it is
    tridiagonal. ``basis_ops`` is the (n, D, D) stack of Hermitian operators
    the solved coefficients multiply; an empty system keeps D in its shape.
    """

    B: np.ndarray
    u: np.ndarray
    method: str
    basis_ops: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.u)

    @property
    def empty(self) -> bool:
        return self.size == 0


@dataclass
class KrylovChain:
    """Orthonormal operator chain from Lanczos on the Liouvillian.

    ``ops`` is a (K, D, D) stack whose ``ops[k]`` alternate Hermitian (even k)
    and anti-Hermitian (odd k); ``b[k]`` are the positive chain
    normalizations, with b[0] = ||dH||.
    ``b_next`` is the would-be next normalization: below the termination
    tolerance for a naturally complete chain, finite when truncated by k_max.
    """

    ops: np.ndarray
    b: np.ndarray
    b_next: float
    term_tol: float

    @property
    def K(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]


def algebraic_system(
    H: np.ndarray, dH: np.ndarray, trial_basis: OperatorBasis, hbar: float | None = None
) -> LinearCDSystem:
    """Algebraic system over a Hermitian orthonormal trial basis.

    B_kl = ([H, L_k]|[H, L_l]) and u_k carries the inner product of the
    commutator condition with L_k; the solved coefficients multiply
    basis_ops[k] = -hbar * L_k.
    """
    if len(trial_basis) == 0:
        raise ValueError("trial basis is empty")
    hb = config.hbar(hbar)
    if H.shape != trial_basis.elements[0].shape:
        raise DimensionMismatchError("trial basis dimension does not match H")
    L = trial_basis.elements
    LH = H @ L - L @ H
    B = gram_matrix(LH).real
    u = (1j * gram_matrix(LH, dH[None])[:, 0]).real
    return LinearCDSystem(B=B, u=u, method="algebraic", basis_ops=-hb * L)


def krylov_chain(
    H: np.ndarray,
    dH: np.ndarray,
    k_max: int | None = None,
    term_tol: float | None = None,
) -> KrylovChain:
    """Lanczos three-term recurrence on the Liouvillian with full
    re-orthogonalization; terminates at b < term_tol * b_0 or k_max.

    The chain is held as one (K, D^2) stack, and each new operator is
    projected off all earlier ones with one stacked product. A second pass
    runs only when the first removed more than half of ||W||^2 (the
    Daniel-Gragg-Kaufman-Stewart test) and left more than the termination
    norm. The chain length satisfies K <= D^2 - D + 1.
    """
    H = np.asarray(H, dtype=complex)
    dH = np.asarray(dH, dtype=complex)
    if H.shape != dH.shape:
        raise DimensionMismatchError(f"H has shape {H.shape}, dH has shape {dH.shape}")
    D = H.shape[0]
    b0 = np.sqrt(np.vdot(dH, dH).real / D)
    if b0 == 0.0:
        raise ValueError("dH vanishes; no Krylov chain exists")
    hard_cap = D * D - D + 1
    k_max = hard_cap if k_max is None else max(1, min(k_max, hard_cap))
    tol = (1e-10 if term_tol is None else term_tol) * b0
    tol2 = tol * tol * D            # tol^2 in the unnormalized |W|^2
    # grown geometrically: k_max may lie far beyond where the chain terminates
    Q = np.empty((min(k_max, 16), D * D), dtype=complex)
    Q[0] = dH.ravel() / b0
    bs = [b0]
    K = 1
    while True:
        W = commutator(H, Q[K - 1].reshape(D, D)).ravel()
        if K > 1:
            W -= bs[-1] * Q[K - 2]
        w2 = np.vdot(W, W).real
        for _ in range(2):
            # W -= sum_j Q_j (Q_j|W), conjugating W rather than the stack
            W -= ((Q[:K] @ W.conj()).conj() / D) @ Q[:K]
            r2 = np.vdot(W, W).real
            if r2 > 0.5 * w2 or r2 < tol2:
                break
            w2 = r2
        b = np.sqrt(r2 / D)
        if b < tol or K == k_max:
            break
        if K == len(Q):
            Q = np.concatenate([Q, np.empty((min(K, k_max - K), D * D), dtype=complex)])
        Q[K] = W / b
        bs.append(b)
        K += 1
    return KrylovChain(ops=Q[:K].reshape(K, D, D), b=np.array(bs), b_next=float(b), term_tol=tol)


def krylov_system(chain: KrylovChain, hbar: float | None = None) -> LinearCDSystem:
    """Tridiagonal system in the Krylov chain normalizations.

    B_kl = (b_{2k-1}^2 + b_{2k}^2) delta_kl + b_{2k-2} b_{2k-1} delta_{k,l+1}
    + b_{2k} b_{2k+1} delta_{k+1,l}; u_k = -b_0 b_1 delta_{k1}. Size
    floor(K/2); a chain with K < 2 means the counterdiabatic term is zero and
    the returned system is empty.
    """
    hb = config.hbar(hbar)
    K = chain.K
    nb = K // 2
    if nb == 0:
        return LinearCDSystem(B=np.zeros((0, 0)), u=np.zeros(0), method="krylov",
                              basis_ops=np.zeros((0, chain.dim, chain.dim), dtype=complex),
                              metadata={"K": K, "empty_reason": "K < 2"})
    b = chain.b.tolist() + [chain.b_next]      # b_K: the terminating/truncation value
    B = np.zeros((nb, nb))
    for k in range(1, nb + 1):
        B[k - 1, k - 1] = b[2 * k - 1] ** 2 + b[2 * k] ** 2
        if k < nb:
            B[k - 1, k] = B[k, k - 1] = b[2 * k] * b[2 * k + 1]
    u = np.zeros(nb)
    u[0] = -b[0] * b[1]
    ops = 1j * hb * chain.ops[1:2 * nb:2]
    return LinearCDSystem(B=B, u=u, method="krylov", basis_ops=ops, metadata={"K": K})


def solve_cd(system: LinearCDSystem) -> np.ndarray:
    """Solve B a = u.

    Krylov systems (symmetric positive definite, tridiagonal) use an O(k)
    Thomas elimination. Dense systems, and a Krylov system that meets a
    non-positive pivot, are solved by minimum-norm least squares with a
    relative rank tolerance of 1e-12, so rank deficiency yields a
    deterministic solution (recorded in metadata) instead of an error.
    """
    if system.empty:
        return np.zeros(0)
    B, u = system.B, system.u
    if system.method == "krylov":
        a = _solve_spd_tridiagonal(B, u)
        if a is not None:
            return a
    a, _, rank, _ = np.linalg.lstsq(B, u, rcond=1e-12)
    if rank < system.size:
        # min-norm coefficients have no component along the trial-span kernel
        system.metadata["rank_deficiency"] = int(system.size - rank)
    return a


def _solve_spd_tridiagonal(B: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """Thomas elimination without pivoting (stable for SPD B); None when a
    pivot is not positive. Plain floats: the systems are short."""
    d, off, x = np.diagonal(B).tolist(), np.diagonal(B, 1).tolist(), u.tolist()
    for i in range(1, len(x)):
        if not d[i - 1] > 0.0:
            return None
        m = off[i - 1] / d[i - 1]
        d[i] -= m * off[i - 1]
        x[i] -= m * x[i - 1]
    if not d[-1] > 0.0:
        return None
    x[-1] /= d[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - off[i] * x[i + 1]) / d[i]
    return np.array(x)


def assemble_cd(system: LinearCDSystem, a: np.ndarray) -> np.ndarray:
    """H_cd = sum_k a_k basis_ops[k]; Hermitian within 1e-10 by construction.

    An empty system assembles to the D x D zero matrix.
    """
    if len(a) != system.size:
        raise ValueError(f"coefficient length {len(a)} != system size {system.size}")
    out = np.tensordot(a, system.basis_ops, axes=1)
    dev = np.abs(out - out.conj().T).max()
    if dev > 1e-10 * max(np.abs(out).max(), 1e-300):
        raise AssertionError(f"assembled counterdiabatic term not Hermitian: dev {dev:.3e}")
    return out


def action_value(
    H: np.ndarray, dH: np.ndarray, H_cd_trial: np.ndarray, hbar: float | None = None
) -> float:
    """Variational cost ||G||^2 with G = dH - (i/hbar)[H, H_cd_trial].

    The solved coefficients of any of the three systems sit at a stationary
    point of this quadratic along every ansatz direction.
    """
    hb = config.hbar(hbar)
    G = dH - (1j / hb) * commutator(H, H_cd_trial)
    return frobenius_norm(G) ** 2


# ---------------------------------------------------------------------------
# End-to-end constructions


def krylov_cd(
    H: np.ndarray,
    dH: np.ndarray,
    k_max: int | None = None,
    term_tol: float | None = None,
    hbar: float | None = None,
) -> np.ndarray:
    """Counterdiabatic operator from the Krylov route (full chain by default);
    zero when the drive dH vanishes."""
    if frobenius_norm(dH) == 0.0:
        return np.zeros(np.shape(H), dtype=complex)
    system = krylov_system(krylov_chain(H, dH, k_max=k_max, term_tol=term_tol), hbar=hbar)
    return assemble_cd(system, solve_cd(system))


def algebraic_cd(
    H: np.ndarray, dH: np.ndarray, trial_basis: OperatorBasis, hbar: float | None = None
) -> np.ndarray:
    """Counterdiabatic operator from the algebraic route over a trial basis."""
    system = algebraic_system(H, dH, trial_basis, hbar=hbar)
    return assemble_cd(system, solve_cd(system))


def variational_cd(
    H: np.ndarray, dH: np.ndarray, K_tr: int, hbar: float | None = None
) -> np.ndarray:
    """Counterdiabatic operator from the variational nested-commutator route.

    The order-K_tr ansatz sum_k alpha_k i O_{2k-1}, with O_k the k-fold nested
    commutator of H with dH, spans the odd operators of a Krylov chain of
    length 2 K_tr + 1 (Claeys et al., PRL 123, 090602 (2019); Takahashi & del
    Campo, PRX 14, 011032 (2024)). Minimizing the action over that span is the
    Krylov route truncated there. The orthonormal chain keeps every order in
    float64, where the moment matrix of the raw commutators would not.
    """
    return krylov_cd(H, dH, k_max=2 * K_tr + 1, hbar=hbar)


def odd_commutator_support(
    H: np.ndarray,
    dH: np.ndarray,
    basis: OperatorBasis,
    max_order: int | None = None,
    tol: float = 1e-10,
) -> list[int]:
    """Indices of basis elements appearing in the first max_order odd nested
    commutators (all of them by default).

    Those commutators span the same space as the odd operators of the Krylov
    chain, so one Gram matrix holds the overlap of every basis element with
    every Q_{2k-1} (unit norm); an element is in the support when any of its
    overlaps exceeds tol in magnitude. The returned sublist is the natural
    trial basis for the algebraic route. A vanishing drive has empty support.
    """
    if frobenius_norm(dH) == 0.0:
        return []
    k_max = None if max_order is None else 2 * max_order
    odd = krylov_chain(H, dH, k_max=k_max).ops[1::2]
    overlap = np.abs(gram_matrix(basis.elements, odd))
    return np.nonzero((overlap > tol).any(axis=1))[0].tolist()

