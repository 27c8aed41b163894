"""Approximate counterdiabatic driving: the Krylov, variational and algebraic routes.

One recurrence underlies every route: the Lanczos chain of the Liouvillian
[H, .] from dH. In the eigenbasis of H the Liouvillian multiplies element
(n, m) by the Bohr frequency w_nm = E_n - E_m, so chain operator k is
p_k(w) o dHe, dHe = V^dagger dH V, for a real polynomial p_k, and every
route's H_cd is V (i f(w) o dHe) V^dagger for an odd polynomial f fitted
to -1/w with weights |dHe_nm|^2 (Claeys, Pandey, Sels & Polkovnikov, PRL 123,
090602 (2019); Takahashi & del Campo, PRX 14, 011032 (2024)). The routes:

* krylov      -- the odd chain operators up to a length k_max;
* variational -- the nested-commutator ansatz up to order K, which spans the
                 odd operators of a chain of length 2K + 1, so it is the krylov
                 route truncated there;
* algebraic   -- a user-supplied Hermitian trial basis, B_kl = ([H,L_k]|[H,L_l]);
                 the support of the odd chain operators in a basis
                 (``odd_commutator_support``) is the natural trial basis.

The krylov and variational routes are one fit (``frame_krylov_cd``) on
eigenframes a caller holds, such as the walk's: since f = w r(w^2), it is a
least-squares fit in u = w^2 over the D(D - 1)/2 pairs n < m, solved by
projection onto a Lanczos basis of that span. ``krylov_cd`` and
``variational_cd`` make one ``eigh`` of H and call it. The algebraic route
solves one linear system B a = u over its trial span (``algebraic_system``),
as does the krylov route in its chain form, whose B is tridiagonal in the
chain normalizations (``krylov_system``); every such system is solved the
same way (``solve_cd``): minimum-norm least squares from one batched
eigendecomposition of B. ``_frame_chain`` runs the chain itself in real
arithmetic over the D^2 Bohr frequencies of the frames: ``krylov_chain``
makes one ``eigh`` of H for it, and ``frame_odd_commutator_support`` reads
the walk's frames.

For identical spans the assembled operators coincide; at full span they
reproduce the exact counterdiabatic term (zero-diagonal in the eigenbasis).
A vanishing drive dH = 0 has a zero counterdiabatic term.

Operator sets are (n, D, D) arrays throughout, and every set-wise Frobenius
product is one ``gram_matrix`` call.

Time stacks. Every route takes H and dH either as single (D, D) matrices or
as (n, D, D) time stacks, as sampled in ``dynamics.STACK_BYTES`` chunks by
the kernels that walk a grid; a stack runs one batched pass. The chain and
the fit keep a per-time length (a time drops out of the recurrence where its
basis terminates, and a vanishing drive gives an empty one). Each time's
system lives on its ``support``, a per-time mask of live rows: the Krylov
rows within that time's chain, or the algebraic trial elements a caller
keeps. Rows outside it are zero. Hermiticity is checked per time. A single
matrix is the n = 1 case of the same code.

Sign convention: the solved coefficients are real and multiply the Hermitian
operators stored in ``basis_ops`` (i times an anti-Hermitian chain
element, or minus a Hermitian trial element). The convention is pinned
by agreement with the spectral construction on two-level models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import STACK_BYTES, as_stacks
from .errors import DimensionMismatchError, HermiticityError
from .operators import OperatorBasis, commutator, frobenius_norm, gram_matrix


@dataclass
class LinearCDSystem:
    """B a = u for approximate counterdiabatic coefficients.

    B is real symmetric positive semidefinite (tridiagonal for a Krylov
    chain). ``basis_ops`` is the (k, D, D) stack of Hermitian operators the
    solved coefficients multiply; an empty system keeps D in its shape.
    A time-stacked system carries a leading time axis on B (n, k, k), u
    (n, k) and basis_ops (n, k, D, D). ``metadata["support"]``, when present,
    is the boolean mask (k,) or (n, k) of each time's live rows; B and u
    are zero outside it.
    """

    B: np.ndarray
    u: np.ndarray
    basis_ops: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.u.shape[-1]

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
    A time-stacked chain has ops (n, K, D, D), b (n, K) and b_next and
    ``length`` of shape (n,); each time's rows past its length are zero.
    """

    ops: np.ndarray
    b: np.ndarray
    b_next: float | np.ndarray
    length: int | np.ndarray

    @property
    def K(self) -> int:
        return self.ops.shape[-3]

    @property
    def dim(self) -> int:
        return self.ops.shape[-1]


def algebraic_system(
    H: np.ndarray, dH: np.ndarray, trial_basis: OperatorBasis, support: np.ndarray | None = None,
) -> LinearCDSystem:
    """Algebraic system over a Hermitian orthonormal trial basis.

    B_kl = ([H, L_k]|[H, L_l]) and u_k carries the inner product of the
    commutator condition with L_k; the solved coefficients multiply
    basis_ops[k] = -L_k. ``support``, a boolean mask over the basis
    (one row per time for stacks), restricts each time's system to its
    support: rows and columns outside it are zero, so the minimum-norm
    solution leaves those coefficients at zero.
    """
    if len(trial_basis) == 0:
        raise ValueError("trial basis is empty")
    single, H, dH = as_stacks(H, dH)
    if H.shape[1:] != trial_basis.elements[0].shape:
        raise DimensionMismatchError("trial basis dimension does not match H")
    L = trial_basis.elements
    n, m, D = len(H), len(L), trial_basis.dim
    LH = H[:, None] @ L - L @ H[:, None]
    B = gram_matrix(LH).real
    u = (1j * gram_matrix(LH, dH[:, None])[..., 0]).real
    meta = {}
    if support is not None:
        keep = np.asarray(support, dtype=bool).reshape(len(H), len(L))
        B *= keep[:, :, None] & keep[:, None, :]
        u *= keep
        meta["support"] = keep[0] if single else keep
    ops = np.broadcast_to(-L, (len(H),) + L.shape)
    if single:
        return LinearCDSystem(B=B[0], u=u[0], basis_ops=ops[0], metadata=meta)
    return LinearCDSystem(B=B, u=u, basis_ops=ops, metadata=meta)


def krylov_chain(H: np.ndarray, dH: np.ndarray, k_max: int | None = None) -> KrylovChain:
    """Lanczos chain of the Liouvillian [H, .] from dH: ``_frame_chain`` on
    one ``eigh`` of H.

    Terminates at b <= 1e-10 max|E_n - E_m| or k_max; a time with dH = 0
    has an empty chain (a single dH = 0 is a ValueError). The chain length
    satisfies K <= D^2 - D + 1.
    """
    single, H, dH = as_stacks(H, dH)
    chain = _frame_chain(*np.linalg.eigh(H), dH, k_max)
    if single and chain.b[0, 0] == 0.0:
        raise ValueError("dH vanishes; no Krylov chain exists")
    if single:
        L = int(chain.length[0])
        return KrylovChain(ops=chain.ops[0, :L], b=chain.b[0, :L], b_next=float(chain.b_next[0]), length=L)
    return chain


def _frame_chain(E: np.ndarray, V: np.ndarray, dH: np.ndarray, k_max: int | None = None) -> KrylovChain:
    """The time-stacked Krylov chain of [H, .] from dH at n times, run in the
    eigenframes of H = V diag(E) V^dagger, given (n, D) energies E, (n, D, D)
    vectors V and the (n, D, D) stack dH; its operators are rotated back to
    the basis of H.

    There [H, .] multiplies element (n, m) of dHe = V^dagger dH V by the Bohr
    frequency w_nm = E_n - E_m, so Q_k = p_k(w) o dHe for a real polynomial
    p_k, and (Q_j|Q_k) = sum p_j p_k |dHe|^2 / D. The recurrence runs on the
    real (n, D^2) values x_k = p_k(w) |dHe| / sqrt(D), zero where dHe is, whose
    dot products are those Frobenius products: the chain of [diag(E), .] from
    |dHe|, real symmetric at even and antisymmetric at odd k, which the phase
    dHe / |dHe| and V carry back to Q_k. Each new x is projected off all
    earlier ones with one stacked product; a second pass runs only at times
    where the first removed more than half of |W|^2 (the
    Daniel-Gragg-Kaufman-Stewart test) and left more than the termination
    norm. Each time leaves the recurrence where its own chain terminates, at
    k_max or at b <= 1e-10 max|w|: b_k (k >= 1) is a frequency, so the test
    is independent of the drive's scale, and a fully degenerate spectrum
    (max|w| = 0) ends its chain at dH alone, a commuting drive.
    """
    n, D = E.shape
    Vh = np.conjugate(V).swapaxes(1, 2)
    dHe = np.matmul(np.matmul(Vh, dH), V).reshape(n, D * D)
    w = (E[:, :, None] - E[:, None, :]).reshape(n, D * D)
    size = np.abs(dHe)
    phase = np.divide(dHe, size, out=np.zeros_like(dHe), where=size > 0.0).reshape(n, D, D)
    size /= np.sqrt(D)
    b0 = np.sqrt(_norm2(size))
    hard_cap = D * D - D + 1
    k_max = hard_cap if k_max is None else max(1, min(k_max, hard_cap))
    tol = 1e-10 * np.ptp(E, axis=1)     # a frequency, as the b_k of k >= 1 are
    tol2 = tol * tol
    live = b0 > 0.0
    # grown geometrically: k_max may lie far beyond where the chains terminate
    X = np.zeros((n, min(k_max, 16), D * D))
    np.multiply(size, _inverse(b0, live)[:, None], out=X[:, 0])
    bs = np.zeros((n, X.shape[1]))
    bs[:, 0] = b0
    length = live.astype(int)
    b_next = np.zeros(n)
    K = 1
    while live.any():
        W = w * X[:, K - 1]
        if K > 1:
            W -= bs[:, K - 1, None] * X[:, K - 2]
        w2 = _norm2(W)
        # ended chains have zero rows from here on, so one pass over all times
        # is exact for them; the second pass runs only where the test asks
        W -= _projection(X[:, :K], W)
        r2 = _norm2(W)
        again = np.flatnonzero(live & (r2 <= 0.5 * w2) & (r2 >= tol2))
        if len(again):
            W[again] -= _projection(X[again, :K], W[again])
            r2[again] = _norm2(W[again])
        b = np.sqrt(r2)
        b_next = np.where(live, b, b_next)
        live = live & (b > tol) & (K < k_max)
        if not live.any():
            break
        if K == X.shape[1]:
            grow = min(K, k_max - K)
            X = np.concatenate([X, np.zeros((n, grow, D * D))], axis=1)
            bs = np.concatenate([bs, np.zeros((n, grow))], axis=1)
        np.multiply(W, _inverse(b, live)[:, None], out=X[:, K])
        bs[:, K] = b * live
        length += live
        K += 1
    ops = np.sqrt(D) * X[:, :K].reshape(n, K, D, D) * phase[:, None]
    ops = np.matmul(np.matmul(V[:, None], ops), Vh[:, None])
    return KrylovChain(ops=ops, b=bs[:, :K], b_next=b_next, length=length)


def _inverse(b: np.ndarray, live: np.ndarray) -> np.ndarray:
    """1 / b where live, 0 elsewhere."""
    return np.divide(1.0, b, out=np.zeros_like(b), where=live)


def _norm2(W: np.ndarray) -> np.ndarray:
    """|W_t|^2 for each row of a real (n, m) stack."""
    return np.einsum("ti,ti->t", W, W)


def _projection(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_j X_j (X_j . W) per time for real chains X (n, K, m) and W (n, m)."""
    return (X.swapaxes(1, 2) @ (X @ W[:, :, None]))[..., 0]


def krylov_system(chain: KrylovChain) -> LinearCDSystem:
    """Tridiagonal system in the Krylov chain normalizations.

    B_kl = (b_{2k-1}^2 + b_{2k}^2) delta_kl + b_{2k-2} b_{2k-1} delta_{k,l+1}
    + b_{2k} b_{2k+1} delta_{k+1,l}; u_k = -b_0 b_1 delta_{k1}. Size
    floor(K/2); a chain with K < 2 means the counterdiabatic term is zero and
    the returned system is empty. In a time-stacked system the shorter
    systems are padded with zero rows, and ``metadata["support"]`` marks each
    time's live rows, so the minimum-norm solve leaves the padded
    coefficients at zero.
    """
    single = chain.ops.ndim == 3
    ops = chain.ops[None] if single else chain.ops
    n, K, D = ops.shape[0], ops.shape[1], chain.dim
    length = np.reshape(chain.length, n)
    nb = length // 2
    kb = int(nb.max())
    # b_k for k <= K, with b_length the terminating/truncation value
    b = np.zeros((n, K + 2))
    b[:, :K] = np.reshape(chain.b, (n, -1))[:, :K]
    b[np.arange(n), length] = np.reshape(chain.b_next, n)
    k = np.arange(1, kb + 1)
    inside = k[None, :] <= nb[:, None]
    B = np.zeros((n, kb, kb))
    d = np.where(inside, b[:, 2 * k - 1] ** 2 + b[:, 2 * k] ** 2, 0.0)
    B[:, k - 1, k - 1] = d
    if kb > 1:
        off = np.where(k[None, :-1] < nb[:, None], b[:, 2 * k[:-1]] * b[:, 2 * k[:-1] + 1], 0.0)
        B[:, k[:-1] - 1, k[:-1]] = B[:, k[:-1], k[:-1] - 1] = off
    u = np.zeros((n, kb))
    if kb:
        u[:, 0] = np.where(nb > 0, -b[:, 0] * b[:, 1], 0.0)
    basis_ops = 1j * ops[:, 1:2 * kb:2]
    if single:
        return LinearCDSystem(B=B[0], u=u[0], basis_ops=basis_ops[0], metadata={"support": inside[0]})
    return LinearCDSystem(B=B, u=u, basis_ops=basis_ops, metadata={"support": inside})


def solve_cd(system: LinearCDSystem) -> np.ndarray:
    """Minimum-norm least-squares solution of B a = u.

    One batched ``eigh`` per stack; as in ``np.linalg.lstsq``, eigenvalues at
    or below 1e-12 times each time's largest magnitude are dropped, so a rank
    deficient system has a deterministic solution with no component along
    the kernel of B. The deficiency, counted against each time's
    ``metadata["support"]`` when the system has one, is recorded in
    ``metadata["rank_deficiency"]`` (an int, or an (n,) array for a stack)
    when any time has one.
    """
    single = system.u.ndim == 1
    B = system.B[None] if single else system.B
    u = system.u[None] if single else system.u
    if system.empty:
        return np.zeros(u.shape[-1:] if single else u.shape)
    w, V = np.linalg.eigh(B)
    s = np.abs(w)
    keep = s > 1e-12 * s.max(axis=1, keepdims=True)
    inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    a = (V @ (inv * (V.swapaxes(1, 2) @ u[..., None])[..., 0])[..., None])[..., 0]
    size = system.size
    if "support" in system.metadata:
        size = np.reshape(system.metadata["support"], (len(u), -1)).sum(axis=1)
    deficiency = size - keep.sum(axis=1)
    if deficiency.any():
        system.metadata["rank_deficiency"] = int(deficiency[0]) if single else deficiency
    return a[0] if single else a


def assemble_cd(system: LinearCDSystem, a: np.ndarray) -> np.ndarray:
    """H_cd = sum_k a_k basis_ops[k]; Hermitian within 1e-10 by construction,
    checked at each time of a stack (HermiticityError otherwise).

    An empty system assembles to the D x D zero matrix (one per time).
    """
    a = np.asarray(a)
    if a.shape != system.u.shape:
        raise ValueError(f"coefficient shape {a.shape} != system shape {system.u.shape}")
    out = np.einsum("...k,...kij->...ij", a, system.basis_ops)
    _check_hermitian(out.reshape((-1,) + out.shape[-2:]))
    return out


def _check_hermitian(stack: np.ndarray) -> None:
    """HermiticityError unless each matrix of an (n, D, D) stack is Hermitian
    within 1e-10 of its largest element."""
    dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1e-300)
    if (dev > 1e-10 * scale).any():
        raise HermiticityError(f"assembled counterdiabatic term not Hermitian: dev {dev.max():.3e}")


def action_value(H: np.ndarray, dH: np.ndarray, H_cd_trial: np.ndarray) -> float:
    """Variational cost ||G||^2 with G = dH - i [H, H_cd_trial].

    The solved coefficients of any of the three systems sit at a stationary
    point of this quadratic along every ansatz direction.
    """
    G = dH - 1j * commutator(H, H_cd_trial)
    return frobenius_norm(G) ** 2


# ---------------------------------------------------------------------------
# End-to-end constructions


def frame_krylov_cd(E: np.ndarray, V: np.ndarray, dH: np.ndarray, k_max: int | None = None) -> np.ndarray:
    """Counterdiabatic operator of the Krylov route from eigenframes a caller
    holds, the analogue of ``spectral.frame_cd``: (n, D) energies E and
    (n, D, D) vectors V of H at n times, in any matching column order and
    phases, and the (n, D, D) stack dH; returns the (n, D, D) H_cd.

    The odd chain operators up to k_max span i f(w) o dHe for the odd
    polynomials f = w r(u) of degree below k_max, u = w^2, so the route is a
    weighted least-squares fit of -1/w over the D(D - 1)/2 pairs n < m (Sels &
    Polkovnikov, PNAS 114, E3909 (2017)): with s = |dHe_nm|, the residual
    ||s (1 + u r(u))|| is least where s u r(u) is the projection of -s onto
    span{s u^j : 1 <= j <= k_max // 2}, every j for k_max None (the full
    span, exact CD on the support of dHe). Lanczos on multiplication by u (scaled
    to max 1) from s u gives an orthonormal basis of that span, with full
    reorthogonalization under ``_frame_chain``'s second-pass test, and leaves
    a time's recurrence where its basis terminates (b < 1e-10) or is
    complete. Then f = u r(u) / w, and H_cd = V (i f o dHe) V^dagger with
    each (m, n) element the conjugate of its (n, m) element, formed by
    ``frame_cd``'s products and checked Hermitian at each time. A time whose
    chain has no odd operator is zero: k_max <= 1, a vanishing drive, and a
    drive that commutes with H by the chain's own test b_1 <= 1e-10 max|w|,
    which a fully degenerate spectrum meets at b_1 = 0.
    """
    n, D = E.shape
    Vh = np.conjugate(V).swapaxes(1, 2)
    dHe = np.matmul(np.matmul(Vh, dH), V)
    w = E[:, :, None] - E[:, None, :]
    s = np.abs(dHe)
    # the chain's first test, b_1 = |w x_0| with x_0 = |dHe| / |dHe|
    norm = np.sqrt(_norm2(s.reshape(n, D * D)))
    live = norm > 0.0
    x0 = s.reshape(n, D * D) * _inverse(norm, live)[:, None]
    live &= np.sqrt(_norm2(w.reshape(n, D * D) * x0)) > 1e-10 * np.ptp(E, axis=1)
    upper = np.triu_indices(D, 1)
    s, w = s[:, upper[0], upper[1]], w[:, upper[0], upper[1]]
    u = w * w
    u *= _inverse(u.max(axis=1, initial=0.0), live)[:, None]      # zero at the times that have ended
    K = len(u[0]) if k_max is None else min(max(k_max, 0) // 2, len(u[0]))
    X = np.zeros((n, min(K, 16), len(u[0])))
    if K:
        start = s * u
        b = np.sqrt(_norm2(start))
        live &= b > 0.0
        np.multiply(start, _inverse(b, live)[:, None], out=X[:, 0])
    for k in range(1, K):
        W = u * X[:, k - 1]
        W -= np.einsum("ti,ti->t", W, X[:, k - 1])[:, None] * X[:, k - 1]
        if k > 1:
            W -= b[:, None] * X[:, k - 2]
        w2 = _norm2(W)
        W -= _projection(X[:, :k], W)
        r2 = _norm2(W)
        again = np.flatnonzero(live & (r2 <= 0.5 * w2) & (r2 >= 1e-20))
        if len(again):
            W[again] -= _projection(X[again, :k], W[again])
            r2[again] = _norm2(W[again])
        b = np.sqrt(r2)
        live &= b >= 1e-10
        if not live.any():
            break
        if k == X.shape[1]:     # grown geometrically: K may lie far beyond where the bases terminate
            X = np.concatenate([X, np.zeros((n, min(k, K - k), X.shape[2]))], axis=1)
        np.multiply(W, _inverse(b, live)[:, None], out=X[:, k])
    fit = -_projection(X, s)            # s u r(u), zero where s u is
    f = np.zeros_like(fit)
    fitted = fit != 0.0
    np.divide(fit, s, out=f, where=fitted)
    np.divide(f, w, out=f, where=fitted)
    cd = np.zeros_like(dHe)
    cd[:, upper[0], upper[1]] = 1j * f * dHe[:, upper[0], upper[1]]
    cd[:, upper[1], upper[0]] = np.conjugate(cd[:, upper[0], upper[1]])
    cd = np.matmul(V, cd) @ Vh
    _check_hermitian(cd)
    return cd


def krylov_cd(H: np.ndarray, dH: np.ndarray, k_max: int | None = None) -> np.ndarray:
    """Counterdiabatic operator from the Krylov route (full chain by default):
    ``frame_krylov_cd`` on one ``eigh`` of H; zero where the drive dH vanishes."""
    single, Hs, dHs = as_stacks(H, dH)
    out = frame_krylov_cd(*np.linalg.eigh(Hs), dHs, k_max=k_max)
    return out[0] if single else out


def algebraic_cd(
    H: np.ndarray, dH: np.ndarray, trial_basis: OperatorBasis, support: np.ndarray | None = None,
) -> np.ndarray:
    """Counterdiabatic operator from the algebraic route over a trial basis,
    restricted at each time to ``support`` when given (see ``algebraic_system``).

    Each time expands into one commutator per basis element, so a time stack
    runs in sub-stacks whose (n, len(basis), D, D) commutator stack fits
    ``STACK_BYTES``.
    """
    single, H, dH = as_stacks(H, dH)
    support = None if support is None else np.reshape(support, (len(H), -1))
    step = max(1, STACK_BYTES // (16 * trial_basis.elements.size))
    out = np.empty_like(H)
    for s in range(0, len(H), step):
        part = slice(s, s + step)
        system = algebraic_system(H[part], dH[part], trial_basis,
                                  support=None if support is None else support[part])
        out[part] = assemble_cd(system, solve_cd(system))
    return out[0] if single else out


def variational_cd(H: np.ndarray, dH: np.ndarray, K_tr: int) -> np.ndarray:
    """Counterdiabatic operator from the variational nested-commutator route.

    The order-K_tr ansatz sum_k alpha_k i O_{2k-1}, with O_k the k-fold nested
    commutator of H with dH, spans the odd operators of a Krylov chain of
    length 2 K_tr + 1 (Claeys et al., PRL 123, 090602 (2019); Takahashi & del
    Campo, PRX 14, 011032 (2024)). Minimizing the action over that span is the
    Krylov route truncated there. The orthonormal chain keeps every order in
    float64, where the moment matrix of the raw commutators would not.
    """
    return krylov_cd(H, dH, k_max=2 * K_tr + 1)


def odd_commutator_support(H: np.ndarray, dH: np.ndarray, basis: OperatorBasis, max_order: int | None = None):
    """Basis elements appearing in the first max_order odd nested
    commutators (all of them by default): their index list for one time, a
    boolean (n, len(basis)) mask for a time stack.
    ``frame_odd_commutator_support`` on one ``eigh`` of H."""
    single, Hs, dHs = as_stacks(H, dH)
    mask = frame_odd_commutator_support(*np.linalg.eigh(Hs), dHs, basis, max_order)
    return np.nonzero(mask[0])[0].tolist() if single else mask


def frame_odd_commutator_support(E: np.ndarray, V: np.ndarray, dH: np.ndarray, basis: OperatorBasis,
                                 max_order: int | None = None) -> np.ndarray:
    """The boolean (n, len(basis)) mask of ``odd_commutator_support`` from
    eigenframes (E, V) of H that a caller holds, as for ``frame_krylov_cd``.

    The first max_order odd nested commutators span the same space as the
    odd operators of the Krylov chain, so one product holds the overlap of
    every basis element with every Q_{2k-1} (unit norm); an element is in the
    support when any of its overlaps exceeds 1e-10 in magnitude. The support
    is the natural trial basis for the algebraic route. A vanishing drive has
    empty support.
    """
    k_max = None if max_order is None else 2 * max_order
    odd = _frame_chain(E, V, dH, k_max=k_max).ops[:, 1::2]
    return (np.abs(gram_matrix(basis.elements, odd)) > 1e-10).any(axis=2)
