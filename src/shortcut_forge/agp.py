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
                 A support that is the whole basis spans the operator
                 algebra, where the fit is the exact term, so a walk that
                 holds the frames takes ``spectral.frame_cd`` at such times
                 and solves only the partial or empty supports.

Every route on eigenframes runs one Lanczos kernel (``_lanczos``) over one
prelude (``_frame``: dHe, the scaled |dHe|, the Bohr frequencies and the times
whose drive neither vanishes nor commutes with H). ``_frame_chain``, under
``krylov_chain``, is the chain itself over the D^2 entries. ``frame_krylov_cd``
is the krylov and variational routes: since f = w r(w^2), a least-squares fit
in u = w^2 over the D(D - 1)/2 pairs n < m, solved by projection onto the
kernel's basis; ``krylov_cd`` and ``variational_cd`` make one ``eigh`` of H
for it. ``frame_odd_commutator_support`` reads the odd chain operators
directly as the kernel's basis in u over the pairs. The algebraic route
solves one linear system B a = u over its trial span (``algebraic_system``),
as does the krylov route in its chain form, whose B is tridiagonal in the
chain normalizations (``krylov_system``); every such system is solved the
same way (``solve_cd``): minimum-norm least squares from one batched
eigendecomposition of B.

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
    basis_ops[k] = -L_k. ``support``, a boolean mask of shape (len(basis),)
    or (n, len(basis)) (one row per time of a stack), restricts each time's
    system to its support: rows and columns outside it are zero, so the
    minimum-norm solution leaves those coefficients at zero.
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
        keep = _support_mask(support, n, m)
        B *= keep[:, :, None] & keep[:, None, :]
        u *= keep
        meta["support"] = keep[0] if single else keep
    ops = np.broadcast_to(-L, (len(H),) + L.shape)
    if single:
        return LinearCDSystem(B=B[0], u=u[0], basis_ops=ops[0], metadata=meta)
    return LinearCDSystem(B=B, u=u, basis_ops=ops, metadata=meta)


def _support_mask(support, n: int, m: int) -> np.ndarray:
    """The (n, m) boolean mask of a ``support`` given for n times over m basis
    elements; ValueError for anything but a boolean (m,) or (n, m) array,
    such as the index list ``odd_commutator_support`` returns for one time."""
    keep = np.asarray(support)
    if keep.dtype != bool or keep.shape not in ((m,), (n, m)):
        raise ValueError(f"support must be a boolean mask of shape ({m},) or ({n}, {m}), "
                         f"not {keep.dtype} of shape {keep.shape}")
    return np.broadcast_to(keep, (n, m))


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
    """The time-stacked ``krylov_chain`` from eigenframes (E, V) of H, as for
    ``_frame``: ``_lanczos`` on multiplication by w over the D^2 entries from
    |dHe| / sqrt(D), whose x_k = p_k(w) |dHe| / sqrt(D) the phase dHe / |dHe|
    and V carry back to Q_k = sqrt(D) x_k o phase. The b_k of k >= 1 are
    frequencies, so a chain ends at b <= 1e-10 max|w|, whatever the drive's
    scale. The kernel runs to k_max + 1 norms, the last of which is b_next."""
    n, D = E.shape
    Vh, dHe, w, s, scale, _ = _frame(E, V, dH)
    phase = np.divide(dHe, np.abs(dHe), out=np.zeros_like(dHe), where=s > 0.0)
    hard_cap = D * D - D + 1
    k_max = hard_cap if k_max is None else max(1, min(k_max, hard_cap))
    X, norms, length = _lanczos(w.reshape(n, D * D), s.reshape(n, D * D) / np.sqrt(D), k_max + 1,
                                1e-10 * np.ptp(E, axis=1))
    length = np.minimum(length, k_max)
    b_next = norms[np.arange(n), length]
    K = max(int(length.max()), 1)
    b = norms[:, :K] * (np.arange(K) < length[:, None])
    b[:, 0] /= scale
    ops = np.sqrt(D) * X[:, :K].reshape(n, K, D, D) * phase[:, None]
    ops = np.matmul(np.matmul(V[:, None], ops), Vh[:, None])
    return KrylovChain(ops=ops, b=b, b_next=b_next, length=length)


def _frame(E: np.ndarray, V: np.ndarray, dH: np.ndarray):
    """The prelude of the frame routes, from (n, D) energies E and (n, D, D)
    vectors V of H at n times, in any matching column order and phases, and
    the (n, D, D) stack dH: V^dagger, dHe = V^dagger dH V, s = |dHe| times
    the power of two ``scale`` per time that keeps its norms finite, the Bohr
    frequencies w_nm = E_n - E_m and the live times: a nonzero drive that
    passes the chain's commuting test |w x_0| > 1e-10 max|w|, x_0 = s / |s|,
    which a fully degenerate spectrum fails."""
    n, D = E.shape
    Vh = np.conjugate(V).swapaxes(1, 2)
    dHe = np.matmul(np.matmul(Vh, dH), V)
    w = E[:, :, None] - E[:, None, :]
    s = np.abs(dHe)
    scale = _unit_scale(s)
    s *= scale[:, None, None]
    norm = np.sqrt(_norm2(s.reshape(n, D * D)))
    live = norm > 0.0
    x0 = s.reshape(n, D * D) * _inverse(norm, live)[:, None]
    live &= np.sqrt(_norm2(w.reshape(n, D * D) * x0)) > 1e-10 * np.ptp(E, axis=1)
    return Vh, dHe, w, s, scale, live


def _lanczos(a: np.ndarray, y: np.ndarray, K: int, tol: float | np.ndarray):
    """Lanczos on multiplication by the real (n, m) stack a, one row per
    time, from the real (n, m) start y: an orthonormal basis of each time's
    span{a^j y : j < K}, as (X, norms, length).

    X (n, k, m) holds each time's first ``length`` vectors and zero rows
    after them (k, grown geometrically, may exceed length.max()). norms[:, 0]
    is |y| and norms[:, j] the norm of step j before normalization, up to the
    step that ends the time, and zero after it. A time with y = 0 is empty.
    Each step makes the three-term recurrence, then projects the new vector
    off all earlier ones with one stacked product; a second pass runs only at
    times where the first removed more than half of its squared norm (the
    Daniel-Gragg-Kaufman-Stewart test) and left at least tol^2. A time ends
    at its first step whose norm is at most tol (a scalar, or one per time),
    or at K vectors: the kernel makes at most K - 1 steps.
    """
    n, m = y.shape
    b = np.sqrt(_norm2(y))
    live = (b > 0.0) & (K > 0)
    X = np.zeros((n, min(K, 16), m))
    if K:
        np.multiply(y, _inverse(b, live)[:, None], out=X[:, 0])
    norms, length = [b], live.astype(int)
    for k in range(1, K):
        W = a * X[:, k - 1]
        W -= np.einsum("ti,ti->t", W, X[:, k - 1])[:, None] * X[:, k - 1]
        if k > 1:
            W -= b[:, None] * X[:, k - 2]
        w2 = _norm2(W)
        W -= _projection(X[:, :k], W)
        r2 = _norm2(W)
        again = np.flatnonzero(live & (r2 <= 0.5 * w2) & (r2 >= tol * tol))
        if len(again):
            W[again] -= _projection(X[again, :k], W[again])
            r2[again] = _norm2(W[again])
        b = np.sqrt(r2) * live
        norms.append(b)
        live &= b > tol
        if not live.any():
            break
        if k == X.shape[1]:
            X = np.concatenate([X, np.zeros((n, min(k, K - k), m))], axis=1)
        np.multiply(W, _inverse(b, live)[:, None], out=X[:, k])
        length += live
    return X, np.stack(norms, axis=1), length


def _unit_scale(s: np.ndarray) -> np.ndarray:
    """The power of two per time that brings the largest entry of each row of
    a non-negative (n, ...) stack into [0.5, 1): 1 for a zero row, and at most
    2^1021 for a subnormal one. Scaling by it is exact, so the norm of a
    scaled row has the bits of the unscaled norm, scaled, also where the
    unscaled sum of squares would overflow."""
    exponent = np.frexp(s.reshape(len(s), -1).max(axis=1, initial=0.0))[1]
    return np.ldexp(1.0, -np.maximum(exponent, -1021))


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
    holds, as for ``_frame``, the analogue of ``spectral.frame_cd``: the
    (n, D, D) H_cd at the n times.

    The odd chain operators up to k_max are i f(w) o dHe for the odd
    f = w r(u), u = w^2, of degree below k_max, so the route is a weighted
    least-squares fit of -1/w over the pairs n < m (Sels & Polkovnikov, PNAS
    114, E3909 (2017)): s u r(u) is the projection of -s onto
    span{s u^j : 1 <= j <= k_max // 2} (every j for k_max None: exact CD on
    the support of dHe), whose basis is ``_lanczos`` on multiplication by u
    (scaled to max 1) from s u. H_cd = V (i f o dHe) V^dagger is checked
    Hermitian at each time, and is zero at k_max <= 1 and at the times that
    ``_frame`` does not keep live.
    """
    n, D = E.shape
    Vh, dHe, w, s, _, live = _frame(E, V, dH)
    i, j = np.triu_indices(D, 1)
    s, w = s[:, i, j], w[:, i, j]
    u = w * w
    u *= _inverse(u.max(axis=1, initial=0.0), live)[:, None]      # zero at the times that have ended
    K = len(u[0]) if k_max is None else min(max(k_max, 0) // 2, len(u[0]))
    fit = -_projection(_lanczos(u, s * u, K, 1e-10)[0], s)            # s u r(u), zero where s u is
    f = np.zeros_like(fit)
    fitted = fit != 0.0
    np.divide(fit, s, out=f, where=fitted)
    np.divide(f, w, out=f, where=fitted)
    cd = np.zeros_like(dHe)
    cd[:, i, j] = 1j * f * dHe[:, i, j]
    cd[:, j, i] = np.conjugate(cd[:, i, j])
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
    restricted at each time to the boolean mask ``support`` when given (see
    ``algebraic_system``).

    Each time expands into one commutator per basis element, so a time stack
    runs in sub-stacks whose (n, len(basis), D, D) commutator stack fits
    ``STACK_BYTES``.
    """
    single, H, dH = as_stacks(H, dH)
    support = None if support is None else _support_mask(support, len(H), len(trial_basis))
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
    eigenframes a caller holds, as for ``_frame``. The odd chain operators up
    to Q_{2 max_order - 1} are i g(w) o dHe for the odd g = w q(u), so over
    the pairs n < m they are ``_lanczos`` on multiplication by u from s w at
    the live times: sqrt(D / 2) x o dHe / |dHe| at (n, m), anti-Hermitian.
    An element is in the support when its overlap with one exceeds 1e-10."""
    n, D = E.shape
    Vh, dHe, w, s, _, live = _frame(E, V, dH)
    i, j = np.triu_indices(D, 1)
    s, w, dHe = s[:, i, j], w[:, i, j], dHe[:, i, j]
    u = w * w
    u *= _inverse(u.max(axis=1, initial=0.0), live)[:, None]
    K = len(u[0]) if max_order is None else min(max(max_order, 0), len(u[0]))
    X, _, length = _lanczos(u, s * w * live[:, None], K, 1e-10)
    K = int(length.max())
    phase = np.divide(dHe, np.abs(dHe), out=np.zeros_like(dHe), where=s > 0.0)
    odd = np.zeros((n, K, D, D), dtype=complex)
    odd[:, :, i, j] = np.sqrt(D / 2) * X[:, :K] * phase[:, None]
    odd[:, :, j, i] = -np.conjugate(odd[:, :, i, j])
    odd = np.matmul(np.matmul(V[:, None], odd), Vh[:, None])
    return (np.abs(gram_matrix(basis.elements, odd)) > 1e-10).any(axis=2)
