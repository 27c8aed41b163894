"""Norm-preserving integration of the time-dependent Schrodinger equation,
adiabatic-frame populations, and overlap metrics.

One step rule. ``Magnus4Walk`` steps an evenly spaced grid by one
fourth-order Magnus step per interval from the operators at the grid points,
which a caller that already holds them hands over chunk by chunk.
``spectral.cd_walk`` is that caller for every counterdiabatic run, exact or
approximate, and for the QSL partner trajectory; ``evolve`` is that caller for
a time callable, on the caller's grid split ``steps_per_interval`` times.
Population invariants at the 1e-7 level need norm preservation by
construction, which generic adaptive ODE steppers do not guarantee.

Time stacks. A time callable such as ``H_of_t`` maps a 1-D array of n times
to a finite (n, D, D) stack; ``stack_at``, which every kernel reads them
through, enforces that contract. Kernels walk a
grid in chunks (``time_chunks``): the first chunk holds one time and fixes D,
every later one holds as many times as fit one complex (n, D, D) stack into
``STACK_BYTES`` (1024 times at D = 2, 64 at D = 8, 16 at D = 16, 1 at
D >= 46). Only the state recursion runs point by point.

Two step kernels. A chunk of several times is one batched
eigendecomposition, whose exponentials are exactly unitary. A chunk of one
time (every chunk at D >= 46, and the first chunk of every run) applies the
exponential to the state alone by short-iterative Lanczos (``lanczos_step``;
Park & Light, J. Chem. Phys. 85, 5870 (1986)), which costs matrix-vector
products instead of a D x D eigendecomposition. Its basis grows until an
a-priori bound on the Krylov defect (Hochbruck & Lubich, SIAM J. Numer. Anal.
34, 1911 (1997)) is at most ``KRYLOV_TOL`` times the norm of the state, so its
step is unitary and exact to that bound; a step whose basis reaches D/2
first, where the basis costs about as much as the eigendecomposition, goes
through the eigendecomposition instead.

Held arrays. A ``Magnus4Walk`` whose chunks hold one time each allocates its
D x D arrays once: the ring of the last four operators and four work arrays,
which take the weighted node sums, the commutator product and the Hermitian
part of ``lanczos_step``, and which ``spectral.cd_walk`` borrows for the
exact H_cd between pushes. ``time_chunks`` (and ``spectral.eigenpath``, its
reader) drop each chunk before the next is made, so the per-call arrays of
the callables and of ``eigh`` reuse the same freed blocks at every grid point
instead of growing the heap and faulting it in again after each trim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

#: byte budget of one complex (n, D, D) time stack
STACK_BYTES = 64 * 1024

#: bound on the Lanczos step's Krylov defect, per unit norm of the state
KRYLOV_TOL = 1e-16


def stack_at(H_of_t: Callable[[np.ndarray], np.ndarray], times: np.ndarray) -> np.ndarray:
    """H_of_t(times) as a complex (n, D, D) stack; any other shape is a
    ValueError, and a NaN or infinite entry a NonFiniteError naming its first time."""
    H = np.asarray(H_of_t(times), dtype=complex)
    if H.ndim != 3 or H.shape[0] != len(times) or H.shape[1] != H.shape[2]:
        raise ValueError(f"a time callable must map {len(times)} times to an ({len(times)}, D, D) stack, "
                         f"got shape {H.shape}")
    if not np.isfinite(H).all():
        finite = np.isfinite(H).all(axis=(1, 2))
        raise NonFiniteError(f"the operator stack holds non-finite entries at t = {times[np.argmin(finite)]}")
    return H


def as_stacks(H, dH):
    """(single, H, dH) with H and dH of one shape (DimensionMismatchError
    otherwise) as complex (n, D, D) stacks; single when they were one matrix."""
    H = np.asarray(H, dtype=complex)
    dH = np.asarray(dH, dtype=complex)
    if H.shape != dH.shape:
        raise DimensionMismatchError(f"H has shape {H.shape}, dH has shape {dH.shape}")
    single = H.ndim == 2
    return single, H.reshape((-1,) + H.shape[-2:]), dH.reshape((-1,) + H.shape[-2:])


def check_aligned(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """ValueError naming ``what`` unless grid b matches grid a to 1e-12 of max(1, |a[-1]|)."""
    if len(a) != len(b) or np.abs(a - b).max() > 1e-12 * max(1.0, abs(a[-1])):
        raise ValueError(f"{what} grids are not aligned")


def check_normalized(psi: np.ndarray, what: str) -> None:
    """ValueError naming ``what`` unless the vector psi has norm 1 within 1e-10 (a NaN norm fails)."""
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise ValueError(f"{what} must be normalized")


def time_chunks(H_of_t: Callable[[np.ndarray], np.ndarray], times: np.ndarray):
    """Yield (start, H_of_t(times[start:start + n])) over consecutive chunks of
    ``times``: one time first, then chunks of the ``STACK_BYTES`` budget."""
    times = np.asarray(times, dtype=float)
    start, n = 0, 1
    while start < len(times):
        H = stack_at(H_of_t, times[start:start + n])
        D = H.shape[1]
        yield start, H
        del H           # the next chunk's arrays then reuse its blocks
        start += n
        n = max(1, STACK_BYTES // (16 * D ** 2))


def sample(H_of_t: Callable[[np.ndarray], np.ndarray], times: np.ndarray) -> np.ndarray:
    """The whole (n, D, D) stack of H_of_t on ``times``, evaluated chunk by chunk."""
    return np.concatenate([H for _, H in time_chunks(H_of_t, times)])


@dataclass
class StateTrajectory:
    """Time-indexed normalized state vectors."""

    grid: np.ndarray
    states: np.ndarray             # (n_t, D)

    def final(self) -> np.ndarray:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def step_unitary(H: np.ndarray, dt) -> np.ndarray:
    """exp(-i dt H) by eigendecomposition; exactly unitary at desk scale.

    H is one (D, D) matrix or an (n, D, D) stack, dt a number or one step per
    matrix. A non-finite H is a NonFiniteError."""
    if not np.isfinite(H).all():
        raise NonFiniteError("Hamiltonian contains non-finite entries")
    E, V = np.linalg.eigh(H)
    phase = np.exp(-1j * E * np.asarray(dt, dtype=float)[..., None])
    return (V * phase[..., None, :]) @ V.conj().swapaxes(-1, -2)


def lanczos_step(H: np.ndarray, psi: np.ndarray, tau: float, work: np.ndarray | None = None) -> np.ndarray | None:
    """exp(-i tau H) psi by short-iterative Lanczos, or None when the basis
    reaches D/2 vectors before its defect bound holds.

    The Krylov basis of the Hermitian part A of H is reorthogonalized in full,
    in two passes per vector. With T_m the m x m Lanczos tridiagonal and
    beta_k its couplings (beta_m the norm of the residual), the defect of an
    m-vector step is at most, per unit norm of psi,

        tau beta_m [tau^(m-1) prod_{k<m} beta_k / (m-1)! + x^m e^x / m!],  x = tau ||A||_F,

    a bound on the integral over s in [0, tau] of |<e_m| exp(-i s T_m) |e_1>|
    from its first nonzero Taylor term plus the tail of the series. The basis
    grows until that is at most ``KRYLOV_TOL`` (beta_m = 0, a breakdown,
    makes it 0), and T_m is diagonalized once. Past D/2 vectors the basis
    costs about as much as a D x D eigendecomposition. ``work``, a (D, D)
    complex array other than H, receives A in place of a fresh array.
    """
    A = np.conjugate(H.T, out=np.empty_like(H) if work is None else work)
    A += H
    A *= 0.5
    x = tau * math.sqrt(np.vdot(A, A).real)
    norm = math.sqrt(np.vdot(psi, psi).real)
    cap = len(psi) // 2
    V = np.empty((cap + 1, len(psi)), dtype=complex)
    Vc = np.empty_like(V)           # the conjugated basis: <V_k|w> is one product
    np.divide(psi, norm, out=V[0])
    np.conjugate(V[0], out=Vc[0])
    alpha, beta = [], []
    lead, tail = 1.0, x * math.exp(x) if x < 700.0 else math.inf
    for m in range(1, cap + 1):
        w = A @ V[m - 1]
        a = 0.0
        for _ in range(2):
            h = Vc[:m] @ w
            w -= h @ V[:m]
            a += h[m - 1].real
        b = math.sqrt(np.vdot(w, w).real)
        alpha.append(a)
        beta.append(b)
        if b == 0.0 or tau * b * (lead + tail) <= KRYLOV_TOL:
            break
        np.divide(w, b, out=V[m])
        np.conjugate(V[m], out=Vc[m])
        lead *= tau * b / m
        tail *= x / (m + 1)
    else:
        return None
    T = np.zeros((m, m))
    T.flat[::m + 1], T.flat[1::m + 1], T.flat[m::m + 1] = alpha, beta[:-1], beta[:-1]
    theta, S = np.linalg.eigh(T)
    return norm * ((S @ (np.exp(-1j * tau * theta) * S[0])) @ V[:m])


def _chunk_states(H: np.ndarray, psi: np.ndarray, h: float, work: np.ndarray | None = None):
    """Yield the state after each step exp(-i h H[k]) of one chunk of
    operators, one step per interval of an evenly spaced grid of spacing h:
    by ``lanczos_step`` (with its ``work`` array) when the chunk holds one
    operator and its basis suffices, else by one batched eigendecomposition
    of the chunk."""
    if len(H) == 1:
        psi_next = lanczos_step(H[0], psi, h, work)
        if psi_next is not None:
            yield psi_next
            return
    E, V = np.linalg.eigh(H)
    phase = np.exp(-1j * E * h)
    Vh = V.conj().swapaxes(1, 2)
    for k in range(len(H)):
        psi = V[k] @ (phase[k] * (Vh[k] @ psi))
        yield psi


#: the weights of a ``Magnus4Walk`` step by stencil width: rows are the first,
#: an interior and the last interval, columns the stencil's grid points. W
#: integrates the interpolant through them over the interval, in units of h;
#: M is its value at the interval's midpoint. A 3-point grid has no interior
#: interval.
_MAGNUS4 = {
    4: (np.array([[9, 19, -5, 1], [-1, 13, 13, -1], [1, -5, 19, 9]]) / 24,
        np.array([[5, 15, -5, 1], [-1, 9, 9, -1], [1, -5, 15, 5]]) / 16),
    3: (np.array([[5, 8, -1], [0, 0, 0], [-1, 8, 5]]) / 12,
        np.array([[3, 6, -1], [0, 0, 0], [-1, 6, 3]]) / 8),
}


def uniform_step(grid: np.ndarray) -> float:
    """The spacing h of an increasing, evenly spaced grid of at least 3 points,
    every spacing within 1e-9 of h relative; ValueError for any other grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError(f"the grid must be a 1-D array of at least 3 times, got shape {grid.shape}")
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    if not h > 0 or np.abs(np.diff(grid) - h).max() > 1e-9 * h:
        raise ValueError("the grid must be increasing and evenly spaced (within 1e-9 relative)")
    return h


class Magnus4Walk:
    """Propagate psi0 along an evenly spaced grid by one fourth-order Magnus
    step per interval, whose nodes are grid points.

    The operators A_k at the grid points arrive in order, one (n, D, D) chunk
    per ``push``. Interval [t_i, t_i+1] takes the four grid points nearest to
    it, i-1 .. i+2 inside the grid and the first or last four at its ends (the
    three points of a 3-point grid), and steps

        psi <- exp(-i h H_eff) psi,
        H_eff = sum_k w_k A_k + (i h / 12) [a0, A_i+1 - A_i],  a0 = sum_k m_k A_k,

    with the weights of ``_MAGNUS4``: sum_k w_k A_k integrates the cubic
    through the nodes and a0 is its midpoint value, so the global error is
    O(h^4) (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999); Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)). Each push steps every
    interval whose nodes it completes by ``_chunk_states``: one batched
    ``eigh`` when the chunk holds several times, a ``lanczos_step`` per
    interval when it holds one. The walk holds the (at most 3) earlier
    nodes a later interval reads, besides the chunk. ``uniform_step`` checks
    the grid, and psi0 must be normalized (ValueError otherwise). A step that
    leaves a non-finite state, such as one whose commutator product
    overflows, is a NonFiniteError naming its interval, not a numpy warning.

    While every push holds one time (every chunk at D >= 46) the ring is four
    operators, and a step makes no D x D array: one (2, 4) by (4, D^2)
    product of the weights, permuted to the ring's slots, gives sum_k w_k A_k
    and a0 without gathering the nodes, and the commutator product and the
    Hermitian part of ``lanczos_step`` are written into ``work``, the walk's
    four (D, D) work arrays. A push copies A into the ring before it steps, so
    a caller may form A in ``work`` between pushes. A walk that has taken a
    chunk of several times steps from gathered nodes, as a stack.

    The walk carries the current state and records it at grid points 0,
    ``every``, 2 ``every``, ..., so a walk on a grid split ``every`` times
    holds the states of the coarse grid alone.
    """

    def __init__(self, psi0: np.ndarray, grid: np.ndarray, every: int = 1):
        self.grid = np.asarray(grid, dtype=float)
        self.h = uniform_step(self.grid)
        psi = np.ascontiguousarray(psi0, dtype=complex)
        check_normalized(psi, "initial state")
        self.every = every
        self.psi = psi
        self.states = np.empty(((len(self.grid) - 1) // every + 1, len(psi)), dtype=complex)
        self.states[0] = psi
        # grid point k is ring[k % len(ring)]; the ring holds the chunk and
        # the 3 points before it, which a later interval may still read
        self.ring = np.empty((0, len(psi), len(psi)), dtype=complex)
        self.work = np.empty((4, len(psi), len(psi)), dtype=complex)
        self.known = 0          # grid points pushed so far
        self.next = 0           # the next interval to step

    def push(self, A: np.ndarray) -> None:
        """Take the operators at the next len(A) grid points and step every
        interval whose nodes are now known."""
        n_t, D = len(self.grid), self.states.shape[1]
        if np.shape(A)[1:] != (D, D):
            raise DimensionMismatchError(f"psi0 has shape {(D,)}, the operators {np.shape(A)[1:]}")
        known = self.known + len(A)
        if known > n_t:
            raise ValueError(f"the walk takes {n_t} grid points, got {known}")
        if len(A) + 3 > len(self.ring):
            # zeros: a 3-point grid's one-time product reads the unused slot with weight 0
            ring = np.zeros((len(A) + 3, D, D), dtype=complex)
            held = np.arange(max(0, self.known - 3), self.known)
            ring[held % len(ring)] = self.ring[held % len(self.ring)]
            self.ring = ring
        self.ring[np.arange(self.known, known) % len(self.ring)] = A
        self.known = known
        s = min(n_t, 4)
        stop = n_t - 1 if known == n_t else known - 2 if known >= s else 0
        # a chunk of several times steps its intervals as one stack, a chunk of
        # one time interval by interval, so no temporary outgrows one operator
        per = max(1, stop - self.next) if len(A) > 1 else 1
        # an overflow shows in the chunk's last state, one D-vector checked per chunk
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(self.next, stop, per):
                i = np.arange(j, min(j + per, stop))
                H = self._operator(i)
                for k, psi in enumerate(_chunk_states(H, self.psi, self.h, self.work[3]), j + 1):
                    if k % self.every == 0:
                        self.states[k // self.every] = psi
                if not np.isfinite(psi).all():
                    bad = i[~np.isfinite(H).all(axis=(1, 2))]
                    lo, hi = (bad[0], bad[0] + 1) if len(bad) else (i[0], i[-1] + 1)
                    raise NonFiniteError(f"the Magnus step between t = {self.grid[lo]} and t = {self.grid[hi]} "
                                         "is not finite")
                self.psi = psi
        self.next = max(self.next, stop)

    def _operator(self, i: np.ndarray) -> np.ndarray:
        """The (len(i), D, D) stack of H_eff of the intervals i."""
        n_t, s, ring = len(self.grid), min(len(self.grid), 4), self.ring
        if len(ring) == 4:
            return self._held_operator(int(i[0]))
        w, m = (table[np.where(i == 0, 0, np.where(i == n_t - 2, 2, 1))] for table in _MAGNUS4[s])
        lo = np.clip(i - 1, 0, n_t - s)
        H = np.zeros((len(i),) + ring.shape[1:], dtype=complex)
        a0 = np.zeros_like(H)
        for k in range(s):
            node = ring[(lo + k) % len(ring)]
            H += w[:, k, None, None] * node
            a0 += m[:, k, None, None] * node
        node = ring[(i + 1) % len(ring)]
        node -= ring[i % len(ring)]
        P = a0 @ node
        del a0, node
        P -= P.conj().swapaxes(1, 2)
        P *= 1j * self.h / 12
        H += P
        return H

    def _held_operator(self, i: int) -> np.ndarray:
        """The (1, D, D) H_eff of interval i when every push held one time, in
        ``work``: one product of the (2, 4) weights, permuted to the ring's
        slots, with the ring gives sum_k w_k A_k and a0, and the commutator
        product writes into the held arrays too."""
        n_t, ring, work = len(self.grid), self.ring, self.work
        s = min(n_t, 4)
        row, lo = (0 if i == 0 else 2 if i == n_t - 2 else 1), min(max(i - 1, 0), n_t - s)
        C = np.zeros((2, 4))
        C[:, (lo + np.arange(s)) % 4] = [table[row] for table in _MAGNUS4[s]]
        np.matmul(C, ring.reshape(4, -1).view(float), out=work[:2].reshape(2, -1).view(float))
        H, a0, diff, P = work
        np.subtract(ring[(i + 1) % 4], ring[i % 4], out=diff)
        np.matmul(a0, diff, out=P)
        Ph = np.conjugate(P.T, out=a0)
        P -= Ph
        P *= 1j * self.h / 12
        H += P
        return work[:1]

    def trajectory(self) -> StateTrajectory:
        """The states at every ``every``-th grid point; ValueError until every interval is stepped."""
        if self.next != len(self.grid) - 1:
            raise ValueError(f"the walk stepped {self.next} of {len(self.grid) - 1} intervals")
        return StateTrajectory(grid=self.grid[::self.every], states=self.states)


def evolve(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    psi0: np.ndarray,
    grid: np.ndarray,
    steps_per_interval: int = 1,
) -> StateTrajectory:
    """Propagate psi0 along an evenly spaced time grid under H(t), by a
    ``Magnus4Walk`` with O(h^4) global error in its step h.

    Each grid interval is split into ``steps_per_interval`` equal steps, H is
    evaluated at the points of that refined grid one ``time_chunks`` chunk at
    a time, and each chunk is pushed to the walk, whose chunk length picks
    the step kernel. The grid must pass ``uniform_step`` (evenly spaced
    within 1e-9 relative, at least 3 points), every chunk finite and of the D
    of ``psi0``, and ``steps_per_interval`` an int >= 1; ValueError otherwise
    (NonFiniteError from ``stack_at``, DimensionMismatchError for D). The
    states are returned on ``grid``, and the walk holds those alone.
    """
    per = steps_per_interval
    if isinstance(per, bool) or not isinstance(per, (int, np.integer)) or per < 1:
        raise ValueError(f"steps_per_interval must be an int >= 1, got {per!r}")
    grid = np.asarray(grid, dtype=float)
    uniform_step(grid)
    fine = np.linspace(grid[0], grid[-1], (len(grid) - 1) * per + 1)
    walk = Magnus4Walk(psi0, fine, every=per)
    for _, H in time_chunks(H_of_t, fine):
        walk.push(H)
    return StateTrajectory(grid=grid, states=walk.trajectory().states)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over the grid x along the first
    axis, zero at x[0]; the result has the shape of y."""
    y = np.asarray(y)
    dx = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    steps = dx * (y[1:] + y[:-1]) / 2.0
    return np.concatenate([np.zeros((1,) + steps.shape[1:], dtype=steps.dtype), np.cumsum(steps, axis=0)])


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> with the physics convention (conjugate-linear in the first slot)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"state shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2, insensitive to the global phase of either state."""
    return abs(overlap(a, b)) ** 2


def adiabatic_populations(traj: StateTrajectory, path) -> np.ndarray:
    """Adiabatic-frame populations |<n(t)|Psi(t)>|^2 of the modes ``path``
    keeps: an (n_t, K) array whose column k is mode ``path.modes[k]``, so
    (n_t, D) for a path that keeps every mode. Transitionless driving keeps
    every column constant.

    ``path`` is an EigenPath on the grid of ``traj`` (ValueError otherwise).
    The overlaps are taken as <Psi|n> against the conjugated states, so the
    (n_t, D, K) path is never copied.
    """
    check_aligned(traj.grid, path.grid, "trajectory and eigenpath")
    return np.abs(np.einsum("tdn,td->tn", path.vectors, traj.states.conj())) ** 2
