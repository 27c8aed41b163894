"""Gauge-smoothed eigen-decompositions along a drive, exact counterdiabatic
terms and the adiabatic gauge potential, adiabatic reference states, the
adiabaticity metric and the quantum geometric tensor.

Eigenvector gauges are fixed by maximal-overlap phase alignment between
consecutive grid points; level labels follow continuity (overlap matching),
not per-time sort order, so labels survive avoided crossings. Each mode takes
the partner of largest squared overlap. Between two orthonormal frames the
squared overlaps of one mode sum to 1, so a best partner above 1/2 is unique
and these choices form the best assignment. A best partner at or below 1/2
leaves an overlap of at most 1/sqrt(2) < ``OVERLAP_MIN`` = 0.9, which
``eigenpath`` bisects or rejects whatever was matched, so no assignment solver
is needed and the module needs numpy alone. An avoided crossing narrower
than the grid keeps the overlap above 0.9, so the rank guard also bisects
where a mode changes energy rank (its column in the ascending ``eigh`` frame)
with an overlap below ``RANK_OVERLAP``: the modes follow the adiabatic
continuation, and only fixed eigenvectors (overlap 1) let levels cross.

One kernel, ``_coupling``, gives the coupling matrix
M_nm = i hbar <n|dH|m> / (E_m - E_n) from an eigendecomposition (E, V) of H
and from dH. The CD term (or, for dH = d_lambda H, the gauge potential) is
V M V^dagger, formed by ``frame_cd`` from frames its caller holds, the
adiabaticity metric |M_nm| / |E_m - E_n|, the geometric tensor
Re <n|A_i A_j|n> / hbar^2. A closed gap contributes zero where nothing
couples across it, as at a symmetry-protected crossing, and raises
DegeneracyError where something does.
One function, ``discrete_connection``, gives the overlaps <n(t_i)|n(t_{i+1})>
behind every geometric and Lewis-Riesenfeld phase.

An ``EigenPath`` stores the vectors of the modes its caller names and the
energies of all of them, while the tracker itself always aligns whole
frames: a run that reads only the ground mode stores (n_t, D, 1) vectors
instead of (n_t, D, D). The readers of a path (``adiabatic_state``,
``geometric_integrand``, ``loop_geometric_phase`` and
``dynamics.adiabatic_populations``) work on its kept columns and raise
ValueError for a mode it did not keep.

Time callables follow the time-stack contract of ``dynamics``: H_of_t maps a
1-D array of n times to an (n, D, D) stack. ``eigenpath`` diagonalizes the
grid one ``STACK_BYTES`` chunk per ``eigh`` call and tracks it by one rule,
whatever the chunk's length: each mode keeps its energy rank while its
overlap with the column of that rank reaches ``OVERLAP_MIN``
(``_same_ranks``, O(D^2) per time). Only an interval where it does not, a
turn of the frame or a change of rank, goes through the O(D^3) per-point
match ``_align_frames`` and its bisection.
``counterdiabatic_term`` takes one matrix or an (n, D, D) stack (``dynamics.as_stacks``).

Counterdiabatic driving in one walk. ``cd_walk`` makes one ``eigh`` per
grid chunk serve the eigenpath, the CD route and the propagation:
``eigenpath`` hands each chunk's decomposition to a consumer, which forms
A = H + H_cd at the grid points and feeds them to the fourth-order
``dynamics.Magnus4Walk``. Every route reads that decomposition: the exact
H_cd is ``frame_cd`` of it, and any other route is a ``route(H, E, V, dH)``,
such as the variational and Krylov ``agp.frame_krylov_cd``, whose chain runs
over the Bohr frequencies of those frames. So a CD run on an
evenly spaced grid diagonalizes H once per grid point (plus the bisections of
the tracker), makes no commutator chain, and evaluates its route once per
grid point. At one time per chunk an exact-CD grid point costs one ``eigh``,
the four products of the exact H_cd and the one commutator product of the
Magnus step, and nothing else of order D^3; H_cd and the Magnus operator are
formed in the walk's held work arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (STACK_BYTES, Magnus4Walk, StateTrajectory, as_stacks, cumulative_trapezoid, stack_at,
                       time_chunks, uniform_step)
from .errors import DegeneracyError, DimensionMismatchError, GridTooCoarseError

#: smallest mode overlap |<n(t_i)|n(t_{i+1})>| that ``eigenpath`` accepts
OVERLAP_MIN = 0.9

#: a mode that changes energy rank with an overlap below this fails its interval
RANK_OVERLAP = 1 - 1e-12

#: bisection levels ``eigenpath`` tries on one grid interval before it gives up
MAX_REFINE = 12

#: relative gap floor: gaps below EPS_GAP_REL * max|E| count as degenerate
EPS_GAP_REL = 1e-10


@dataclass
class EigenPath:
    """Smooth-gauge spectral data {E_n(t), |n(t)>} on a time grid: the
    energies of every tracked mode and the vectors of the kept ones.

    energies[i, n] is the energy of the n-th tracked mode at grid[i], for all
    D modes. vectors[i, :, k] is the vector of mode ``modes[k]`` at grid[i];
    a path keeps every mode, so that column k is mode k, unless it was built
    to keep fewer. The gauge satisfies Re <n(t_i)|n(t_{i+1})> > 0 for every
    consecutive pair.
    """

    grid: np.ndarray
    energies: np.ndarray           # (n_t, D), continuity-tracked order
    vectors: np.ndarray            # (n_t, D, K), columns are the kept modes
    modes: np.ndarray | None = None     # (K,) mode labels of the columns; None: 0 .. K-1

    def __post_init__(self):
        if self.modes is None:
            self.modes = np.arange(self.vectors.shape[2])

    def column(self, n: int) -> int:
        """The column of ``vectors`` that holds mode n; ValueError when the
        path did not keep mode n."""
        hit = np.flatnonzero(self.modes == n)
        if not hit.size:
            raise ValueError(f"mode {n} is not kept by this path (it keeps {self.modes.tolist()})")
        return int(hit[0])


def _align_frames(V_prev: np.ndarray, E_cur: np.ndarray, V_cur: np.ndarray):
    """Match modes of V_cur to V_prev by overlap and fix phases; returns
    (E, V, |<prev_n|cur_n>|, perm) with Re <prev_n|cur_n> > 0 and perm[n]
    the column mode n took, its energy rank in an ascending frame.

    Mode n takes the column of V_cur of largest overlap |<prev_n|cur>|. Each
    row and column of P = |overlap|^2 between two orthonormal frames sums to 1,
    so when every row maximum exceeds 1/2 these columns form a permutation and
    the unique maximiser of sum_n P[n, perm(n)]. When a row maximum is at or
    below 1/2, that mode's overlap is at most 1/sqrt(2) < ``OVERLAP_MIN``, so
    the returned sizes already tell ``eigenpath`` to bisect the interval or
    raise; the match made there, a permutation or not, is never used.
    """
    O = V_prev.conj().T @ V_cur
    perm = np.abs(O).argmax(axis=1)
    V = V_cur[:, perm]
    ov = O[np.arange(len(O)), perm]
    V *= np.exp(-1j * np.angle(ov))[None, :]
    return E_cur[perm], V, np.abs(ov), perm


def _fails(size: np.ndarray, rank_from: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Whether each interval, given its (..., D) overlaps and ranks, fails the gate or the rank guard."""
    return (size.min(axis=-1) < OVERLAP_MIN) | ((rank != rank_from) & (size < RANK_OVERLAP)).any(axis=-1)


def _initial_gauge(V: np.ndarray) -> np.ndarray:
    """Phase each column of a frame in place so that its largest component is
    real and positive; returns the frame."""
    big = np.abs(V).argmax(axis=0)
    V *= np.exp(-1j * np.angle(V[big, np.arange(V.shape[1])]))[None, :]
    return V


def _same_ranks(V_from: np.ndarray, rank: np.ndarray, V: np.ndarray, out: np.ndarray) -> int:
    """Track a run of raw ``eigh`` frames V[k], k = 0 .. m - 1, from the
    aligned frame V_from of ranks ``rank`` while every mode keeps its rank:
    out[k] = V[k][:, rank] with the phases of ``_align_frames``, up to the
    first interval where a mode's overlap with the column of its rank is
    below ``OVERLAP_MIN``; returns the number j of frames aligned in out.

    In a passing interval each overlap exceeds 0.9, so that column is the
    mode's unique best partner (|overlap|^2 > 1/2): the labels, the gate and
    the rank guard of ``_align_frames`` are decided, and the overlaps cost
    O(D^2) per frame. Mode n's phase at k is the conjugate of the product of
    its unit overlaps up to k, normalized; the product (not a sum of angles)
    keeps each step's overlap real to rounding however far the phase has
    turned.
    """
    frames = np.take(V, rank, axis=2, out=out[:len(V)], mode="clip")    # "clip" writes out unbuffered
    # w[k, n] = conj <prev_n|frames[k]_n>, prev = V_from, then frames[k - 1]; frames[0] is conjugated in place and back
    w = np.empty((len(frames), len(rank)), dtype=complex)
    np.einsum("dn,dn->n", V_from, np.conjugate(frames[0], out=frames[0]), out=w[0])
    np.conjugate(frames[0], out=frames[0])
    np.einsum("tdn,tdn->tn", frames[:-1], frames[1:].conj(), out=w[1:])
    size = np.abs(w)
    fails = size.min(axis=1) < OVERLAP_MIN
    j = int(fails.argmax()) if fails.any() else len(w)
    phase = np.cumprod(np.divide(w[:j], size[:j], out=w[:j]), axis=0, out=w[:j])
    phase /= np.abs(phase)
    frames[:j] *= phase[:, None, :]
    return j


def eigenpath(H_of_t: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
              modes: list[int] | None = None, on_chunk: Callable | None = None) -> EigenPath:
    """Diagonalize H(t) on a grid with smooth gauge and continuity tracking.

    The grid is diagonalized one time chunk per ``eigh`` call and tracked by
    one rule: each mode keeps the column of its energy rank while every
    overlap with that column reaches the gate ``OVERLAP_MIN`` (0.9), which
    ``_same_ranks`` checks with O(D^2) work per time and no D x D product.
    The first interval where a mode falls below it, by a turn of the frame or
    by a change of rank, is matched by ``_align_frames`` from the aligned
    frame before it. That match passes when it meets the gate and the rank
    guard (``RANK_OVERLAP``): a rank changes only with fixed eigenvectors, as
    at a protected crossing. Otherwise the interval is bisected (the output
    grid is unchanged; only the failing interval's midpoints are evaluated)
    up to ``MAX_REFINE`` (12) levels, then GridTooCoarseError names the
    overlap or the mode; tracking by rank resumes after it. The aligned
    frames alternate between two held chunk-sized arrays, and each chunk's
    H, E and V are dropped before the next chunk is made, so a walk of one
    time per chunk (D >= 46) reuses the same blocks at every grid point. An
    empty grid or a non-finite time is a ValueError before any ``eigh``.

    ``modes`` names the mode labels whose vectors the path keeps, every mode
    by default; the columns hold them in increasing label order. Tracking
    always runs on the whole frame: only the previous aligned frame and its
    ranks are held between chunks, every mode passes the overlap gate and the
    rank guard, and the energies of every mode are kept. So a path that keeps
    K modes stores (n_t, D, K) vectors, and its energies and kept columns are
    those of the full path, bit for bit.

    ``on_chunk(start, H, E, V, kept)``, when given, receives each chunk's
    stack H = H_of_t(grid[start:start + n]), its ascending ``eigh`` output
    (E, V) and its aligned kept vectors, vectors[start:start + n] of the path,
    once the chunk's frames are aligned: a failed match in the chunk is raised
    first. The bisection midpoints are not handed on.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise ValueError(f"eigenpath needs a 1-D grid of at least one time, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        i = int(np.flatnonzero(~np.isfinite(grid))[0])
        raise ValueError(f"grid times must be finite, got {grid[i]} at index {i}")

    def eig_at(t):
        E, V = np.linalg.eigh(stack_at(H_of_t, np.array([t])))
        return E[0], V[0]

    def connect(t0, V_from, rank_from, t1, E1, V1, depth):
        E, V, size, rank = _align_frames(V_from, E1, V1)
        if not _fails(size, rank_from, rank):
            return E, V, rank
        if depth >= MAX_REFINE:
            where = f"between t = {t0} and {t1} after {MAX_REFINE} refinement levels"
            if size.min() < OVERLAP_MIN:
                raise GridTooCoarseError(f"mode overlap {size.min():.3f} < {OVERLAP_MIN} {where}")
            n = int(np.flatnonzero((rank != rank_from) & (size < RANK_OVERLAP))[0])
            raise GridTooCoarseError(f"mode {n} changes energy rank with overlap {size[n]:.15g} {where}")
        tm = 0.5 * (t0 + t1)
        _, Vm, rank_m = connect(t0, V_from, rank_from, tm, *eig_at(tm), depth + 1)
        return connect(tm, Vm, rank_m, t1, E1, V1, depth + 1)

    for start, H in time_chunks(H_of_t, grid):
        E, V = np.linalg.eigh(H)
        if start == 0:          # the first chunk is the one time grid[0]
            D = H.shape[1]
            keep = np.arange(D) if modes is None else np.array(sorted(set(modes)), dtype=int)
            if not keep.size or keep[0] < 0 or keep[-1] >= D:
                raise ValueError(f"modes must name at least one of the labels 0 .. {D - 1}, got {modes!r}")
            cols = slice(None) if modes is None else keep      # a view when every mode is kept
            energies = np.empty((len(grid), D))
            vectors = np.empty((len(grid), D, len(keep)), dtype=complex)
            V_prev, rank = _initial_gauge(V[0].copy()), np.arange(D)
            held, side = np.empty((2, max(1, STACK_BYTES // (16 * D ** 2)), D, D), dtype=complex), 0
            energies[0], vectors[0] = E[0], V_prev[:, cols]
        pos = int(start == 0)
        while pos < len(H):
            frames = held[side]     # the held array that V_prev is not read from
            j = _same_ranks(V_prev, rank, V[pos:], frames)
            i = start + pos
            energies[i:i + j], vectors[i:i + j] = E[pos:pos + j, rank], frames[:j, :, cols]
            if j:
                V_prev, side = frames[j - 1], 1 - side
            pos += j
            if pos < len(H):        # the failing interval, matched and bisected as needed
                i = start + pos
                energies[i], V_prev, rank = connect(grid[i - 1], V_prev, rank, grid[i], E[pos], V[pos], 0)
                vectors[i] = V_prev[:, cols]
                pos += 1
        if on_chunk is not None:
            on_chunk(start, H, E, V, vectors[start:start + len(H)])
        del H, E, V     # before the next chunk's arrays are made, which then reuse their blocks
    return EigenPath(grid=grid, energies=energies, vectors=vectors, modes=keep)


def _coupling(E: np.ndarray, V: np.ndarray, Vh: np.ndarray, dH: np.ndarray, hbar: float,
              where: Callable[[int], str], work=(None, None)):
    """(M, shut) of the (n, D) energies, (n, D, D) eigenvectors V and their
    adjoints Vh of H and the (n, D, D) stack dH (or one derivative per stack
    entry of a single H): M is the coupling matrix of
    ``counterdiabatic_term``, zero where ``shut``, on the diagonal and on the
    closed gaps, those below ``EPS_GAP_REL`` times the time's largest |E|. A
    coupled closed gap raises DegeneracyError, whose message names stack
    entry t by ``where(t)``. The two products are written into the two
    (n, D, D) arrays of ``work`` when it holds them, and M is work[1]."""
    eps = EPS_GAP_REL * np.maximum(np.abs(E).max(axis=1), 1e-300)[:, None, None]
    dHe = np.matmul(np.matmul(Vh, dH, out=work[0]), V, out=work[1])
    gap = E[:, None, :] - E[:, :, None]     # gap[t, n, m] = E_m - E_n
    shut = np.abs(gap) < eps                # the closed gaps and the diagonal
    if np.count_nonzero(shut) > np.count_nonzero(shut.diagonal(axis1=1, axis2=2)):     # a closed gap
        closed = np.broadcast_to(shut & ~np.eye(E.shape[1], dtype=bool), dHe.shape)
        coupling_tol = 1e-9 * np.maximum(np.abs(dHe).max(axis=(1, 2)), 1e-300)
        bad = closed & (np.abs(dHe) > coupling_tol[:, None, None])
        if bad.any():
            t, n, m = np.argwhere(bad)[0]
            raise DegeneracyError(
                f"levels {n} and {m} are degenerate{where(t)} "
                f"(gap {abs(np.broadcast_to(gap, dHe.shape)[t, n, m]):.3e}) with coupling {abs(dHe[t, n, m]):.3e}"
            )
    np.copyto(gap, 1.0, where=shut)
    M = np.multiply(1j * hbar, dHe, out=dHe)
    M /= gap
    np.copyto(M, 0.0, where=shut)
    return M, shut


def counterdiabatic_term(H: np.ndarray, dH: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Exact counterdiabatic operator from H and its time derivative.

    Built from the gauge-free projector form: the (n, m) eigenbasis element is
    i*hbar <n|dH|m> / (E_m - E_n) for m != n, zero on the diagonal. Closed
    gaps are tolerated only where the coupling matrix element also vanishes
    (symmetry-protected crossings); a genuine coupling across a closed gap
    raises DegeneracyError. H and dH are single matrices or (n, D, D) stacks,
    one ``eigh`` call for the stack; the gap floor and the coupling
    tolerance are relative to each time's own spectrum and coupling scale.

    With dH = d_lambda H, a parameter derivative, the result is the adiabatic
    gauge potential A_lambda, and H_cd = lambda_dot . A_lambda.
    """
    single, H, dH = as_stacks(H, dH)
    out = frame_cd(*np.linalg.eigh(H), dH, hbar)
    return out[0] if single else out


def frame_cd(E: np.ndarray, V: np.ndarray, dH: np.ndarray, hbar: float = 1.0, times: np.ndarray | None = None,
             work: np.ndarray | None = None):
    """``counterdiabatic_term`` V M V^dagger from eigenframes a caller holds:
    (n, D) energies E and (n, D, D) vectors V of H at n times, in any matching
    column order and phases, and the (n, D, D) stack dH. A coupled closed gap
    raises DegeneracyError naming t = times[k], or stack index k.

    V^dagger is formed once for both products. ``work``, a (3, n, D, D)
    complex array, takes the products in place of fresh arrays, with the
    same arithmetic, and the result is work[2]."""
    where = ((lambda k: f" at t = {times[k]}") if times is not None
             else (lambda k: f" at stack index {k}" if len(E) > 1 else ""))
    work = (None,) * 3 if work is None else work
    Vh = np.conjugate(V, out=work[0]).swapaxes(1, 2)
    M = _coupling(E, V, Vh, dH, hbar, where, work[1:])[0]
    return np.matmul(np.matmul(V, M, out=work[1]), Vh, out=work[2])


@dataclass
class CDWalk:
    """A ``cd_walk``: the eigenpath and the trajectory under H + H_cd from
    the tracked ground state."""

    path: EigenPath
    trajectory: StateTrajectory


def cd_walk(H_of_t: Callable[[np.ndarray], np.ndarray], dH_of_t: Callable[[np.ndarray], np.ndarray],
            grid: np.ndarray, modes: list[int] | None = None, hbar: float = 1.0,
            route: Callable | None = None, on_chunk: Callable | None = None) -> CDWalk:
    """Drive the ground state with H + H_cd along an evenly spaced grid, one
    ``eigh`` per grid chunk serving the eigenpath, the route and the step.

    ``eigenpath(H_of_t, grid, modes)`` tracks the frames. H_cd at each
    chunk's grid points is formed from that chunk's stack H, its
    decomposition (E, V) and dH = dH_of_t at its times: by ``route(H, E, V,
    dH)``, a route's (n, D, D) H_cd, or by default the exact term
    H_cd = ``frame_cd`` (E, V, dH), the values of ``counterdiabatic_term`` bit
    for bit, which a chunk of one time forms in the walk's work arrays
    (``Magnus4Walk.work``). The ``Magnus4Walk`` steps H + H_cd at the grid
    points; the array a route returns is only read. The state starts in mode 0
    at grid[0], in the path's gauge, so trajectory.states[0] is the path's
    ground vector there. The grid must be evenly spaced (``uniform_step``,
    ValueError before any ``eigh``). A failed frame match raises
    GridTooCoarseError before H_cd of its chunk is formed or the route is
    called on it; a coupled closed gap at a grid point raises DegeneracyError
    in the exact term, as in ``counterdiabatic_term``.

    ``on_chunk(start, H, E, V, kept, cd)``, when given, reads ``eigenpath``'s
    five arguments and the chunk's H_cd, valid during the call, once it is
    formed: a caller that keeps H_cd copies it.
    """
    grid = np.asarray(grid, dtype=float)
    uniform_step(grid)
    walk = None

    def step(start, H, E, V, kept):
        nonlocal walk
        times = grid[start:start + len(H)]
        if start == 0:
            walk = Magnus4Walk(_initial_gauge(V[0, :, :1].copy())[:, 0], grid, hbar)
        dH = stack_at(dH_of_t, times)
        if route is None:       # a chunk of one time forms H_cd in the walk's work arrays
            cd = frame_cd(E, V, dH, hbar, times, walk.work[:3, None] if len(H) == 1 else None)
        else:
            cd = route(H, E, V, dH)
        if on_chunk is not None:
            on_chunk(start, H, E, V, kept, cd)
        # the exact term is the walk's own array; a route's is only read
        walk.push(np.add(cd, H, out=cd) if route is None else H + cd)

    path = eigenpath(H_of_t, grid, modes, step)
    return CDWalk(path=path, trajectory=walk.trajectory())


@dataclass
class AdiabaticState:
    """The transitionless reference trajectory with per-mode phase bookkeeping.

    states[i] = sum_n c_n(0) exp(-i * dynamical[i, n]) exp(+i * geometric[i, n]) |n(t_i)>
    """

    trajectory: StateTrajectory
    dynamical_phases: np.ndarray   # (n_t, K): (1/hbar) int E_n dt', one column per kept mode
    geometric_phases: np.ndarray   # (n_t, K): -Im int <n|d_t n> dt'


def discrete_connection(vectors: np.ndarray) -> np.ndarray:
    """<n(t_i)|n(t_{i+1})> of every mode column n of an (n_t, D, K) path;
    returns the (n_t - 1, K) array.

    The products are taken one ``STACK_BYTES`` chunk of times at a time, so
    no temporary of the path's size is built.
    """
    n_t, D, K = vectors.shape
    out = np.empty((n_t - 1, K), dtype=complex)
    step = max(1, STACK_BYTES // (16 * D * K))
    for s in range(0, n_t - 1, step):
        e = min(s + step, n_t - 1)
        out[s:e] = np.einsum("tdn,tdn->tn", vectors[s:e].conj(), vectors[s + 1:e + 1])
    return out


def geometric_integrand(path: EigenPath, n: int) -> np.ndarray:
    """Midpoint estimates of <n|d_t n> along the path (length n_t - 1);
    ValueError when the path did not keep mode n.

    The antisymmetrized two-point estimator is purely imaginary by
    construction, matching the exact structure for normalized modes.
    """
    k = path.column(n)
    ov = discrete_connection(path.vectors[:, :, k:k + 1])[:, 0]
    return 1j * np.imag(ov) / np.diff(path.grid)


def adiabatic_state(path: EigenPath, c0: np.ndarray, hbar: float = 1.0) -> AdiabaticState:
    """Adiabatic reference state for initial adiabatic-frame coefficients c0.

    c0 has one entry per mode, D in all, and may be nonzero only on the modes
    the path keeps (else ValueError). Per-mode dynamical phases integrate
    E_n(t) with the trapezoid rule on the path grid; geometric phases
    accumulate the (purely imaginary) midpoint overlap increments, which for
    a closed parameter loop reproduce the Berry phase of each mode. Both are
    taken for the kept modes alone, one column each, in ``path.modes`` order.
    """
    c0 = np.asarray(c0, dtype=complex)
    if abs(np.linalg.norm(c0) - 1.0) > 1e-10:
        raise ValueError("initial coefficients must be normalized")
    kept = np.zeros(len(c0), dtype=bool)
    kept[path.modes] = True
    dropped = np.flatnonzero((c0 != 0) & ~kept)
    if dropped.size:
        raise ValueError(f"c0 is nonzero on modes {dropped.tolist()} that the path did not keep")
    dyn = cumulative_trapezoid(path.energies[:, path.modes], path.grid) / hbar
    geo = np.zeros(dyn.shape)
    geo[1:] = -np.cumsum(np.imag(discrete_connection(path.vectors)), axis=0)
    phases = np.exp(-1j * dyn + 1j * geo)
    states = np.einsum("n,tn,tdn->td", c0[path.modes], phases, path.vectors)
    traj = StateTrajectory(grid=path.grid, states=states)
    return AdiabaticState(trajectory=traj, dynamical_phases=dyn, geometric_phases=geo)


def loop_geometric_phase(path: EigenPath, n: int) -> float:
    """Gauge-invariant geometric phase of mode n around a closed parameter loop.

    The path must keep mode n (else ValueError), and H(T) = H(0) so that the
    final eigenframe matches the initial one up to a phase (|<n(T)|n(0)>|
    within 1e-6 of 1, else ValueError). In the maximal-overlap gauge the
    interior connection vanishes (discrete parallel transport) and the whole
    phase appears as the holonomy in the closure overlap; the discrete
    line-integral product makes the value gauge-independent either way. For
    a two-level system the result is minus half the solid angle enclosed on
    the Bloch sphere.
    """
    V = path.vectors[:, :, path.column(n)]
    ov = discrete_connection(V[:, :, None])[:, 0]
    closure = np.vdot(V[-1], V[0])
    if abs(abs(closure) - 1.0) > 1e-6:
        raise ValueError(
            f"loop does not close: |<n(T)|n(0)>| = {abs(closure):.6f}; "
            "the Hamiltonian must return to its initial value"
        )
    return float(-(np.angle(ov).sum() + np.angle(closure)))


def adiabaticity_metric(H: np.ndarray, dH: np.ndarray, m: int, n: int, hbar: float = 1.0) -> float:
    """Two-level adiabaticity measure hbar |<n|dH|m>| / (E_m - E_n)^2 of one
    H and its time derivative, read off the counterdiabatic coupling matrix as
    |(H_cd)_nm| / |E_m - E_n|.

    Values much smaller than 1 indicate the pair (m, n) evolves adiabatically;
    the threshold is left to the caller. A closed gap of the pair raises
    DegeneracyError, as does a coupled closed gap of any other pair; H and dH
    of different shapes, or stacks, raise DimensionMismatchError.
    """
    if m == n:
        raise ValueError("adiabaticity metric needs two distinct levels")
    single, H, dH = as_stacks(H, dH)
    if not single:
        raise DimensionMismatchError(f"adiabaticity_metric takes one H, got a stack of {len(H)}")
    E, V = np.linalg.eigh(H)
    M, shut = _coupling(E, V, V.conj().swapaxes(1, 2), dH, hbar, lambda t: "")
    if shut[0, n, m]:
        raise DegeneracyError(f"levels {m} and {n} are degenerate")
    return float(abs(M[0, n, m]) / abs(E[0, m] - E[0, n]))


def quantum_geometric_tensor(H: np.ndarray, dH_stack: np.ndarray, n: int = 0) -> np.ndarray:
    """Quantum geometric tensor g_ij of the n-th eigenstate of H, from the
    (p, D, D) stack of its parameter derivatives d_i H.

    g_ij = Re <d_i n|(1 - |n><n|)|d_j n> = Re <n|A_i A_j|n> / hbar^2, the
    covariance of the adiabatic gauge potentials A_i, in matrix elements
    sum_{m != n} <n|d_iH|m><m|d_jH|n> / (E_m - E_n)^2. Real, symmetric,
    positive semidefinite. A level degenerate with n contributes nothing when
    no d_i H couples them, and raises DegeneracyError otherwise.
    """
    E, V = np.linalg.eigh(np.asarray(H, dtype=complex)[None])
    A, _ = _coupling(E, V, V.conj().swapaxes(1, 2), np.asarray(dH_stack, dtype=complex), 1.0, lambda t: "")
    g = (A[:, n, :] @ A[:, :, n].T).real
    return 0.5 * (g + g.T)
