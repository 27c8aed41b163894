"""Dynamical invariants, Lewis-Riesenfeld phases, Hamiltonians inverse
engineered from mode paths, and algebra-closed inverse engineering.

Mode paths use the same layout as EigenPath: modes[i, :, n] is the n-th
orthonormal eigenvector of the invariant at grid[i], in a smooth gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import cumulative_trapezoid, time_chunks
from .errors import GaugeDiscontinuityError, HermiticityError
from .operators import OperatorBasis, gram_matrix
from .spectral import OVERLAP_MIN, discrete_connection, eigenpath


@dataclass
class DynamicalInvariant:
    """Hermitian F(t) on a grid, meant to obey the von Neumann equation with a
    conserved spectrum; ``invariant_residual`` and ``eigenvalue_drift``
    measure how well it does."""

    grid: np.ndarray
    operators: np.ndarray          # (n_t, D, D)

    def eigenvalue_drift(self) -> np.ndarray:
        """Per-time drift max_n |f_n(t) - f_n(0)| of the ascending spectrum of
        ``operators``, relative to the largest |f_n(0)|; shape (n_t,)."""
        ev = np.linalg.eigvalsh(self.operators)
        return np.abs(ev - ev[0]).max(axis=1) / max(np.abs(ev[0]).max(), 1e-300)

    @classmethod
    def from_modes(cls, grid: np.ndarray, modes: np.ndarray):
        """Build F(t) = sum_n n |phi_n(t)><phi_n(t)| from mode paths.

        The eigenvalues are the constants 0..D-1: any time-independent values
        work, distinct ones keep the eigenvectors well-defined. ``modes`` must
        hold every column of the frame, (n_t, D, D) on a grid of n_t points
        (ValueError otherwise): a subset of the columns would give F another
        spectrum at every time, which ``eigenvalue_drift`` cannot show. Modes
        that are not orthonormal give F another spectrum too, which it shows
        once it changes along the path.
        """
        modes = np.asarray(modes, dtype=complex)
        if modes.ndim != 3 or modes.shape[1] != modes.shape[2] or len(modes) != len(grid):
            raise ValueError(f"modes must be a full (n_t, D, D) frame per grid time, got shape {modes.shape}")
        ops = np.einsum("n,tin,tjn->tij", np.arange(modes.shape[1], dtype=float), modes, modes.conj())
        return cls(grid=np.asarray(grid, float), operators=ops)

    @classmethod
    def from_operator(cls, grid: np.ndarray, F_of_t: Callable[[np.ndarray], np.ndarray]):
        """Diagonalize a supplied time-stacked F(t) on the grid by ``eigenpath``:
        one ``eigh`` call per time chunk, frames aligned in order, and an
        interval whose mode overlap falls below ``spectral.OVERLAP_MIN`` (0.9)
        bisected up to ``spectral.MAX_REFINE`` (12) levels, so F_of_t may be
        called between grid points; past that, GridTooCoarseError. F_of_t is
        evaluated by the tracker alone: ``operators`` is rebuilt from the
        tracked spectrum as V diag(E) V^dagger, equal to F to rounding."""
        path = eigenpath(F_of_t, grid)
        ops = np.einsum("tn,tin,tjn->tij", path.energies, path.vectors, path.vectors.conj())
        return cls(grid=path.grid, operators=ops)


def invariant_residual(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    F: DynamicalInvariant,
    hbar: float = 1.0,
) -> np.ndarray:
    """Per-time von Neumann defect ||i hbar dF/dt - [H, F]|| (Frobenius norm)
    on the grid of F.

    dF/dt is taken by centered differences on the grid (one-sided at the
    ends), so the grid must resolve the invariant's motion. H_of_t is
    time-stacked and evaluated chunk by chunk.
    """
    grid, ops = F.grid, F.operators
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points for centered differences")
    dF = np.gradient(ops, grid, axis=0, edge_order=2)
    out = np.empty(len(grid))
    for start, H in time_chunks(H_of_t, grid):
        Fc = ops[start:start + len(H)]
        X = 1j * hbar * dF[start:start + len(H)] - (H @ Fc - Fc @ H)
        out[start:start + len(H)] = np.sqrt(np.einsum("tij,tij->t", X.conj(), X).real / X.shape[-1])
    return out


def lr_phase(
    H_of_t: Callable[[np.ndarray], np.ndarray],
    phi: np.ndarray,
    grid: np.ndarray,
    hbar: float = 1.0,
) -> np.ndarray:
    """Lewis-Riesenfeld phase alpha(t) of one smooth mode path phi[i] = phi(t_i).

    alpha(t) = (1/hbar) int <phi|(i hbar d_t - H)|phi> dt'. The derivative
    term uses the antisymmetrized midpoint overlap, which is real by
    construction; the energy term uses the trapezoid rule.
    """
    grid = np.asarray(grid, dtype=float)
    phi = np.asarray(phi, dtype=complex)
    ov = discrete_connection(phi[:, :, None])[:, 0]
    if np.abs(ov).min() < OVERLAP_MIN:
        i = int(np.abs(ov).argmin())
        raise GaugeDiscontinuityError(
            f"mode overlap {abs(ov[i]):.3f} < {OVERLAP_MIN} between grid points {i} and {i + 1}")
    deriv_inc = -np.imag(ov)  # (1/hbar) * i*hbar <phi|dphi> integrated over the interval
    energy = np.empty(len(grid))
    for start, H in time_chunks(H_of_t, grid):
        p = phi[start:start + len(H)]
        energy[start:start + len(H)] = np.einsum("ti,ti->t", p.conj(), (H @ p[..., None])[..., 0]).real
    alpha = -cumulative_trapezoid(energy, grid) / hbar
    alpha[1:] += np.cumsum(deriv_inc)
    return alpha


def hamiltonian_from_modes(
    grid: np.ndarray,
    modes: np.ndarray,
    alpha_rates: np.ndarray,
    dmodes: np.ndarray,
    hbar: float = 1.0,
) -> np.ndarray:
    """Inverse-engineered Hamiltonian driving the given mode paths and phases.

    H(t) = -hbar sum_n (d alpha_n/dt) |phi_n><phi_n| + i hbar sum_n |d_t phi_n><phi_n|.
    Evolving |phi_n(0)> under it reproduces e^{i alpha_n(t)} |phi_n(t)>.
    The modes must be orthonormal to 1e-8 at every grid time (ValueError
    otherwise). ``alpha_rates``: array (n_t, D). ``dmodes``: the analytic
    mode derivatives, (n_t, D, D); grid differences of the modes miss the
    Hermiticity check (1e-9 relative to the largest entry of H,
    HermiticityError otherwise) at every practical grid.
    """
    grid = np.asarray(grid, dtype=float)
    modes = np.asarray(modes, dtype=complex)
    dmodes = np.asarray(dmodes, dtype=complex)
    alpha_rates = np.asarray(alpha_rates)
    gram_dev = np.abs(modes.conj().swapaxes(1, 2) @ modes - np.eye(modes.shape[2])).max(axis=(1, 2))
    if (gram_dev > 1e-8).any():
        raise ValueError(f"modes are not orthonormal at grid index {int((gram_dev > 1e-8).argmax())}")
    # H = hbar sum_n (-alpha_n' |phi_n> + i |d_t phi_n>) <phi_n|
    H = hbar * np.einsum("tin,tjn->tij", 1j * dmodes - alpha_rates[:, None, :] * modes, modes.conj())
    Hh = H.conj().swapaxes(1, 2)
    bad = np.abs(H - Hh).max(axis=(1, 2)) > 1e-9 * np.maximum(np.abs(H).max(axis=(1, 2)), 1e-300)
    if bad.any():
        i = int(bad.argmax())
        raise HermiticityError(
            f"inverse-engineered H not Hermitian at t = {grid[i]}: dev {np.abs(H[i] - Hh[i]).max():.3e}; "
            "the mode derivatives do not match the modes"
        )
    return 0.5 * (H + Hh)  # remove only the sub-tolerance noise just checked


@dataclass
class AlgebraSpec:
    """Closed operator algebra for invariant-based inverse engineering.

    ``basis`` holds the full orthonormal generator set X; the Hamiltonian
    lives on span(A), the invariant on span(B). On construction ``T`` is set
    to the structure tensor [X_j, X_k] = i sum_l T_jkl X_l of the basis, and
    the closure [A, B] in span(B) is checked to 1e-10 (ValueError otherwise).
    """

    basis: OperatorBasis
    A_indices: list[int]
    B_indices: list[int]
    T: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.T = structure_constants(self.basis)
        A, B = self.A_indices, self.B_indices
        outside = [l for l in range(len(self.basis)) if l not in B]
        leak = np.abs(self.T[np.ix_(A, B, outside)])
        if leak.size and leak.max() > 1e-10:
            a, b, _ = np.argwhere(leak > 1e-10)[0]
            raise ValueError(
                f"[X_{A[a]}, X_{B[b]}] leaks outside span(B) by {leak[a, b].max():.2e}: closure fails"
            )


def structure_constants(basis: OperatorBasis) -> np.ndarray:
    """T_jkl with [X_j, X_k] = i sum_l T_jkl X_l for an orthonormal basis.

    Antisymmetric in (j, k); raises if the set does not close. Row j is one
    stacked pass over the commutators of X_j with X_{j+1:}, so memory stays
    at O(n D^2).
    """
    X = basis.elements
    n, D = len(X), basis.dim
    T = np.zeros((n, n, n))
    for j in range(n - 1):
        C = -1j * (X[j] @ X[j + 1:] - X[j + 1:] @ X[j])     # Hermitian
        coeffs = gram_matrix(C, X).conj()                   # coeffs[k, l] = (X_l|C_k)
        res = np.linalg.norm((C - np.tensordot(coeffs, X, axes=1)).reshape(len(C), -1), axis=1)
        scale = np.maximum(np.sqrt(D), np.linalg.norm(C.reshape(len(C), -1), axis=1))
        bad = np.nonzero(res > 1e-10 * scale)[0]
        if bad.size:
            raise ValueError(f"[X_{j}, X_{j + 1 + bad[0]}] is not in the span of the generator set")
        if np.abs(coeffs.imag).max() > 1e-10:
            raise ValueError("structure constants must be real for Hermitian generators")
        T[j, j + 1:] = coeffs.real
        T[j + 1:, j] = -coeffs.real
    return T


def inverse_engineer_schedule(
    algebra: AlgebraSpec,
    f_target: np.ndarray,
    df_target: np.ndarray,
    hbar: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian coefficients h_k(t) on span(A) driving a target invariant.

    Substituting F = sum_l f_l X_l and H = sum_k h_k X_k into the von Neumann
    equation gives, per time, the real linear system
        hbar df_j/dt = sum_{k in A, l in B} T_klj h_k f_l,   j in B,
    solved for every time at once in the least-squares sense (minimum-norm h
    when under-determined), with ``np.linalg.lstsq``'s default cutoff on the
    singular values. Returns (h, residuals) with h of shape (n_t, |A|).
    """
    f_target = np.asarray(f_target, dtype=float)     # (n_t, |B|)
    df_target = np.asarray(df_target, dtype=float)
    A_idx, B_idx = algebra.A_indices, algebra.B_indices
    # M[t, j, k] = sum_{l in B} T_klj f_l(t), j in B, k in A
    M = np.einsum("klj,tl->tjk", algebra.T[np.ix_(A_idx, B_idx, B_idx)], f_target)
    rhs = hbar * df_target
    # the minimum-norm solution by one stacked SVD, with lstsq's rcond=None cutoff
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(M.shape[1:]) * sv[:, :1]
    coef = np.divide(np.einsum("tjr,tj->tr", U, rhs), sv, out=np.zeros_like(sv), where=keep)
    h = np.einsum("trk,tr->tk", Vt, coef)
    res = np.linalg.norm(np.einsum("tjk,tk->tj", M, h) - rhs, axis=1)
    return h, res
