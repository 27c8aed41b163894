"""Operator algebra foundation.

Dense complex matrices throughout (target D <= 1024). The inner product is
the dimension-normalized Frobenius one, (X|Y) = Tr(X^dag Y)/D, so that every
Pauli string has unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DimensionMismatchError, HermiticityError, SpanningError

#: Hermiticity is asserted relative to the largest matrix entry.
TOL_HERM = 1e-12

#: Nested-commutator norms beyond this abort with a scaling hint.
NORM_OVERFLOW = 1e150

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_same_dim(X: np.ndarray, Y: np.ndarray) -> None:
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise DimensionMismatchError(f"operands have shapes {X.shape} and {Y.shape}")


def as_hermitian(A: np.ndarray) -> np.ndarray:
    """Validate Hermiticity to ``TOL_HERM`` relative to the largest entry and
    return the array unchanged.

    Violations raise HermiticityError; the input is never symmetrized, since
    that would hide upstream bugs.
    """
    tol = TOL_HERM
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    scale = np.abs(A).max()
    dev = np.abs(A - A.conj().T).max()
    if dev > tol * max(scale, 1e-300):
        raise HermiticityError(f"max |A - A^dag| = {dev:.3e} exceeds {tol:.1e} * max|A| = {tol * scale:.3e}")
    return A


def frobenius_inner(X: np.ndarray, Y: np.ndarray) -> complex:
    """Dimension-normalized Frobenius inner product Tr(X^dag Y)/D."""
    _check_same_dim(X, Y)
    return complex(np.einsum("ij,ij->", X.conj(), Y)) / X.shape[0]


def frobenius_norm(X: np.ndarray) -> float:
    """sqrt of the real part of (X|X)."""
    return float(np.sqrt(max(frobenius_inner(X, X).real, 0.0)))


def commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX. Anti-Hermitian when X and Y are Hermitian."""
    _check_same_dim(X, Y)
    return X @ Y - Y @ X


def nested_commutator(H: np.ndarray, dH: np.ndarray, k: int) -> np.ndarray:
    """k-fold nested commutator of H with dH, 0 <= k <= 12: the k = 0 case
    is dH itself.

    Hermitian for even k and anti-Hermitian for odd k when H, dH are
    Hermitian. Norms grow roughly like (spectral spread)^k; growth beyond
    the overflow guard aborts with a hint to rescale H.
    """
    _check_same_dim(H, dH)
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > 12:
        raise ValueError(f"k = {k} exceeds 12")
    out = dH
    for _ in range(k):
        out = commutator(H, out)
        if not np.isfinite(out).all() or np.abs(out).max() > NORM_OVERFLOW:
            raise OverflowError(
                "nested-commutator norm overflow; rescale H to O(1) spectral spread"
            )
    return out


@dataclass
class OperatorBasis:
    """Ordered traceless Hermitian operators, orthonormal under (.|.).

    ``elements`` is one (n, D, D) array; a sequence of matrices is stacked
    on construction.
    """

    elements: np.ndarray
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=complex)
        if not self.labels:
            self.labels = [f"L{i}" for i in range(len(self.elements))]
        if len(self.labels) != len(self.elements):
            raise ValueError("labels and elements must have equal length")

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def validate(self) -> None:
        """Check tracelessness, Hermiticity and pairwise orthonormality, each
        to 1e-12."""
        for L, lab in zip(self.elements, self.labels):
            if abs(np.trace(L)) > 1e-12 * max(1.0, np.abs(L).max()):
                raise ValueError(f"basis element {lab} is not traceless")
            as_hermitian(L)
        G = gram_matrix(self.elements)
        if np.abs(G - np.eye(len(self))).max() > 1e-12:
            raise ValueError("basis is not orthonormal under the Frobenius inner product")

    def subset(self, indices) -> "OperatorBasis":
        return OperatorBasis(self.elements[list(indices)], [self.labels[i] for i in indices])


def gram_matrix(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """G[..., i, j] = (X_i|Y_j) for stacks X (..., n, D, D) and Y (..., m, D, D);
    Y = X by default, and leading axes broadcast (one Gram matrix per time of
    a time stack)."""
    X = np.asarray(X)
    Y = X if Y is None else np.asarray(Y)
    D = X.shape[-1]
    if Y.shape[-2:] != X.shape[-2:]:
        raise DimensionMismatchError(f"operands have shapes {X.shape[-2:]} and {Y.shape[-2:]}")
    return X.reshape(X.shape[:-2] + (D * D,)).conj() @ Y.reshape(Y.shape[:-2] + (D * D,)).swapaxes(-1, -2) / D


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-site Paulis, e.g. 'XZY'. Unit Frobenius norm."""
    out = np.array([[1.0 + 0j]])
    for ch in label:
        try:
            out = np.kron(out, _PAULI[ch])
        except KeyError:
            raise ValueError(f"unknown Pauli letter {ch!r} in {label!r}") from None
    return out


def pauli_basis(n_qubits: int) -> OperatorBasis:
    """All 4^n - 1 non-identity Pauli strings, lexicographic in I<X<Y<Z per site.

    Already orthonormal under (.|.) without extra scaling.
    """
    if not 1 <= n_qubits <= 10:
        raise ValueError("n_qubits must be between 1 and 10")
    labels = ["".join(p) for p in product("IXYZ", repeat=n_qubits)][1:]
    return OperatorBasis([pauli_matrix(lab) for lab in labels], labels)


def gell_mann_basis(dim: int) -> OperatorBasis:
    """Generalized Gell-Mann basis for arbitrary D, normalized to (L|L) = 1.

    Symmetric pairs S(i,j), antisymmetric pairs A(i,j), then diagonal D(k).
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    elems: list[np.ndarray] = []
    labels: list[str] = []
    s = np.sqrt(dim / 2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            S = np.zeros((dim, dim), dtype=complex)
            S[i, j] = S[j, i] = 1.0
            elems.append(s * S)
            labels.append(f"S{i}{j}")
            A = np.zeros((dim, dim), dtype=complex)
            A[i, j] = -1j
            A[j, i] = 1j
            elems.append(s * A)
            labels.append(f"A{i}{j}")
    for k in range(1, dim):
        Dg = np.zeros((dim, dim), dtype=complex)
        Dg[:k, :k] = np.eye(k)
        Dg[k, k] = -k
        Dg *= np.sqrt(dim / (k * (k + 1.0)))
        elems.append(Dg)
        labels.append(f"D{k}")
    return OperatorBasis(elems, labels)


def expand_in_basis(X: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Coefficients c_mu = (L_mu|X) of a traceless operator in an orthonormal basis.

    If the basis does not span X the residual exceeds 1e-8 relative to
    max(1, ||X||) and a SpanningError is raised rather than silently truncating.
    """
    _check_same_dim(X, basis.elements[0])
    coeffs = gram_matrix(basis.elements, X[None])[:, 0]
    res = frobenius_norm(X - reconstruct_from_basis(coeffs, basis))
    if res > 1e-8 * max(1.0, frobenius_norm(X)):
        raise SpanningError(f"expansion residual {res:.3e} exceeds 1.0e-08")
    return coeffs


def reconstruct_from_basis(coeffs: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    return np.tensordot(coeffs, basis.elements, axes=1)
