"""Hermitian operator bases, density matrices, and Haar-measure sampling.

The traceless basis follows the generalized Gell-Mann construction,
normalized so that Tr(B_j B_k) = delta_jk, and ordered as all symmetric
pair operators, then all antisymmetric pair operators, then the diagonal
ladder.  Prepending identity/sqrt(dim) completes it to a trace-orthonormal
basis of the full Hermitian operator space, so every unit-trace Hermitian
matrix decomposes as rho = identity/dim + sum_k t_k B_k with real t_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError

HERMITIAN_TOL = 1e-12
EIGENVALUE_SLACK = 1e-10


def _require_dim(dim) -> int:
    if not isinstance(dim, (int, np.integer)):
        raise InvalidDimensionError(f"dimension must be an integer, got {dim!r}")
    if dim < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {dim}")
    return int(dim)


def _require_count(name: str, value, least: int) -> None:
    """Refuse a count (of shots, trials, states or samples) that is not an
    integer of at least `least`; Python and numpy integers pass, a bool or a
    float does not, even an integral one."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _as_matrix(rho) -> np.ndarray:
    """Accept a DensityMatrix or a bare square array."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


@dataclass(frozen=True)
class HermitianBasis:
    """Trace-orthonormal Hermitian basis: traceless operators plus identity/sqrt(dim)."""

    dim: int
    traceless_ops: np.ndarray  # (dim**2 - 1, dim, dim)
    identity_op: np.ndarray  # (dim, dim), equals eye(dim)/sqrt(dim)

    @property
    def n_traceless(self) -> int:
        return self.dim * self.dim - 1

    @property
    def full_ops(self) -> np.ndarray:
        """All dim**2 basis operators, identity component first."""
        return np.concatenate([self.identity_op[None, :, :], self.traceless_ops])

    @cached_property
    def triple_traces(self) -> np.ndarray:
        """Re Tr(B_i B_j B_k) over the traceless operators, as a (K, K, K) array.

        One real (K**2, 2 dim**2) @ (2 dim**2, K) matmul over the float64 views
        of the pair products B_i B_j and of the B_k.  Symmetric in all three
        indices, and computed once per basis.
        """
        ops = self.traceless_ops
        k, dim = ops.shape[0], self.dim
        pairs = (ops[:, None] @ ops[None, :]).reshape(k * k, dim * dim)
        table = pairs.view(np.float64) @ ops.reshape(k, dim * dim).view(np.float64).T
        table = table.reshape(k, k, k)
        table.flags.writeable = False  # shared by every model built on this basis
        return table


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidDimensionError(f"state must be a square matrix, got shape {mat.shape}")
        _require_dim(mat.shape[0])
        if np.abs(mat - mat.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("state is not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"state trace must be 1, got {tr}")
        if np.linalg.eigvalsh(mat)[0] < -EIGENVALUE_SLACK:
            raise ValueError("state has an eigenvalue below -1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def _density_matrix(rho) -> DensityMatrix:
    """Accept a DensityMatrix as is; validate a bare square array as one."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


def build_basis(dim: int) -> HermitianBasis:
    """Generalized Gell-Mann basis: symmetric pairs, antisymmetric pairs, diagonal ladder."""
    dim = _require_dim(dim)
    ops = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(dim):
        for k in range(j + 1, dim):
            mat = np.zeros((dim, dim), dtype=complex)
            mat[j, k] = inv_sqrt2
            mat[k, j] = inv_sqrt2
            ops.append(mat)
    for j in range(dim):
        for k in range(j + 1, dim):
            mat = np.zeros((dim, dim), dtype=complex)
            mat[j, k] = -1j * inv_sqrt2
            mat[k, j] = 1j * inv_sqrt2
            ops.append(mat)
    for level in range(1, dim):
        diag = np.zeros(dim)
        diag[:level] = 1.0
        diag[level] = -level
        ops.append(np.diag(diag).astype(complex) / np.sqrt(level * (level + 1)))
    identity_op = np.eye(dim, dtype=complex) / np.sqrt(dim)
    return HermitianBasis(dim=dim, traceless_ops=np.stack(ops), identity_op=identity_op)


def bloch_coords(rho, basis: HermitianBasis) -> np.ndarray:
    """Real coordinates t_k = Tr(rho B_k) over the traceless basis operators."""
    mat = _as_matrix(rho)
    if mat.shape[0] != basis.dim:
        raise DimensionMismatchError(
            f"state dimension {mat.shape[0]} != basis dimension {basis.dim}"
        )
    coords = np.einsum("ij,kji->k", mat, basis.traceless_ops)
    return coords.real


def state_from_bloch(coords, basis: HermitianBasis) -> np.ndarray:
    """Inverse of bloch_coords: identity/dim + sum_k t_k B_k.  May be non-PSD."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (basis.n_traceless,):
        raise DimensionMismatchError(
            f"expected {basis.n_traceless} coordinates, got shape {coords.shape}"
        )
    return np.eye(basis.dim) / basis.dim + np.einsum("k,kij->ij", coords, basis.traceless_ops)


def haar_state_vectors(dim: int, n_states: int, rng=None) -> np.ndarray:
    """Stack of n_states unit vectors drawn from the Haar (unitarily invariant) measure."""
    dim = _require_dim(dim)
    _require_count("n_states", n_states, 0)
    rng = np.random.default_rng(rng)
    raw = rng.standard_normal((n_states, dim)) + 1j * rng.standard_normal((n_states, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def haar_pure_state(dim: int, rng=None) -> DensityMatrix:
    """Rank-one projector onto a Haar-random pure state."""
    vec = haar_state_vectors(dim, 1, rng)[0]
    return DensityMatrix(np.outer(vec, vec.conj()))
