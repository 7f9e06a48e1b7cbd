"""Hermitian operator bases, density matrices, and Haar-measure sampling.

The traceless basis follows the generalized Gell-Mann construction,
normalized so that Tr(B_j B_k) = delta_jk, and ordered as all symmetric
pair operators, then all antisymmetric pair operators, then the diagonal
ladder.  With identity/sqrt(dim) it spans the full Hermitian operator space,
so every unit-trace Hermitian matrix decomposes as
rho = identity/dim + sum_k t_k B_k with real t_k.

Haar pure states come one at a time (haar_state_vectors) or in groups
(rotated_mub_vectors): a complete set of dim+1 mutually unbiased bases
(mub_vectors, tabulated for dim 4 and every prime dim) rotated by one Haar
unitary per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError, UnsupportedDimensionError

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
    """Trace-orthonormal traceless Hermitian operators; identity/sqrt(dim)
    completes them to a basis of the Hermitian operators and is not stored."""

    dim: int
    traceless_ops: np.ndarray  # (dim**2 - 1, dim, dim)

    @property
    def n_traceless(self) -> int:
        return self.dim * self.dim - 1

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
            raise ValueError(f"state is not Hermitian within {HERMITIAN_TOL:g}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"state trace must be 1, got {tr}")
        if np.linalg.eigvalsh(mat)[0] < -EIGENVALUE_SLACK:
            raise ValueError(f"state has an eigenvalue below {-EIGENVALUE_SLACK:g}")

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
    return HermitianBasis(dim=dim, traceless_ops=np.stack(ops))


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
    # the two draws go straight into the real and imaginary parts: the same
    # stream and values as a + 1j * b, without the complex temporaries of 1j * b
    raw = np.empty((n_states, dim), dtype=complex)
    raw.real = rng.standard_normal((n_states, dim))
    raw.imag = rng.standard_normal((n_states, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw


# The four bases of dim 4 beside the computational one, as exponents e of the
# entries i**e / 2, basis by basis, vector by vector.
_MUB4_EXPONENTS = (
    ((0, 0, 0, 0), (0, 0, 2, 2), (0, 2, 2, 0), (0, 2, 0, 2)),
    ((0, 2, 3, 3), (0, 2, 1, 1), (0, 0, 1, 3), (0, 0, 3, 1)),
    ((0, 3, 3, 2), (0, 3, 1, 0), (0, 1, 1, 2), (0, 1, 3, 0)),
    ((0, 3, 2, 3), (0, 3, 0, 1), (0, 1, 0, 3), (0, 1, 2, 1)),
)


def _mub_tabulated(dim: int) -> bool:
    """Whether mub_vectors holds a complete set for a valid dim: 4 or a prime."""
    return dim == 4 or all(dim % k for k in range(2, math.isqrt(dim) + 1))


def mub_vectors(dim: int) -> np.ndarray:
    """The dim (dim+1) unit vectors of a complete set of mutually unbiased bases,
    basis by basis, as the rows of one read-only array, built once per dim.

    * dim 2: the eigenbases of the Pauli x, y and z, each vector of the first
      two times the phase (1 + i) / sqrt(2), so that every entry is exact;
    * odd prime dim: the computational basis, then the quadratic-phase bases
      omega**(b k**2 + m k) / sqrt(dim), omega = exp(2 i pi / dim), for
      b, m = 0 .. dim-1 (Wootters & Fields, Ann. Phys. 1989);
    * dim 4: the computational basis, then four bases with entries in
      {+-1, +-i} / 2, written out.

    Squared overlaps are 1/dim across bases; such a set is a complex-projective
    2-design (Klappenecker & Roetteler, ISIT 2005).  Other dimensions raise
    UnsupportedDimensionError.
    """
    dim = _require_dim(dim)
    if not _mub_tabulated(dim):
        raise UnsupportedDimensionError(
            f"complete sets of mutually unbiased bases are tabulated for dim 4 and "
            f"prime dims, got {dim}"
        )
    return _mub_table(dim)


@cache
def _mub_table(dim: int) -> np.ndarray:
    """mub_vectors(dim) for a tabulated dim, computed on the first call."""
    if dim == 2:
        half = (1 + 1j) / 2
        table = np.array(
            [[half, half], [half, -half], [half, 1j * half], [half, -1j * half], [1, 0], [0, 1]],
            dtype=complex,
        )
    elif dim == 4:
        entries = np.array([1, 1j, -1, -1j]) / 2
        hadamard = entries[np.array(_MUB4_EXPONENTS)].reshape(16, 4)
        table = np.concatenate([np.eye(4, dtype=complex), hadamard])
    else:
        omega = np.exp(2j * np.pi / dim)
        ks = np.arange(dim)
        phases = (ks[:, None, None] * ks * ks + ks[:, None] * ks) % dim  # [b, m, k]
        fourier = (omega**phases / np.sqrt(dim)).reshape(dim * dim, dim)
        table = np.concatenate([np.eye(dim, dtype=complex), fourier])
    table.setflags(write=False)  # shared by every caller in the process
    return table


def rotated_mub_vectors(dim: int, n_states: int, rng=None) -> np.ndarray:
    """Stack of n_states unit vectors: the complete set mub_vectors(dim), of
    S = dim (dim+1) vectors, rotated by ceil(n_states / S) independent Haar
    unitaries, S rows per unitary, the last group cut at n_states.

    Every vector is Haar distributed and the groups are independent; within a
    group the rotated set stays a 2-design, so the group average of any
    polynomial of degree 2 in v v^dag is its Haar mean exactly.  A
    unitary's rows are the Gram-Schmidt orthonormalised rows of a complex
    Ginibre matrix, which is a QR with the positive diagonal that makes it
    Haar (Mezzadri, Notices AMS 2007), in about two thirds of the time of a
    batched np.linalg.qr with its phase fix (dim 2..5, 34 to 100 groups).
    """
    table = mub_vectors(dim)
    _require_count("n_states", n_states, 0)
    rng = np.random.default_rng(rng)
    groups = -(-n_states // len(table))
    unitaries = np.empty((groups, dim, dim), dtype=complex)
    unitaries.real = rng.standard_normal((groups, dim, dim))
    unitaries.imag = rng.standard_normal((groups, dim, dim))
    for j in range(dim):
        row = unitaries[:, j]
        if j:
            previous = unitaries[:, :j]
            row -= np.einsum("gk,gkd->gd", np.einsum("gkd,gd->gk", previous.conj(), row), previous)
        row /= np.linalg.norm(row, axis=1, keepdims=True)
    # row s of group g is U_g^T v_s, and U_g^T is Haar as U_g is
    return np.matmul(table, unitaries).reshape(-1, dim)[:n_states]


def haar_pure_state(dim: int, rng=None) -> DensityMatrix:
    """Rank-one projector onto a Haar-random pure state."""
    vec = haar_state_vectors(dim, 1, rng)[0]
    return DensityMatrix(np.outer(vec, vec.conj()))
