"""Hermitian operator bases, density matrices, and Haar-measure sampling.

The traceless basis follows the generalized Gell-Mann construction,
normalized so that Tr(B_j B_k) = delta_jk, and ordered as all symmetric
pair operators, then all antisymmetric pair operators, then the diagonal
ladder.  With identity/sqrt(dim) it spans the full Hermitian operator space,
so every unit-trace Hermitian matrix decomposes as
rho = identity/dim + sum_k t_k B_k with real t_k.

Haar pure states come from one sampler, rotated_vectors: a fixed rule of
unit vectors rotated by one Haar unitary per group.  Its rules are the one
point [[1.0]] (haar_state_vectors, independent states) and the complete set
of dim+1 mutually unbiased bases (mub_vectors, tabulated for dim 4 and every
prime dim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError, UnsupportedDimensionError

HERMITIAN_TOL = 1e-12
EIGENVALUE_SLACK = 1e-10


def _require_dim(dim) -> int:
    if not _is_integer(dim):
        raise InvalidDimensionError(f"dimension must be an integer, got {dim!r}")
    if dim < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {dim}")
    return int(dim)


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool or a float is not, even an integral one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_count(name: str, value, least: int) -> None:
    """Refuse a count (of shots, trials, states or samples) that is not an
    integer (_is_integer) of at least `least`."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _random_source(rng) -> tuple[np.random.Generator, int | None]:
    """The generator of a public rng argument (None, an integer seed or a
    Generator) and the seed to record, None unless rng is an integer
    (_is_integer).  A bool of either kind is refused, as it is for a count."""
    if isinstance(rng, (bool, np.bool_)):
        raise ValueError(f"rng must be None, an integer seed or a Generator, got {rng!r}")
    return np.random.default_rng(rng), rng if _is_integer(rng) else None


def _as_matrix(rho) -> np.ndarray:
    """Accept a DensityMatrix or a bare square array."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


@dataclass(frozen=True)
class HermitianBasis:
    """The traceless basis of dimension dim, a value of dim alone: equal and
    hashed by dim, and holding nothing else.  Its operators are the one
    read-only generalized Gell-Mann stack of that dim (_gell_mann), and their
    triple traces the one sparse table of that dim (_triple_traces).
    identity/sqrt(dim) completes them to a basis of the Hermitian operators and
    is not stored."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_dim(self.dim))

    @property
    def traceless_ops(self) -> np.ndarray:
        """The (dim**2 - 1, dim, dim) trace-orthonormal traceless operators."""
        return _gell_mann(self.dim)

    @property
    def n_traceless(self) -> int:
        return self.dim * self.dim - 1


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix, held as a
    read-only copy of the array it was made from."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
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
    """The traceless basis of dimension dim (HermitianBasis)."""
    return HermitianBasis(dim)


@cache
def _gell_mann(dim: int) -> np.ndarray:
    """Generalized Gell-Mann basis: symmetric pairs, antisymmetric pairs,
    diagonal ladder, computed on the first call for a valid dim."""
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
    table = np.stack(ops)
    table.setflags(write=False)  # shared by every basis of this dim
    return table


@cache
def _triple_traces(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Re Tr(B_i B_j B_k) over the Gell-Mann operators of dim, sparse: the flat
    indices into (K, K, K) of the entries that are not exactly zero, ascending,
    and their values, computed on the first call for a valid dim.

    The table is symmetric in all three indices, proportional to the
    symmetric structure constants of su(dim), and about 5 dim**3 of its K**3
    entries are nonzero (479 of 13,824 at dim 5).  It is built one slab j at a
    time, as one real (K, 2 dim**2) @ (2 dim**2, K) matmul over the float64
    views of the products B_i B_j and of the B_k, so neither the dense table
    nor the K**2 pair products are ever held.
    """
    ops = _gell_mann(dim)
    k = len(ops)
    flat_ops = ops.reshape(k, dim * dim).view(np.float64)
    indices, values = [], []
    for j in range(k):
        slab = (ops @ ops[j]).reshape(k, dim * dim).view(np.float64) @ flat_ops.T
        nonzero = np.flatnonzero(slab)
        indices.append(j * k * k + nonzero)
        values.append(slab.ravel()[nonzero])
    table = np.concatenate(indices), np.concatenate(values)
    for array in table:
        array.setflags(write=False)  # shared by every model of this dim
    return table


def bloch_coords(rho, basis: HermitianBasis) -> np.ndarray:
    """Real coordinates t_k = Tr(rho B_k) over the traceless basis operators.

    rho may be any (dim, dim) matrix, a non-positive estimate included; an
    array of another shape is refused with DimensionMismatchError.
    """
    mat = _as_matrix(rho)
    if mat.shape != (basis.dim, basis.dim):
        raise DimensionMismatchError(
            f"expected a matrix of shape {(basis.dim, basis.dim)}, got shape {mat.shape}"
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
    """Stack of n_states unit vectors drawn from the Haar (unitarily invariant) measure:
    rotated_vectors of the one-point rule [[1.0]], so row s is the normalised
    complex Gaussian row a_s + 1j b_s, all the a drawn before all the b."""
    return rotated_vectors(np.ones((1, 1)), dim, n_states, rng)


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


def rotated_vectors(table, dim: int, n_states: int, rng=None) -> np.ndarray:
    """Stack of n_states unit vectors: a fixed rule of S unit vectors, the rows
    of the (S, r) `table` placed in the first r <= dim coordinates, rotated by
    ceil(n_states / S) independent Haar unitaries, S rows per unitary, the last
    group cut at n_states.  The one sampler of Haar states in the library.

    Every vector is Haar distributed and the groups are independent; a rule
    that is a t-design stays one under each rotation, so the group average of
    any polynomial of degree t in v v^dag is its Haar mean exactly (the
    complete set of mutually unbiased bases, mub_vectors, is a 2-design).  A
    unitary's rows are the Gram-Schmidt orthonormalised rows of a complex
    Ginibre matrix, real parts drawn first, which is a QR with the positive
    diagonal that makes it Haar (Mezzadri, Notices AMS 2007), in about two
    thirds of the time of a batched np.linalg.qr with its phase fix (dim 2..5,
    34 to 100 groups).  Only the r rows that the table reads are drawn, so the
    one-point rule [[1.0]] draws one Gaussian row per state and normalises it.
    """
    dim = _require_dim(dim)
    _require_count("n_states", n_states, 0)
    rng, _ = _random_source(rng)
    groups, rows = -(-n_states // len(table)), len(table[0])
    unitaries = np.empty((groups, rows, dim), dtype=complex)
    unitaries.real = rng.standard_normal((groups, rows, dim))
    unitaries.imag = rng.standard_normal((groups, rows, dim))
    for j in range(rows):
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
