"""Probability-operator measures: builtins, random generation, transforms, JSON I/O.

A measurement is a stack of Hermitian positive-semidefinite outcome
operators summing to the identity.  Builtins cover the qubit/qutrit
symmetric informationally complete measurements and the complete sets of
mutually unbiased bases; random measurements follow the Gaussian-purified
recipe Pi_j = S^{-1/2} B_j S^{-1/2} with S = sum_j B_j.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import (
    DegenerateDrawError,
    InvalidDimensionError,
    PomSchemaError,
    PomValidationError,
    UnsupportedDimensionError,
)
from .operators import (
    EIGENVALUE_SLACK,
    HERMITIAN_TOL,
    _is_integer,
    _require_count,
    _require_dim,
    mub_vectors,
)

COMPLETENESS_TOL = 1e-10
SPLIT_WEIGHT_TOL = 1e-12  # accepted deviation of duplicate_outcome's weights from a unit sum

_PAULIS = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Bloch vectors of the qubit tetrahedron, in the (x, y, z) basis ordering.
_TETRAHEDRON = np.array(
    [
        [-1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0],
        [1.0, -1.0, 1.0],
        [-1.0, -1.0, -1.0],
    ]
)


@dataclass(frozen=True, eq=False)
class Pom:
    """Probability-operator measure: outcomes (M, dim, dim) with sum = identity.

    outcomes holds a read-only copy of the array it was given, so the checks
    made here hold for the life of the instance and no reader re-makes them.
    The eigenvalues of every outcome, ascending, are kept read-only as well:
    the positivity check computes them, and fisher.measurement_matrices reads
    its rank test from them.  Equality and hashing go by identity, which the
    immutable outcomes make sound, so a Pom can key a dict.
    """

    outcomes: np.ndarray
    label: str = ""
    _eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.outcomes, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise PomValidationError(f"outcomes must have shape (M, dim, dim), got {arr.shape}")
        if arr.shape[0] < 1:
            raise PomValidationError("a measurement needs at least one outcome")
        _require_dim(arr.shape[1])
        if not np.isfinite(arr).all():
            j = int(np.isfinite(arr).all(axis=(1, 2)).argmin())
            raise PomValidationError(f"outcome {j} has a non-finite entry (NaN or inf)")
        herm_dev = np.abs(arr - arr.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        if herm_dev.max() > HERMITIAN_TOL:
            j = int(herm_dev.argmax())
            raise PomValidationError(
                f"outcome {j} is not Hermitian within {HERMITIAN_TOL:g} "
                f"(deviation {herm_dev[j]:.2e})"
            )
        eigenvalues = np.linalg.eigvalsh(arr)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "_eigenvalues", eigenvalues)
        low = eigenvalues[:, 0]
        if low.min() < -EIGENVALUE_SLACK:
            j = int(low.argmin())
            raise PomValidationError(
                f"outcome {j} is not positive semidefinite (min eigenvalue {low[j]:.2e})"
            )
        completeness = np.abs(arr.sum(axis=0) - np.eye(arr.shape[1])).max()
        if completeness > COMPLETENESS_TOL:
            raise PomValidationError(
                f"outcomes do not sum to the identity (deviation {completeness:.2e})"
            )

    @property
    def dim(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.shape[0]

    @property
    def traces(self) -> np.ndarray:
        return np.einsum("mii->m", self.outcomes).real


def qubit_sic() -> Pom:
    """Tetrahedron measurement: Pi_j = (identity + a_j . sigma / sqrt(3)) / 4."""
    outcomes = np.empty((4, 2, 2), dtype=complex)
    for j, vec in enumerate(_TETRAHEDRON):
        outcomes[j] = (np.eye(2) + np.einsum("k,kij->ij", vec, _PAULIS) / np.sqrt(3)) / 4
    return Pom(outcomes, label="sic2")


def sic_povm(dim: int) -> Pom:
    """Symmetric informationally complete measurement for dim 2 or 3.

    dim 3 is the Weyl-Heisenberg orbit of the fiducial (0, 1, -1)/sqrt(2):
    all pairs of distinct orbit vectors have squared overlap 1/(dim+1).
    """
    dim = _require_dim(dim)
    if dim == 2:
        return qubit_sic()
    if dim != 3:
        raise UnsupportedDimensionError(f"sic_povm supports dim 2 and 3, got {dim}")
    fiducial = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    omega = np.exp(2j * np.pi / 3)
    shift = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(3))
    outcomes = np.empty((9, 3, 3), dtype=complex)
    for idx, (j, k) in enumerate(product(range(3), range(3))):
        vec = np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k) @ fiducial
        outcomes[idx] = np.outer(vec, vec.conj()) / 3
    return Pom(outcomes, label="sic3")


def mub_povm(dim: int) -> Pom:
    """All dim+1 mutually unbiased bases, each outcome scaled by 1/(dim+1).

    The outcomes are the projectors onto the vectors of operators.mub_vectors,
    basis by basis: the Pauli eigenbases at dim 2, the computational basis and
    the quadratic-phase Fourier bases at odd prime dims, the computational and
    four complex-Hadamard bases at dim 4.  Other dims raise
    UnsupportedDimensionError.
    """
    vectors = mub_vectors(dim)
    dim = vectors.shape[1]
    outcomes = vectors[:, :, None] * vectors[:, None, :].conj() / (dim + 1)
    return Pom(outcomes, label=f"mub{dim}")


def _random_pom_shape(dim, n_outcomes: int, rank: int) -> int:
    """The checks random_pom makes of its shape before any draw: a valid dim,
    integer counts with 1 <= rank <= dim and n_outcomes * rank >= dim.  Returns
    dim as an int."""
    dim = _require_dim(dim)
    _require_count("n_outcomes", n_outcomes, 1)
    _require_count("rank", rank, 1)
    if rank > dim:
        raise InvalidDimensionError(f"rank must lie in [1, {dim}], got {rank}")
    if n_outcomes * rank < dim:
        raise PomValidationError(
            f"need n_outcomes * rank >= dim to span the space, got {n_outcomes}*{rank} < {dim}"
        )
    return dim


def random_pom(dim: int, n_outcomes: int, rank: int, rng=None, label: str | None = None) -> Pom:
    """Random measurement with outcomes of rank at most `rank`.

    Each outcome starts as B_j = A_j^dag A_j / Tr(A_j^dag A_j) with A_j a
    (rank x dim) standard complex Gaussian matrix, and the stack is completed
    through Pi_j = S^{-1/2} B_j S^{-1/2} with S = sum_j B_j.  Draws are
    retried (up to 10 times) when S is numerically singular.
    """
    dim = _random_pom_shape(dim, n_outcomes, rank)
    seed = rng if isinstance(rng, (int, np.integer)) else None
    rng = np.random.default_rng(rng)
    for _ in range(10):
        raw = rng.standard_normal((n_outcomes, rank, dim)) + 1j * rng.standard_normal(
            (n_outcomes, rank, dim)
        )
        raw /= np.sqrt(2.0)
        blocks = np.einsum("mri,mrj->mij", raw.conj(), raw)
        blocks /= np.einsum("mii->m", blocks).real[:, None, None]
        total = blocks.sum(axis=0)
        vectors, values, _ = np.linalg.svd(total)  # total = V diag(values) V^dag
        if values[-1] <= 0 or values[0] / values[-1] > 1e12:
            continue
        inv_sqrt = (vectors / np.sqrt(values)) @ vectors.conj().T
        outcomes = np.einsum("ij,mjk,kl->mil", inv_sqrt, blocks, inv_sqrt)
        outcomes = (outcomes + outcomes.conj().transpose(0, 2, 1)) / 2
        if label is None:
            tag = f",seed={seed}" if seed is not None else ""
            label = f"random(dim={dim},m={n_outcomes},rank={rank}{tag})"
        return Pom(outcomes, label=label)
    raise DegenerateDrawError("outcome sum stayed singular after 10 redraws")


def admix_white_noise(pom: Pom, epsilon: float = 0.05) -> Pom:
    """Mix trace-weighted white noise into every outcome.

    B_j = Pi_j + epsilon * Tr(Pi_j)/dim * identity, divided by 1 + epsilon:
    the added noise sums to epsilon * identity, so the S^{-1/2} sandwich with
    S = sum_j B_j = (1 + epsilon) * identity is that division.  epsilon = 0
    reproduces the input and epsilon -> inf drives each outcome to
    Tr(Pi_j)/dim times the identity; a NaN or infinite epsilon is refused.
    """
    if not 0 <= epsilon < math.inf:
        raise PomValidationError(f"epsilon must be finite and >= 0, got {epsilon}")
    noise = epsilon * pom.traces[:, None, None] * np.eye(pom.dim) / pom.dim
    return Pom((pom.outcomes + noise) / (1 + epsilon), label=f"{pom.label}+noise({epsilon:g})")


def duplicate_outcome(pom: Pom, index: int, weights) -> Pom:
    """Split outcome `index` (0-based) into copies scaled by `weights`.

    Weights must be finite, positive and sum to 1 within SPLIT_WEIGHT_TOL.  The physical
    content of the measurement (its Fisher information at every state) is
    unchanged; only the outcome count and conditioning change.
    """
    if not _is_integer(index):
        raise PomValidationError(f"outcome index must be an integer, got {index!r}")
    if not 0 <= index < pom.n_outcomes:
        raise PomValidationError(
            f"outcome index {index} out of range for {pom.n_outcomes} outcomes"
        )
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 2:
        raise PomValidationError("need at least two split weights")
    if not np.isfinite(weights).all():
        raise PomValidationError(f"split weights must be finite, got {weights.tolist()}")
    if not weights.min() > 0:
        raise PomValidationError("split weights must be strictly positive")
    if abs(weights.sum() - 1.0) > SPLIT_WEIGHT_TOL:
        raise PomValidationError(
            f"split weights must sum to 1 within {SPLIT_WEIGHT_TOL:g}, got {weights.sum()!r}"
        )
    pieces = [pom.outcomes[:index]]
    pieces.append(weights[:, None, None] * pom.outcomes[index][None])
    pieces.append(pom.outcomes[index + 1 :])
    wtxt = ",".join(f"{w:g}" for w in weights)
    # Label uses the 1-based outcome number, matching the command-line flag.
    return Pom(np.concatenate(pieces), label=f"{pom.label}+dup({index + 1};{wtxt})")


def pom_from_dict(data) -> Pom:
    """Parse and validate the JSON form, reporting the failing outcome and invariant."""
    if not isinstance(data, dict):
        raise PomSchemaError(f"expected a JSON object, got {type(data).__name__}")
    missing = {"dim", "outcomes"} - set(data)
    if missing:
        raise PomSchemaError(f"missing required keys: {sorted(missing)}")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise PomSchemaError(f"'dim' must be an integer >= 2, got {dim!r}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise PomSchemaError(f"'label' must be a string, got {type(label).__name__}")
    raw = data["outcomes"]
    if not isinstance(raw, list) or not raw:
        raise PomSchemaError("'outcomes' must be a non-empty list")
    pairs = _float_array(raw)
    if pairs is None or pairs.shape != (len(raw), dim, dim, 2) or not _numbers_only(raw):
        # parse outcome by outcome only to name the first malformed one
        pairs = np.stack([_outcome_pairs(j, outcome, dim) for j, outcome in enumerate(raw)])
    outcomes = pairs[..., 0] + 1j * pairs[..., 1]
    try:
        return Pom(outcomes, label=label)
    except PomValidationError as exc:
        raise PomSchemaError(str(exc)) from exc


def _float_array(entries) -> np.ndarray | None:
    """entries as a float array, or None if they are ragged or not numeric."""
    try:
        return np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def _numbers_only(outcomes) -> bool:
    """Whether every entry of outcomes, nested lists of [re, im] pairs that
    numpy read as floats, is a number: numpy also reads a numeric string or a
    boolean as one."""
    kinds = {type(x) for outcome in outcomes for row in outcome for pair in row for x in pair}
    return all(issubclass(kind, numbers.Real) and kind is not bool for kind in kinds)


def _outcome_pairs(j: int, outcome, dim: int) -> np.ndarray:
    """Outcome j of a measurement file as its (dim, dim, 2) array of [re, im]
    pairs; PomSchemaError naming the outcome if it is not one."""
    pairs = _float_array(outcome)
    if pairs is not None and pairs.shape != (dim, dim, 2):
        raise PomSchemaError(
            f"outcome {j}: expected {dim}x{dim} rows of [re, im] pairs, got shape {pairs.shape}"
        )
    if pairs is None or not _numbers_only([outcome]):
        raise PomSchemaError(f"outcome {j}: entries must be [re, im] pairs of numbers")
    return pairs


def _pom_text(pom: Pom) -> str:
    """The measurement file text: the JSON object {"dim", "outcomes", "label"},
    each outcome as rows of [re, im] entry pairs, indented by 2 as
    json.dumps(..., indent=2) writes it, and a final newline.

    indent makes json run its pure-Python encoder, so the same bytes come from a
    layout template for (M, dim): each [re, im] entry goes in by %r, the
    float.__repr__ json writes a finite float with, and the JSON-encoded label
    by one %s, so a % in it stays text.  A file costs about the repr of its floats."""
    layout = "%r"
    for indent, count in ((10, 2), (8, pom.dim), (6, pom.dim), (4, pom.n_outcomes)):
        line = "\n" + " " * indent
        layout = "[" + line + ("," + line).join([layout] * count) + line[:-2] + "]"
    entries = np.stack([pom.outcomes.real, pom.outcomes.imag], -1).ravel().tolist()
    template = '{\n  "dim": %d,\n  "outcomes": ' + layout + ',\n  "label": %s\n}\n'
    return template % (pom.dim, *entries, json.dumps(pom.label))


def save_pom(pom: Pom, path) -> None:
    """Write pom to path as the measurement file text (_pom_text)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_pom_text(pom))


def load_pom(path) -> Pom:
    """Read and validate a measurement file written by save_pom; PomSchemaError
    if it is not valid UTF-8 JSON or not a valid measurement."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise PomSchemaError(f"not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise PomSchemaError(f"not valid UTF-8 JSON: {exc}") from exc
    return pom_from_dict(data)
