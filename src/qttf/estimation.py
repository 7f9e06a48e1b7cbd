"""Finite-sample estimation: click sampling, linear inversion, scaled-MSE experiments.

Linear inversion reconstructs Bloch coordinates t over the traceless basis
from observed outcome frequencies f by one least-squares solve,

    (C^T W C) t = C^T W (f - pbar),

which every estimator here shares:

* `lin_estimator_reduced`: unweighted, W = 1.  Exactly unbiased, with unit
  trace by construction, but statistically efficient only for minimally
  complete measurements.  A full-basis fit that pins the identity
  coefficient to 1/sqrt(dim) gives the same estimate, because the pinned
  identity column contributes exactly pbar.
* `weighted_linear_inversion`: generalized least squares with the inverse
  observed frequencies as weights, W = diag(1 / max(f, WEIGHT_FLOOR / N)).
  This is the optimal unbiased scheme in the large-sample limit: its scaled
  MSE converges to Tr(F(rho)^{-1}) for any informationally complete
  measurement, which the unweighted form misses when M > dim**2.

`mse_experiment` runs the same solve over a batch of simulated click runs;
its `weighting` picks the weighted scheme ("probability") or W = 1
("none").  `haar_mse_sweep` runs the weighted experiment over Haar-drawn
states.  It is a wrapper over the private core `_sweep`, which takes the
measurement model: the core draws the clicks and evaluates both transfer
values through the model-taking cores of qttf.transfer, so one sweep builds
the model once, and a caller that already holds the model (the CLI's fig2)
passes it in.

Both share one batched path over a stack of S states.  The sweep gets the
Born probabilities and Bloch coordinates of all its mixed states from the
model's one Born step (TomographyMatrices.born, as qttf_monte_carlo does at
weight 1.0), one real matmul on the pure states' float64 views.  There is
no floor on the probabilities: a cell that never clicks is weighted by
WEIGHT_FLOOR like any empty cell, and the prediction Tr(F^{-1}) comes from
the model's one kernel (TomographyMatrices.trace_inverse), which takes its
limit value where an outcome's probability vanishes.  Clicks are drawn and inverted in blocks of
whole states holding at most MSE_BLOCK = 256 click runs (states x trials; a
block is one state when n_trials exceeds it), in state order, by one
`rng.multinomial` call per block.  This consumes the generator exactly as
one call per state does, so seeded results do not depend on the block size.  Per click run the weighted fit costs one row of an
(rows, M) @ (M, K**2) matmul against the outer products c_m c_m^T
(TomographyMatrices.fisher) for C^T W C, an O(M K) right-hand side and
one K x K solve, K = dim**2 - 1.  The block size bounds the largest
temporary, that stack of designs, to 256 K**2 doubles (450 KB at dim = 4).

Estimates are returned as bare Hermitian unit-trace matrices; they may be
non-positive for small samples, which is expected and not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .fisher import TomographyMatrices, measurement_matrices, probabilities
from .operators import (
    HermitianBasis,
    _density_matrix,
    _require_count,
    _require_dim,
    bloch_coords,
    haar_state_vectors,
    state_from_bloch,
)
from .pom import Pom
from .transfer import QttfEstimate, _controlled_mean, _monte_carlo, _series

WEIGHT_FLOOR = 0.5  # clicks: an empty cell is weighted as if half a click had landed in it
FREQUENCY_SLACK = 1e-12  # accepted negative roundoff of a frequency
FREQUENCY_SUM_TOL = 1e-9  # accepted deviation of a frequency vector's sum from 1
MSE_BLOCK = 256  # click runs (states x trials) drawn and inverted at once


@dataclass(frozen=True)
class ClickRecord:
    """Outcome counts from one multinomial run, held as a read-only int64 copy;
    n_total, the shots, is their sum."""

    counts: np.ndarray
    pom_label: str = ""

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if counts.dtype == bool:
            raise ValueError("counts must be integers, got booleans")
        if not np.isfinite(counts).all():
            raise ValueError("counts must be finite")
        if (counts != np.round(counts)).any():
            raise ValueError("counts must be integers")
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if not counts.any():
            raise ValueError("counts must hold at least one click")

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n_total


@dataclass(frozen=True)
class MseReport:
    """Scaled mean squared error against the Cramer-Rao prediction at one state."""

    n_total: int
    n_trials: int
    scaled_mse: float
    predicted: float  # Tr(F(rho)^{-1})
    rel_gap: float


@dataclass(frozen=True)
class HaarSweepResult:
    """Scaled MSE averaged over Haar-drawn states of fixed purity."""

    mean_scaled_mse: float
    scaled_mse_stderr: float
    qttf_mc: QttfEstimate
    qttf_series2: QttfEstimate
    per_state: np.ndarray


def sample_clicks(rho, pom: Pom, n_shots: int, rng=None) -> ClickRecord:
    """One multinomial draw of n_shots clicks over the outcome probabilities."""
    rho = _density_matrix(rho)
    _require_count("n_shots", n_shots, 1)
    rng = np.random.default_rng(rng)
    probs = probabilities(rho, pom)
    probs = probs / probs.sum()
    counts = rng.multinomial(n_shots, probs)
    return ClickRecord(counts=counts, pom_label=pom.label)


def _frequencies(clicks, pom: Pom) -> np.ndarray:
    """Accept a ClickRecord or a bare frequency vector summing to one."""
    if isinstance(clicks, ClickRecord):
        freq = clicks.frequencies
    else:
        freq = np.asarray(clicks, dtype=float)
        if freq.ndim != 1 or freq.size == 0:
            raise ValueError("frequency vector must be a non-empty 1-D array")
        if not np.isfinite(freq).all():
            raise ValueError("frequency vector must be finite")
        if freq.min() < -FREQUENCY_SLACK or abs(freq.sum() - 1.0) > FREQUENCY_SUM_TOL:
            raise ValueError(
                f"frequency vector must be non-negative (down to {-FREQUENCY_SLACK:g}) "
                f"and sum to one within {FREQUENCY_SUM_TOL:g}"
            )
    if freq.shape[0] != pom.n_outcomes:
        raise DimensionMismatchError(
            f"frequency vector has {freq.shape[0]} cells, measurement has {pom.n_outcomes}"
        )
    return freq


def _lsq_coords(
    matrices: TomographyMatrices, freq: np.ndarray, n_total: int | None = None
) -> np.ndarray:
    """Solve (C^T W C) t = C^T W (f - pbar) for every row of freq (..., M).

    With n_total None the fit is unweighted (W = 1); otherwise the rows are
    frequencies of n_total clicks and W = diag(1 / max(f, WEIGHT_FLOOR / n_total)),
    and the designs of all rows are one matmul (TomographyMatrices.fisher).
    """
    c_matrix = matrices.c_matrix
    centered = freq - matrices.p_bar
    if n_total is None:
        design = c_matrix.T @ c_matrix
    else:
        weights = np.reciprocal(np.maximum(freq, WEIGHT_FLOOR / n_total))
        design = matrices.fisher(weights)
        centered *= weights
    return np.linalg.solve(design, (centered @ c_matrix)[..., None])[..., 0]


def lin_estimator_reduced(clicks, pom: Pom, basis: HermitianBasis) -> np.ndarray:
    """Unweighted least-squares estimate over the traceless basis.

    `clicks` may be a ClickRecord or a bare frequency vector, so exact
    probabilities can be inverted directly (consistent data reproduces the
    state that generated it).
    """
    matrices = measurement_matrices(pom, basis)
    return state_from_bloch(_lsq_coords(matrices, _frequencies(clicks, pom)), basis)


def weighted_linear_inversion(clicks: ClickRecord, pom: Pom, basis: HermitianBasis) -> np.ndarray:
    """Generalized least squares with inverse observed frequencies as weights.

    Weights are 1 / max(f_j, WEIGHT_FLOOR / n_total) so empty cells stay
    finite; `clicks` must therefore be a ClickRecord, which carries n_total.
    Asymptotically efficient: the scaled MSE approaches Tr(F(rho)^{-1}) as
    n_total grows.
    """
    if not isinstance(clicks, ClickRecord):
        raise TypeError(
            "weighted_linear_inversion needs a ClickRecord: the weights depend on "
            f"the click total n_total, which a {type(clicks).__name__} does not carry"
        )
    matrices = measurement_matrices(pom, basis)
    coords = _lsq_coords(matrices, _frequencies(clicks, pom), clicks.n_total)
    return state_from_bloch(coords, basis)


def _scaled_mse(
    matrices: TomographyMatrices,
    probs: np.ndarray,
    targets: np.ndarray,
    n_shots: int,
    n_trials: int,
    rng: np.random.Generator,
    weighted: bool,
) -> np.ndarray:
    """n_shots * mean ||t_hat - t||^2 over n_trials click runs at each of S states.

    probs (S, M) holds the Born probabilities and targets (S, K) the Bloch
    coordinates of the states.  Clicks are drawn and inverted in blocks of
    whole states holding at most MSE_BLOCK click runs (one state when
    n_trials is larger), in state order.
    """
    probs = probs / probs.sum(axis=1, keepdims=True)
    per_block = max(1, MSE_BLOCK // n_trials)
    scaled = np.empty(len(probs))
    for start in range(0, len(probs), per_block):
        block = slice(start, start + per_block)
        block_probs = probs[block, None, :]
        counts = rng.multinomial(n_shots, block_probs, size=(len(block_probs), n_trials))
        coords = _lsq_coords(matrices, counts / n_shots, n_shots if weighted else None)
        squared = ((coords - targets[block, None, :]) ** 2).sum(axis=2)
        scaled[block] = n_shots * squared.mean(axis=1)
    return scaled


def mse_experiment(
    rho,
    pom: Pom,
    basis: HermitianBasis,
    n_shots: int,
    n_trials: int,
    rng=None,
    weighting: str = "probability",
) -> MseReport:
    """Scaled MSE n_shots * E||rho_hat - rho||_HS^2 over repeated click runs.

    weighting="probability" uses the efficient weighted inversion (weights
    from observed frequencies); weighting="none" uses the plain
    least-squares inversion, which is unbiased but generally not efficient.
    """
    rho = _density_matrix(rho)
    if weighting not in ("probability", "none"):
        raise ValueError(f"unknown weighting {weighting!r}")
    matrices = measurement_matrices(pom, basis)
    _require_count("n_shots", n_shots, 1)
    _require_count("n_trials", n_trials, 2)
    rng = np.random.default_rng(rng)
    probs = probabilities(rho, pom)
    target = bloch_coords(rho, basis)
    scaled_mse = float(
        _scaled_mse(
            matrices, probs[None], target[None], n_shots, n_trials, rng,
            weighted=weighting == "probability",
        )[0]
    )
    predicted = float(matrices.trace_inverse(probs[None])[0])
    return MseReport(
        n_total=int(n_shots),
        n_trials=int(n_trials),
        scaled_mse=scaled_mse,
        predicted=predicted,
        rel_gap=abs(scaled_mse - predicted) / predicted,
    )


def mixing_weight_for_purity(purity: float, dim: int) -> float:
    """Pure-state weight w with Tr(rho^2) = purity for rho = w psi + (1-w) identity/dim."""
    low = 1.0 / _require_dim(dim)
    if not low <= purity < 1.0:
        raise ValueError(f"target purity must lie in [1/dim, 1) = [{low}, 1), got {purity}")
    return float(np.sqrt((purity - low) / (1.0 - low)))


def haar_mse_sweep(
    pom: Pom,
    basis: HermitianBasis,
    purity_mix: float,
    n_states: int,
    n_shots: int,
    n_trials: int,
    rng=None,
    n_qttf_samples: int = 10000,
) -> HaarSweepResult:
    """Scaled MSE of the weighted inversion averaged over Haar states mixed
    down to purity purity_mix, reported next to the Monte-Carlo and order-2
    series transfer values.

    The states rho = w v v^dag + (1 - w) identity/dim are handled as one
    stack: the model's Born step (TomographyMatrices.born) gives their Born
    probabilities p = w p_pure + (1 - w) pbar and Bloch coordinates
    t = w t_pure from one real matmul over all the pure states v.  Clicks
    are drawn and inverted in blocks of at most MSE_BLOCK click runs (states
    x trials), one multinomial call per block in state order, which leaves
    the generator exactly where one call per state leaves it; each click run
    costs one weighted K x K design row, one right-hand side and one solve
    (see the module docstring).  The Monte Carlo transfer value then
    continues the same stream.

    mean_scaled_mse and scaled_mse_stderr come from the estimator that Monte
    Carlo uses, transfer._controlled_mean, with no controls and groups of one
    state: the bar is the sample standard deviation of the states over
    sqrt(n_states).  A mean of one state has no bar, so n_states must be at
    least 2.
    """
    return _sweep(
        measurement_matrices(pom, basis), purity_mix, n_states, n_shots, n_trials, rng,
        n_qttf_samples,
    )


def _sweep(
    matrices: TomographyMatrices,
    purity_mix: float,
    n_states: int,
    n_shots: int,
    n_trials: int,
    rng,
    n_qttf_samples: int,
) -> HaarSweepResult:
    """haar_mse_sweep on the measurement model."""
    _require_count("n_states", n_states, 2)
    _require_count("n_qttf_samples", n_qttf_samples, 2)
    _require_count("n_shots", n_shots, 1)
    _require_count("n_trials", n_trials, 2)
    rng = np.random.default_rng(rng)
    weight = mixing_weight_for_purity(purity_mix, matrices.dim)
    probs, coords = matrices.born(haar_state_vectors(matrices.dim, n_states, rng), weight)
    per_state = _scaled_mse(matrices, probs, coords, n_shots, n_trials, rng, weighted=True)
    mean, stderr, _ = _controlled_mean(per_state, np.empty((n_states, 0)), design=1)
    series2 = _series(matrices, alpha=1.0, max_order=2)
    return HaarSweepResult(
        mean_scaled_mse=mean,
        scaled_mse_stderr=stderr,
        qttf_mc=_monte_carlo(matrices, n_qttf_samples, rng),
        qttf_series2=series2,
        per_state=per_state,
    )
