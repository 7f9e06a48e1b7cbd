"""The tomographic transfer function: closed forms, ordered series, Monte Carlo.

The transfer function of a measurement is the pure-state Haar average of
Tr(F(rho)^{-1}), a state-independent figure of merit (smaller is better).
Its evaluation routes:

* closed forms for minimally complete measurements (M = dim**2) and for
  measurements made of dim+1 rank-one bases (e.g. mutually unbiased bases),
  selected by the outcome count and decided on the outcome operators,
* a moment series around the maximally mixed state, exact through fourth
  order in the probability fluctuations,
* Monte-Carlo averaging over Haar states, with Tr(F^{-1}) from the model's
  one kernel (fisher.TomographyMatrices.trace_inverse) and the first-, second-
  and third-order terms of the expansion below as fitted control variates,
  with their exact Haar means 0, F2 and F3; from dim 4 on the kernel runs at
  float32, with the float64 mean restored by a correction measured on a
  block of states at both levels.  When every outcome is rank one,
  x_m = p_m / Tr Pi_m is exactly Beta(1, dim-1) distributed, so weighted sums
  of x_m**a for a = 1/2, 3/2, 2 and 3 have exact Haar means too and serve as
  five more controls.  Tr(F^{-1}) is analytic where an outcome's probability
  vanishes, so these controls follow no kink; they are kept for their
  measured effect, the median variance reduction at dim = 3 / 4 / 5 rising
  from 13.7 / 9.2 / 9.3 with the polynomial controls alone to 29.9 / 16.6 /
  19.3 with the powers 1/2 and 3/2; the powers 2 and 3 cut the residual
  variance by a further median x1.23 / x1.37 / x1.61 (rank-one measurements
  with 2 dim**2 outcomes, 40000 samples each).  The value and its error bar
  come from _controlled_mean, the one estimator of a sampled mean, which the
  MSE sweep of qttf.estimation and fig1 of qttf.cli use too; the bar
  includes the variance that the fitted coefficients add.  A run of at least
  DESIGN_MIN_GROUPS * S states, S = dim (dim+1), at dim 4 or an odd prime
  dim draws them as complete sets of mutually unbiased bases, each rotated
  by its own Haar unitary, and its bar is cluster-robust over these
  independent groups.  Every state is still Haar distributed.  A group
  averages every term of degree 2 in the state exactly, but sums the terms
  of degree 3 and 4 with some coherence: x1.2 and x1.9 their variance
  against independent states at dim 3, x1.4 and x1.3 at dim 4, x1.4 and x1.1
  at dim 5, and x3.5 for degree 4 at dim 2, which therefore draws
  independent states.  With the same controls, the variance of the
  estimate fell by a median x1.30 at dim 3 and x1.34 at dim 4 (x0.88 to
  x2.88 over 36 rank-one measurements with 10 to 48 outcomes), and the
  squared bar by x1.09 to x1.44 at dim 3..5 on 18 measurements with
  2 dim**2 outcomes.  The kernel solves a state whose Fisher matrix is too
  ill conditioned for its Cholesky pass, such as one where an outcome never
  clicks, again as an augmented system that needs no floor on p.

The series rests on the identity (with Pbar the diagonal matrix of
maximally mixed probabilities, P the diagonal probability matrix at rho,
and alpha in (0, 1] a scale factor)

    Tr F(rho)^{-1} = (1/alpha) [ Tr Fbar^{-1} + Tr( X D (1 - Y D)^{-1} ) ],
    D = alpha P - Pbar,

with X = Pbar^{-1} C Fbar^{-2} C^T Pbar^{-1} and
Y = Pbar^{-1} C Fbar^{-1} C^T Pbar^{-1} - Pbar^{-1}.  Expanding, averaging
term by term, and using X Pbar Y = 0 and Y Pbar Y = -Y to absorb the Pbar
parts of D leaves one additive contribution per expansion order:

    order 0-1 : Tr Fbar^{-1}
    order 2   : alpha * F2
    order 3   : alpha**2 * (F3 - F2) + alpha * F2
    order 4   : alpha**3 * (F4 - 2 F3 + F2) + 2 alpha**2 * (F3 - F2) + alpha * F2

where F_k = E[Tr(X d (Y d)^{k-1})] with d = diag(p - pbar) is the pure
k-th central-moment contraction (haar_moment_term below).  Convergence
of the untruncated series is guaranteed for alpha < alpha0 =
1 / (||Y||_2 * max_j Tr Pi_j).

X, Y, Tr Fbar^{-1}, alpha0, F2 and F3 are fields of the measurement model
fisher.TomographyMatrices.  F2 and F3 come from the expansion terms written
in Bloch coordinates, the quadratic form Q and the cubic form T, whose Haar
means are exact; the series and the Monte Carlo controls read the same
fields.  Only F4 is contracted here, from operator stacks times single
outcomes ("half-products"), and qttf_series's memory_budget bounds that
contraction alone.  Its chunks of d-values fit in QUARTIC_CHUNK_BYTES too, so
its working set stays cache-sized whatever M.

Each public route takes (pom, basis), builds the model with
fisher.measurement_matrices and hands it to a private core that takes the
model (_series, _monte_carlo, _closed_form, _auto and the two closed forms).
measurement_matrices refuses an incomplete measurement, so every route does
before it checks its own arguments.  The cores check those and read all else
from the model, so a caller that evaluates one measurement several times (the
CLI, estimation.haar_mse_sweep) builds its model once and calls the cores.

The closed forms refuse only on the outcome count and on checks of the
outcome operators, never on Y: Y's roundoff grows with kappa(Pbar^{-1/2} C),
so on an ill-conditioned but valid measurement it can exceed any tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceededError,
    NotMinimalBasesError,
    NotMinimallyCompleteError,
    UnsupportedOrderError,
)
from .fisher import (
    CHOLESKY_BLOCK,
    STRUCTURE_TOL,
    TomographyMatrices,
    measurement_matrices,
)
from .operators import (
    HermitianBasis,
    _is_integer,
    _mub_tabulated,
    _random_source,
    _require_count,
    _require_dim,
    mub_vectors,
    rotated_vectors,
)
from .pom import Pom

DEFAULT_MEMORY_BUDGET = 2**30  # bytes
# the order-4 contraction takes as many d-values per chunk as fit in this many
# bytes (and in qttf_series's memory_budget), so its operator stacks stay in cache
QUARTIC_CHUNK_BYTES = 2 * 2**20
# Haar states per Monte Carlo draw; it fixes the random stream and bounds the
# per-sample records of a batch (state vectors, Bloch coordinates), while the
# Born rows are held for one fisher.CHOLESKY_BLOCK at a time
MC_BATCH = 20000
# Monte Carlo draws rotated sets of mutually unbiased bases only when the run
# holds this many groups, so that its cluster bar rests on as many independent
# group sums; shorter runs draw independent states
DESIGN_MIN_GROUPS = 30
SPREAD_RTOL = 1e-9  # samples spread less than this times their mean are constant
# Monte Carlo from this dim on runs the trace-inverse kernel at float32, and
# corrects its mean by the float64 - float32 differences of its first
# CORRECTION_BLOCK states, rounded up to whole groups of its design
REDUCED_MIN_DIM = 4
CORRECTION_BLOCK = 64


@dataclass(frozen=True)
class QttfEstimate:
    """A transfer-function value with its method provenance."""

    value: float
    method: str  # "closed_minimal" | "closed_minimal_bases" | "series" | "monte_carlo"
    params: dict = field(default_factory=dict)
    std_error: float = 0.0

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"transfer-function value must be positive, got {self.value}")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class ReferenceValues:
    """Dimension-only reference points for the transfer function."""

    dim: int
    sic: float  # minimally complete symmetric measurement
    mub: float  # full set of mutually unbiased bases
    zeroth_bound: float  # lower bound on Tr Fbar^{-1}
    covariant: float  # many-outcome covariant limit
    limit_rel_error: float  # limiting relative error of the order-2 series


def reference_values(dim: int) -> ReferenceValues:
    """The dimension-only reference points (ReferenceValues) for an integer dim >= 2."""
    dim = _require_dim(dim)
    d = float(dim)
    return ReferenceValues(
        dim=dim,
        sic=d * d + d - 2,
        mub=d * d - 1,
        zeroth_bound=(d + 1) * (d * d - 1) / d,
        covariant=2 * (d - 1),
        limit_rel_error=d / (d + 2),
    )


def auxiliary_matrices(pom: Pom, basis: HermitianBasis) -> TomographyMatrices:
    """measurement_matrices(pom, basis), which already refuses an incomplete
    measurement; kept under this name only because bench/tracing.py hooks it."""
    return measurement_matrices(pom, basis)


def _quartic_bytes(m: int, dim: int, chunk: int) -> int:
    """Working set of the order-4 contraction when it handles `chunk` d-values at once:
    five real M x M matrices and 4 KiB of array headers and einsum scratch, plus four
    complex (M, dim, dim) slices and two real length-M rows per d.  _quartic_chunk
    fits it in min(memory_budget, QUARTIC_CHUNK_BYTES)."""
    return 40 * m * m + 4096 + chunk * (64 * m * dim * dim + 16 * m)


def _times_outcomes(stack: np.ndarray, outcomes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[p, q] = stack[p, q] @ outcomes[p] on (P, Q, 2 dim**2) float64 views of
    complex stacks: one (Q dim, dim) @ (dim, dim) matmul per p."""
    shape = (stack.shape[0], -1, outcomes.shape[1])
    np.matmul(stack.view(complex).reshape(shape), outcomes, out=out.view(complex).reshape(shape))
    return out


def _require_order(name: str, order, low: int) -> int:
    """order as an int in [low, 4]; anything else, a bool or an integral float
    included, is UnsupportedOrderError."""
    if not (_is_integer(order) and low <= order <= 4):
        raise UnsupportedOrderError(f"{name} must be an integer in [{low}, 4], got {order!r}")
    return int(order)


def haar_moment_term(pom: Pom, basis: HermitianBasis, order: int) -> float:
    """Central-moment contraction F_k = E[Tr(X d (Y d)^{k-1})], k in {2, 3, 4}.

    F2 and F3 are the model's fields (fisher.TomographyMatrices.f2, .f3):
    the traces of the quadratic and cubic forms in Bloch coordinates against
    the Haar moments of t.  Written with the Haar probability moments and the
    matrix identities instead,

        F2 = (1 / (D(D+1))) s2
        F3 = (2 / (D(D+1)(D+2))) (s2 + s3)
        F4 = ((6-D) s2 + 12 s3 + s4) / (D(D+1)(D+2)(D+3))

    with D = dim, s2 = sum X_{ba} Y_{ab} G2_{ab}, s3 the X-Y-Y chain against
    Re G3, and s4 the X-Y-Y-Y cycle against the three inequivalent quartic
    orderings plus the three pair-pair Gram products; F4 takes s2 and s3
    from F2 and F3.  The quartic orderings and the crossed pair-pair product
    are contracted through the operator sums A_db = sum_a X_da Y_ab Pi_a and
    B_bd = sum_c Y_bc Y_cd Pi_c:

        quartic = sum_{b,d} Tr(A_db Pi_b B_bd Pi_d) + Tr(A_db Pi_b Pi_d B_bd)
                            + Tr(A_db B_bd Pi_b Pi_d),
        crossed = sum_{b,d} G2_bd Tr(A_db B_bd).

    A and B are Hermitian, so each trace is an elementwise sum of two half-products
    (a stack times one outcome), e.g. Tr(A Pi_b Pi_d B) = sum (A Pi_b) o conj(B Pi_d);
    no pair product Pi_a Pi_b is formed.  Time is O(M**3 D**2).  Memory is the
    working set that _quartic_bytes states: the d-values are contracted in chunks of
    as many as fit in QUARTIC_CHUNK_BYTES, at least one, which changes the value only
    by rounding; BudgetExceededError if one d-value does not fit in
    DEFAULT_MEMORY_BUDGET (only qttf_series sets another).  Orders 2 and 3 build no
    operator stacks: order 2 holds O(M**2), and order 3 O(M**2 + K**3) with
    K = dim**2 - 1 for the cubic form alone, since F3 reads it at the nonzero
    entries of the sparse triple-trace table of its dim.
    """
    order = _require_order("order", order, 2)
    model = measurement_matrices(pom, basis)
    if order == 2:
        return model.f2
    if order == 3:
        return model.f3
    return _quartic_term(model, _quartic_chunk(model.n_outcomes, model.dim, DEFAULT_MEMORY_BUDGET))


def _quartic_chunk(m: int, dim: int, memory_budget: int) -> int:
    """d-values per chunk of the order-4 contraction: as many as _quartic_bytes fits
    in min(memory_budget, QUARTIC_CHUNK_BYTES), and at least one if memory_budget
    holds one; BudgetExceededError if it does not."""
    resident, single = _quartic_bytes(m, dim, 0), _quartic_bytes(m, dim, 1)
    if single > memory_budget:
        raise BudgetExceededError(
            f"order-4 contraction needs {single} bytes > budget "
            f"{memory_budget}; use qttf_monte_carlo for this measurement"
        )
    limit = min(memory_budget, QUARTIC_CHUNK_BYTES)
    return min(m, max(1, (limit - resident) // (single - resident)))


def _quartic_term(model: TomographyMatrices, chunk: int) -> float:
    """F4 as in haar_moment_term, contracted `chunk` d-values at a time (_quartic_chunk)."""
    dim, m = model.dim, model.n_outcomes
    x, y = model.x_matrix, model.y_matrix
    outcomes = np.ascontiguousarray(model.outcomes)
    flat = outcomes.reshape(m, dim * dim).view(np.float64)
    g2 = flat @ flat.T  # Tr(Pi_a Pi_b) of Hermitian outcomes
    s2 = dim * (dim + 1) * model.f2
    s3 = dim * (dim + 1) * (dim + 2) * model.f3 / 2 - s2
    yg, xg = y * g2, x * g2
    # the pair-pair terms Tr(x yg y yg) + Tr(xg y yg y), every factor being symmetric
    s4 = float(np.vdot(x @ yg, yg @ y) + np.vdot(xg @ y, y @ yg))
    buffers = np.empty((4, 2 * chunk * m * dim * dim))  # float64 views of complex stacks
    for start in range(0, m, chunk):
        ds, n = slice(start, start + chunk), min(chunk, m - start)
        db = (n, m, -1)  # the [d, b] layout; the buffers hold [b, d] stacks
        scaled, a_bd, b_bd, a_pi_b = buffers[:, : 2 * m * n * dim**2].reshape(4, m, n, -1)
        # A_db = sum_a Y_ba X_ad Pi_a and B_bd = sum_c Y_bc Y_cd Pi_c, real matmuls by Y
        for coefficients, stack in ((x, a_bd), (y, b_bd)):
            np.einsum("ad,ak->adk", coefficients[:, ds], flat, out=scaled)
            np.matmul(y, scaled.reshape(m, -1), out=stack.reshape(m, -1))
        s4 += np.vdot(np.einsum("bdk,bdk->bd", a_bd, b_bd), g2[:, ds])  # G2_bd Tr(A B)
        # half-products; the Pi_d ones act on [d, b] transposed copies of the stacks
        np.copyto(scaled.reshape(db), a_bd.swapaxes(0, 1))
        _times_outcomes(a_bd, outcomes, a_pi_b)
        a_pi_d = _times_outcomes(scaled.reshape(db), outcomes[ds], a_bd.reshape(db))
        b_pi_b = _times_outcomes(b_bd, outcomes, scaled)
        s4 += 2 * np.einsum("dbk,bdk->", a_pi_d, b_pi_b)  # Tr(A B Pi_b Pi_d)
        np.copyto(a_bd.reshape(db), b_bd.swapaxes(0, 1))
        b_pi_d = _times_outcomes(a_bd.reshape(db), outcomes[ds], scaled.reshape(db))
        s4 += 2 * np.einsum("bdk,dbk->", a_pi_b, b_pi_d)  # Tr(A Pi_b Pi_d B)
        # Tr(A Pi_b B Pi_d) = sum (A Pi_b) o (B Pi_d)^T, the transpose copied to [b, d]
        transposed = a_bd.view(complex).reshape(m, n, dim, dim)
        np.copyto(transposed, b_pi_d.view(complex).reshape(n, m, dim, dim).transpose(1, 0, 3, 2))
        s4 += 2 * np.dot(transposed.ravel(), a_pi_b.view(complex).ravel()).real
    return ((6 - dim) * s2 + 12 * s3 + s4) / (dim * (dim + 1) * (dim + 2) * (dim + 3))


def qttf_series(
    pom: Pom,
    basis: HermitianBasis,
    alpha: float = 1.0,
    max_order: int = 2,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> QttfEstimate:
    """Ordered series around the maximally mixed state, truncated at max_order.

    Orders 0 and 1 collapse to Tr(Fbar^{-1}); orders 2 through 4 add the
    alpha-weighted groupings documented in the module docstring.  The result
    for alpha < 1 is the alpha-deformed truncation; at alpha = 1 it is the
    plain truncated moment series.  memory_budget, an integer of at least 1
    at every order (ValueError), is the one setting of the bound on the
    order-4 term (haar_moment_term).  At max_order 4 that term's chunk of
    d-values is sized first, so a budget that cannot hold one d-value raises
    BudgetExceededError before any other work; params records the chunk as
    "quartic_chunk" and its _quartic_bytes as "quartic_bytes".

    params records alpha next to the convergence radius alpha0.  The
    untruncated series is certified to converge only for alpha < alpha0; the
    physical Haar average (alpha = 1) usually lies beyond it, where the
    truncation is still the working approximation but its tail is uncertified.
    """
    return _series(measurement_matrices(pom, basis), alpha, max_order, memory_budget)


def _series(
    model: TomographyMatrices,
    alpha: float,
    max_order: int,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> QttfEstimate:
    """qttf_series on the measurement model."""
    if not 0 < alpha < math.inf:
        bound = "finite" if alpha > 0 else "positive" if alpha <= 0 else "a number"
        raise ValueError(f"alpha must be {bound}, got {alpha}")
    _require_count("memory_budget", memory_budget, 1)
    max_order = _require_order("max_order", max_order, 0)
    quartic = {}
    if max_order == 4:
        m, dim = model.n_outcomes, model.dim
        chunk = _quartic_chunk(m, dim, memory_budget)
        quartic = {"quartic_chunk": chunk, "quartic_bytes": _quartic_bytes(m, dim, chunk)}
    contributions = [model.tr_fbar_inv]
    if max_order >= 2:
        f2 = model.f2
        contributions.append(alpha * f2)
    if max_order >= 3:
        f3 = model.f3
        contributions.append(alpha**2 * (f3 - f2) + alpha * f2)
    if quartic:
        f4 = _quartic_term(model, quartic["quartic_chunk"])
        contributions.append(
            alpha**3 * (f4 - 2 * f3 + f2) + 2 * alpha**2 * (f3 - f2) + alpha * f2
        )
    return QttfEstimate(
        value=float(sum(contributions)),
        method="series",
        params={
            "order": max_order,
            "alpha": float(alpha),
            "alpha0": model.alpha0,
            "contributions": [float(c) for c in contributions],
            **quartic,
        },
    )


def qttf_closed_minimal(pom: Pom, basis: HermitianBasis) -> QttfEstimate:
    """Closed form Tr(Fbar^{-1}) - 1 + 1/dim for minimally complete measurements.

    Exact for every informationally complete measurement with M = dim**2
    outcomes: C^T 1 = 0 and rank C = dim**2 - 1 make Y the all-(-1) matrix,
    and the series terminates at second order.  So only the outcome count is
    checked here: measurement_matrices refused an incomplete measurement when
    it built the model.  params["y_deviation"], the largest |Y_ab + 1|, is a
    roundoff diagnostic, not a test.
    """
    return _closed_minimal(measurement_matrices(pom, basis))


def _closed_minimal(model: TomographyMatrices) -> QttfEstimate:
    """qttf_closed_minimal on the measurement model."""
    dim = model.dim
    if model.n_outcomes != dim * dim:
        raise NotMinimallyCompleteError(
            f"minimally complete needs {dim * dim} outcomes, got {model.n_outcomes}"
        )
    deviation = float(np.abs(model.y_matrix + 1.0).max())
    return QttfEstimate(
        value=model.tr_fbar_inv - 1.0 + 1.0 / dim,
        method="closed_minimal",
        params={"tr_fbar_inv": model.tr_fbar_inv, "y_deviation": deviation},
    )


def qttf_closed_minimal_bases(pom: Pom, basis: HermitianBasis) -> QttfEstimate:
    """Closed form Tr[(C^T C)^{-1}] / (dim+1)**2 for dim+1 rank-one bases.

    Outcomes must be rank one and fall into dim+1 groups of dim, each group
    summing to identity/(dim+1), and the measurement must be informationally
    complete.  The group indicators then span the complement of the column
    space of C, so Y is block diagonal with constant -(dim+1) blocks and the
    series again terminates.  The groups are read from Y, whose entries are
    -(dim+1) within a basis and 0 across, by the midpoint -(dim+1)/2, so the
    outcomes may be listed in any order; the count, the ranks and the group
    sums are then checked on the outcome operators.  Y only proposes the
    partition: misgrouping a true bases measurement would take a roundoff of
    (dim+1)/2 in Y, and a wrong partition cannot be accepted, because every
    refusal is decided on the operators.  The largest deviation of
    Y from the block form, params["y_block_deviation"], is a roundoff
    diagnostic, not a test.  Every outcome has trace 1/(dim+1), so
    Fbar = dim (dim+1) C^T C and the value equals Tr(Fbar^{-1}) dim / (dim+1).
    """
    return _closed_minimal_bases(measurement_matrices(pom, basis))


def _closed_minimal_bases(model: TomographyMatrices) -> QttfEstimate:
    """qttf_closed_minimal_bases on the measurement model."""
    dim = model.dim
    n_bases = dim + 1
    if model.n_outcomes != dim * n_bases:
        raise NotMinimalBasesError(
            f"expected {dim * n_bases} outcomes ({n_bases} bases of {dim}), got {model.n_outcomes}"
        )
    if not model.all_rank_one:
        raise NotMinimalBasesError("outcomes are not all rank one")
    # list the outcomes group by group, each group at the place of its first outcome
    same_basis = model.y_matrix < -n_bases / 2
    order = np.argsort(same_basis.argmax(axis=1), kind="stable")
    grouped = model.outcomes[order].reshape(n_bases, dim, dim, dim)
    group_dev = np.abs(grouped.sum(axis=1) - np.eye(dim) / n_bases).max()
    if group_dev > STRUCTURE_TOL:
        raise NotMinimalBasesError(
            f"outcome groups do not sum to identity/{n_bases} (deviation {group_dev:.2e})"
        )
    expected = np.kron(np.eye(n_bases), -(n_bases) * np.ones((dim, dim)))
    block_dev = float(np.abs(model.y_matrix[np.ix_(order, order)] - expected).max())
    return QttfEstimate(
        value=model.tr_fbar_inv * dim / n_bases,
        method="closed_minimal_bases",
        params={"n_bases": n_bases, "y_block_deviation": block_dev},
    )


def _beta_moment(dim: int, power: float) -> float:
    """E[x**power] = Gamma(1 + power) Gamma(dim) / Gamma(dim + power) for
    x ~ Beta(1, dim-1), the law of |<phi|psi>|**2 for a unit phi and a Haar
    pure state psi."""
    return math.exp(math.lgamma(1 + power) + math.lgamma(dim) - math.lgamma(dim + power))


def _closed_form(model: TomographyMatrices) -> QttfEstimate:
    """The closed form that the outcome count selects: the bases form for
    M = dim (dim+1), else the minimal form, which refuses any M != dim**2."""
    if model.n_outcomes == model.dim * (model.dim + 1):
        return _closed_minimal_bases(model)
    return _closed_minimal(model)


def _cubic_form(coords: np.ndarray, tails: tuple[np.ndarray, ...]) -> np.ndarray:
    """sum_ijk T_ijk t_i t_j t_k = sum_j t_j t[j:]^T W_j t[j:] for every row t of
    coords, from the cubic form's upper tails W_j (TomographyMatrices.cubic_tails).

    One (s, K - j) @ (K - j, K - j) matmul per tail, so about K**3 / 3 per row
    and no (s, K**2) temporary.
    """
    total = np.zeros(coords.shape[0])
    for j, tail in enumerate(tails):
        part = coords[:, j:]
        total += coords[:, j] * np.einsum("si,si->s", part @ tail, part)
    return total


def qttf_monte_carlo(
    pom: Pom,
    basis: HermitianBasis,
    n_samples: int,
    rng=None,
) -> QttfEstimate:
    """Haar average of Tr(F(rho)^{-1}) over n_samples pure states.

    Every state is kept: Tr(F^{-1}) comes from fisher.TomographyMatrices.
    trace_inverse, which needs no floor on the outcome probabilities; a state
    where an outcome's probability vanishes gets the limit value from its
    augmented-system solve.

    Every sample v = Tr(F^{-1}) carries three control variates built
    from its Bloch coordinates t (p - pbar = C t, K = dim**2 - 1), the first
    three terms of the expansion in the module docstring at alpha = 1:

    * linear, g1 = l . t with l = C^T diag(X), the term Tr(X D);
    * quadratic, g2 = t^T Q t - F2, the term Tr(X D Y D);
    * cubic, g3 = sum_ijk T_ijk t_i t_j t_k - F3, the term Tr(X D Y D Y D);

    with Q, T and their exact Haar means F2 and F3 read from the measurement
    model (fisher.TomographyMatrices), so all three have Haar mean exactly 0.
    When every outcome is rank one (TomographyMatrices.all_rank_one),
    x_m = p_m / Tr Pi_m is Beta(1, dim-1) distributed with E[x**a] = e(a) =
    Gamma(1+a) Gamma(dim) / Gamma(dim+a), and five more controls, not
    polynomial in t for a = 1/2 and 3/2, are fitted
    (see the module docstring for their measured effect):

    * h1 = sum_m x_m**(1/2) - M e(1/2);
    * h2 = sum_m X_mm x_m**(1/2) - (sum_m X_mm) e(1/2);
    * h3 = sum_m X_mm x_m**(3/2) - (sum_m X_mm) e(3/2);
    * h4 = sum_m X_mm x_m**2 - (sum_m X_mm) e(2);
    * h5 = sum_m X_mm x_m**3 - (sum_m X_mm) e(3).

    The states come from operators.rotated_vectors, which rotates a fixed
    rule of S states by an independent Haar unitary per group of S, the last
    group cut at n.  The rule is the one point, S = 1, giving independent Haar
    states, except in a run of n >= DESIGN_MIN_GROUPS * S samples at a dim
    above 2 that operators.mub_vectors tabulates (4 and every odd prime), with
    S = dim (dim+1).  Such a run draws G = ceil(n / S) groups of a complete
    set of mutually unbiased bases, a complex-projective 2-design.  Every
    state is still Haar distributed, so the estimate stays unbiased, and a
    whole group averages every polynomial of degree 2 in rho exactly: the
    terms of Tr(F^{-1}) up to second order about the maximally mixed state,
    and the linear and quadratic controls.  The groups never straddle a
    batch, and 30 groups are the fewest that the bar below is left to rest
    on.  params["design"] is S, or 1 for independent states, and
    params["groups"] is G, or n for independent states.  The module
    docstring has the measured gain, and why dim 2 draws independent states.

    The value and its bar come from _controlled_mean, the library's one
    estimator of a sampled mean, over the samples v, their q controls (3, or
    8 with the rank-one ones; the fit runs from n = q + 3 samples on, 6 or
    11) and the groups of S states: a control-variate fit with the variance
    its coefficients add, and a bar cluster-robust (CR1) over the groups.
    Its diagnostics are params["kurtosis"], ["variance_reduction"],
    ["controls"], ["loss_factor"], ["residual_kurtosis"] and ["groups"]; a
    heavy tail shows in the record, not in a warning.  std_error adds
    params["roundoff"] = eps kappa |value| in quadrature, kappa that of the
    factor of Pbar^{-1/2} C, whose roundoff every control mean shares across
    the samples, out of the residuals' sight.

    From dim REDUCED_MIN_DIM = 4 on, a run of more than one kernel block,
    n > fisher.CHOLESKY_BLOCK, evaluates Tr(F^{-1}) at two levels, in the
    manner of multilevel Monte Carlo (Giles, Operations Research 56, 2008),
    with c = CORRECTION_BLOCK rounded up to whole groups of S and to at least
    two:

    * every block goes through the kernel's step at float32 (fisher.
      TomographyMatrices.trace_inverse), which took 65 % / 56 % of the
      float64 step's time at dim 4 / 5 (512-row blocks, one BLAS thread);
      a row that it flags, NaN or eps32 Tr(F^{-1}) max_i F_ii above
      fisher.REDUCED_RTOL, is evaluated again by the float64 step, its
      augmented rescue included, and takes that value.  The flagged rows of
      a batch and the correction block's rows wait, with their Born rows,
      for one float64 call per batch;
    * the first c states are evaluated at both levels, and _controlled_mean
      over their float64 - float32 differences (0 for a flagged row), with no
      controls and the groups of S, gives a correction and its bar.

    The value is the controlled mean of the float32-level values plus the
    correction, so it targets the float64 mean, and std_error adds the
    correction's bar in quadrature with the fit's bar and the roundoff.  The
    fit's bar is taken over the float32 values.  params["reduced_rows"] counts
    the rows kept at float32, params["rescued_rows"] those evaluated again,
    and params["correction"] and ["correction_stderr"] give the correction and
    its bar.  A run at dim <= 3, or of one block or less, runs the kernel at
    float64 alone, with 0 rows, a correction of 0.0 and its bar 0.0: there
    the float64 call on the correction block costs more than the float32
    level saves (one BLAS thread, 2 dim**2 outcomes: at n = 200 the two
    levels took 1.24 / 1.14 times the float64 level's time at dim 4 / 5, and
    they broke even near n = 600 / 300).  On the bench pools (24 / 12
    random rank-one measurements with 2 dim**2 outcomes at dim 4 / 5, 5
    seeds each, n = 2000) the estimate moved by at most 0.0019 / 0.0023 of
    its bar against the float64 level, the correction's bar was at most
    0.15 % / 0.22 % of std_error, and 0.7 % / 1.5 % of the rows were flagged.

    States are drawn in batches of up to MC_BATCH, a multiple of S with
    rotated bases, and each batch is walked in blocks of fisher.CHOLESKY_BLOCK
    states.  With the products c_mi c_mj of the rows of C over the lower
    triangle j <= i tabulated once per model as an (M, K (K+1) / 2) matrix
    (TomographyMatrices.outer_table), a block of s states costs

    * one real (s, 2 dim**2) @ (2 dim**2, M + K) matmul for the Born
      probabilities p_m = Re sum_ij rho_ij conj(Pi_m)_ij and the Bloch
      coordinates t_k = Re sum_ij rho_ij conj(B_k)_ij over the float64
      views of rho = v v^dag, of the outcomes and of the traceless basis
      (fisher.TomographyMatrices.born at weight 1.0),
    * one (K (K+1) / 2, M) @ (M, s) matmul that writes the lower triangles
      of the Fisher matrices F = sum_m c_m c_m^T / p_m batch-last, then one
      loop of K vectorised steps that factors F = L L^T and inverts L
      together, for Tr(F^{-1}) (about 2 K**3 / 3 multiply-adds per state,
      K**3 / 2 at dim = 5, where the steps skip the zero band of L^{-1}); a
      state whose F is too ill conditioned for that is evaluated again by a
      solve of the augmented system [[alpha P, C], [C^T, 0]]: the one
      per-block step of fisher.TomographyMatrices.trace_inverse, in two
      buffers allocated once per call, float32 ones from dim 4 on,
    * for rank-one outcomes, four passes over one (s, M) buffer: the square
      root of the probabilities and one (s, M) @ (M, 2) matmul against
      [w**(1/2), X_mm w**(1/2)] with w_m = 1 / Tr Pi_m, then p**(3/2), p**2
      and p**3 in place, each with one matvec against X_mm w**a; the two
      passes for a = 2 and 3 take 4-6 % of a call on wide measurements
      (M = 20 at dim = 2, M = 40 at dim = 3) and under 2 % at dim >= 4,

    and a batch of s states then costs, on the Bloch coordinates of all its
    blocks, one (s, K) @ (K,) matvec for the linear control, one (s, K) @
    (K, K) matmul against Q for the quadratic one and, for the cubic one, one
    (s, K - j) @ (K - j, K - j) matmul per upper tail W_j of the symmetrised
    cubic form (TomographyMatrices.cubic_tails), about K**3 / 3 multiply-adds
    per state; these run on the whole batch, where their matmuls are fastest.
    So each sample costs O(dim**2 (M + K) + M K**2 + K**3).  A run holds per
    sample its value and its controls, per state of a batch its vector and
    its K Bloch coordinates, and per block the Born rows, 1/p and the power
    buffer: no Born row outlives its block, but for those that wait for the
    float64 call of their batch.
    """
    return _monte_carlo(measurement_matrices(pom, basis), n_samples, rng)


def _monte_carlo(model: TomographyMatrices, n_samples: int, rng) -> QttfEstimate:
    """qttf_monte_carlo on the measurement model."""
    _require_count("n_samples", n_samples, 2)
    rng, seed = _random_source(rng)
    dim, m = model.dim, model.n_outcomes
    linear = model.c_matrix.T @ np.diag(model.x_matrix)
    quadratic, tails = model.quadratic_form, model.cubic_tails
    control_means = [0.0, model.f2, model.f3]
    rank_one = model.all_rank_one
    if rank_one:
        x_diag = np.diag(model.x_matrix)
        weights = 1.0 / np.einsum("mii->m", model.outcomes).real  # as Pom.traces
        root_weights = np.sqrt(weights)
        root_table = np.column_stack([root_weights, x_diag * root_weights])
        # X_mm w_m**a for the powers a = 3/2, 2 and 3 of x_m = w_m p_m
        power_weights = [x_diag * root_weights**3, x_diag * weights**2, x_diag * weights**3]
        control_means += [m * _beta_moment(dim, 0.5)]
        control_means += [x_diag.sum() * _beta_moment(dim, a) for a in (0.5, 1.5, 2, 3)]
    # not at dim 2, where the rotated set is an octahedron of Bloch vectors: it
    # sums the degree-4 harmonic of the samples coherently, at 3.5 times its
    # variance under independent states, and over 24 qubit measurements the
    # variance of the estimate moved by x0.38 to x2.24, median x1.0
    bases = dim > 2 and _mub_tabulated(dim) and n_samples >= DESIGN_MIN_GROUPS * dim * (dim + 1)
    rule = mub_vectors(dim) if bases else np.ones((1, 1))  # else one point: independent states
    design = len(rule)
    batch = MC_BATCH - MC_BATCH % design  # no group straddles two batches
    # at least two groups, so that the correction has a bar
    correction = design * max(2, -(-CORRECTION_BLOCK // design))
    # within one kernel block the float64 call on the correction block costs
    # more than the float32 level saves
    reduced = dim >= REDUCED_MIN_DIM and n_samples > max(CHOLESKY_BLOCK, correction)
    differences = np.zeros(correction)
    rescued = 0
    values = np.empty(n_samples)
    controls = np.empty((n_samples, len(control_means)))
    coords = np.empty((min(batch, n_samples), model.c_matrix.shape[1]))
    dtype = np.float32 if reduced else np.float64
    buffers = model._kernel_buffers(min(CHOLESKY_BLOCK, n_samples), dtype)
    for start in range(0, n_samples, batch):
        stop = min(start + batch, n_samples)
        vectors = rotated_vectors(rule, dim, stop - start, rng)
        deferred = []  # (run indices, Born rows) for the float64 pass of the batch
        for first in range(start, stop, CHOLESKY_BLOCK):
            rows = slice(first, min(first + CHOLESKY_BLOCK, stop))
            local = slice(first - start, rows.stop - start)  # the block's rows in the batch
            index = np.arange(first, rows.stop)  # their indices in the run, which a refusal names
            probs, coords[local] = model.born(vectors[local], 1.0)
            values[rows] = model._block_trace_inverse(probs, index, buffers)
            if reduced:
                again = np.flatnonzero(np.isnan(values[rows]) | (index < correction))
                deferred.append((index[again], probs[again]))
            if rank_one:
                # one (s, M) buffer holds p**(1/2), p**(3/2), p**2 and p**3 in turn
                powers = np.sqrt(probs)
                controls[rows, 3:5] = powers @ root_table
                powers *= probs
                controls[rows, 5] = powers @ power_weights[0]
                np.square(probs, out=powers)
                controls[rows, 6] = powers @ power_weights[1]
                powers *= probs
                controls[rows, 7] = powers @ power_weights[2]
        if reduced:
            # one float64 pass per batch: the rows that the float32 level left
            # NaN, which take its value, and the correction block, whose
            # differences it gives (0 for a flagged row)
            waiting = np.concatenate([again for again, _ in deferred])
            exact = model._trace_inverse(np.concatenate([probs for _, probs in deferred]), waiting)
            flagged = np.isnan(values[waiting])
            rescued += int(flagged.sum())
            values[waiting[flagged]] = exact[flagged]
            head = waiting < correction
            differences[waiting[head]] = exact[head] - values[waiting[head]]
        # the polynomial controls run once per batch, where their matmuls are fastest
        batch_coords = coords[: stop - start]
        controls[start:stop, 0] = batch_coords @ linear
        controls[start:stop, 1] = np.sum((batch_coords @ quadratic) * batch_coords, axis=1)
        controls[start:stop, 2] = _cubic_form(batch_coords, tails)
    controls -= control_means
    value, std_error, diagnostics = _controlled_mean(values, controls, design)
    shift, shift_error = 0.0, 0.0
    if reduced:
        shift, shift_error, _ = _controlled_mean(differences, np.empty((correction, 0)), design)
        value += shift
    sigma = model._factor[1]
    roundoff = float(np.finfo(float).eps * sigma[0] / sigma[-1] * abs(value))
    return QttfEstimate(
        value=value,
        method="monte_carlo",
        params={
            "n_samples": int(n_samples),
            "seed": seed if seed is None else int(seed),
            "roundoff": roundoff,
            "design": design,
            "reduced_rows": int(n_samples) - rescued if reduced else 0,
            "rescued_rows": rescued,
            "correction": shift,
            "correction_stderr": shift_error,
            **diagnostics,
        },
        std_error=math.hypot(std_error, shift_error, roundoff),
    )


def _controlled_mean(
    values: np.ndarray, controls: np.ndarray, design: int
) -> tuple[float, float, dict]:
    """The mean of n sampled values and its standard error: the library's one
    estimator of a sampled mean, behind qttf_monte_carlo, the scaled MSE of
    estimation.haar_mse_sweep and the cells of cli.run_fig1.

    controls (n, q) holds q control variates per sample, each with exact
    mean 0 (q = 0: none), and the samples come in consecutive groups of
    `design`, the last one cut at n, that are independent of each other
    (design 1: independent samples).  The value is the mean of v - c . beta
    over the rows c of the controls, with beta the least-squares fit of the
    centred values on the centred controls (minimum norm, so a constant
    control gets coefficient 0).  For independent samples and rss the
    residual sum of squares,

        std_error**2 = (n - 2) / (n - q - 2) * rss / ((n - q - 1) n),

    one degree of freedom spent per control and one for the intercept, times
    the loss factor (n - 2) / (n - q - 2), the variance that the fitted
    coefficients add to the estimate (Lavenberg & Welch, Management Science
    1981); without it the bars of small runs fall below their scatter.  With
    groups the samples of a group are correlated, and the bar is
    cluster-robust (CR1) over the G groups, R_g the residual sum of group g:

        std_error**2 = (n - 2) / (n - q - 2) * G / (G - 1)
                       * (n - 1) / (n - q - 1) * sum_g R_g**2 / n**2,

    the one formula that std_error is computed by: at design 1 it is the
    formula above, and without a fit, q = 0, the loss factor is 1 and the
    residuals are the centred values, so it is the plain standard error of
    the mean, the sample standard deviation over sqrt(n).  So a mean of one
    sample has no bar; its callers take at least 2.  The fit runs from
    n = q + 3 samples on; below that, without controls, or when the values
    have no spread (under SPREAD_RTOL times the mean), it is skipped, giving
    the plain mean, 0 controls and factors of exactly 1.0.

    diagnostics holds "kurtosis" of the raw values (0.0 without spread),
    "variance_reduction" the raw over the residual sum of squares,
    "controls" the q fitted, "loss_factor", "residual_kurtosis" the kurtosis
    of the residuals (0.0 without a fit) and "groups" G.
    """
    n = len(values)
    mean = float(values.mean())
    centered = values - mean
    second = float(np.mean(centered**2))
    # Zero spread (up to roundoff) means a constant sample, such as a
    # state-independent Tr(F^{-1}); the kurtosis and the fit are meaningless there.
    spread = second > (SPREAD_RTOL * max(abs(mean), 1.0)) ** 2
    if spread:
        # fourth powers as two squarings: x**4 calls libm pow per element
        kurtosis = float(np.mean(np.square(np.square(centered))) / second**2)
    else:
        kurtosis = 0.0
    q = controls.shape[1]
    if spread and q and n >= q + 3:
        sample_means = controls.mean(axis=0)
        shifted = controls - sample_means
        beta = np.linalg.lstsq(shifted, centered, rcond=None)[0]
        residuals = centered - shifted @ beta
        residual_ss = float(residuals @ residuals)
        value = mean - float(sample_means @ beta)
        # the variance the fitted coefficients add (Lavenberg & Welch 1981)
        loss_factor = (n - 2) / (n - q - 2)
        reduction = second * n / residual_ss
        fitted = q
        residual_kurtosis = float(
            np.mean(np.square(np.square(residuals))) / (residual_ss / n) ** 2
        )
    else:
        value = mean
        residuals = centered
        reduction = loss_factor = 1.0
        fitted = 0
        residual_kurtosis = 0.0
    # cluster-robust (CR1) over the independent groups, whose residual sums
    # carry the correlation of the samples within a group
    groups = -(-n // design)
    sums = np.add.reduceat(residuals, np.arange(0, n, design))
    dof = groups / (groups - 1) * (n - 1) / (n - fitted - 1)
    std_error = float(np.sqrt(loss_factor * dof * float(sums @ sums)) / n)
    return value, std_error, {
        "kurtosis": kurtosis,
        "variance_reduction": reduction,
        "controls": fitted,
        "loss_factor": loss_factor,
        "residual_kurtosis": residual_kurtosis,
        "groups": groups,
    }


def qttf_auto(
    pom: Pom,
    basis: HermitianBasis,
    n_samples: int = 10000,
    rng=None,
) -> QttfEstimate:
    """The closed form that the outcome count selects when its structure
    holds (_closed_form), otherwise the order-2 series for moderately sized
    measurements (M <= 4 dim**2), otherwise Monte Carlo."""
    return _auto(measurement_matrices(pom, basis), n_samples, rng)


def _auto(model: TomographyMatrices, n_samples: int, rng) -> QttfEstimate:
    """qttf_auto on the measurement model."""
    _require_count("n_samples", n_samples, 2)
    try:
        return _closed_form(model)
    except (NotMinimallyCompleteError, NotMinimalBasesError):
        pass
    if model.n_outcomes <= 4 * model.dim * model.dim:
        return _series(model, alpha=1.0, max_order=2)
    return _monte_carlo(model, n_samples, rng)
