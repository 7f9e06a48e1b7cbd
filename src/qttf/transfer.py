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
  with their exact Haar means 0, F2 and F3.  When every outcome is rank one,
  x_m = p_m / Tr Pi_m is exactly Beta(1, dim-1) distributed, so weighted sums
  of x_m**a for a = 1/2, 3/2, 2 and 3 have exact Haar means too and serve as
  five more controls.  Tr(F^{-1}) is analytic where an outcome's probability
  vanishes, so these controls follow no kink; they are kept for their
  measured effect, the median variance reduction at dim = 3 / 4 / 5 rising
  from 13.7 / 9.2 / 9.3 with the polynomial controls alone to 29.9 / 16.6 /
  19.3 with the powers 1/2 and 3/2; the powers 2 and 3 cut the residual
  variance by a further median x1.23 / x1.37 / x1.61 (rank-one measurements
  with 2 dim**2 outcomes, 40000 samples each).  The error bar includes the
  variance that the fitted coefficients add.  A run of at least
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
  2 dim**2 outcomes.

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
outcomes ("half-products"), and memory_budget bounds that contraction alone.

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
from .fisher import STRUCTURE_TOL, TomographyMatrices, _pure_state_born, measurement_matrices
from .operators import (
    HermitianBasis,
    _mub_tabulated,
    _require_count,
    _require_dim,
    haar_state_vectors,
    rotated_mub_vectors,
)
from .pom import Pom

DEFAULT_MEMORY_BUDGET = 2**30  # bytes
MC_BATCH = 20000  # Haar states per Monte Carlo batch
# Monte Carlo draws rotated sets of mutually unbiased bases only when the run
# holds this many groups, so that its cluster bar rests on as many independent
# group sums; shorter runs draw independent states
DESIGN_MIN_GROUPS = 30
SPREAD_RTOL = 1e-9  # samples spread less than this times their mean are constant


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
    complex (M, dim, dim) slices and two real length-M rows per d."""
    return 40 * m * m + 4096 + chunk * (64 * m * dim * dim + 16 * m)


def _times_outcomes(stack: np.ndarray, outcomes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[p, q] = stack[p, q] @ outcomes[p] on (P, Q, 2 dim**2) float64 views of
    complex stacks: one (Q dim, dim) @ (dim, dim) matmul per p."""
    shape = (stack.shape[0], -1, outcomes.shape[1])
    np.matmul(stack.view(complex).reshape(shape), outcomes, out=out.view(complex).reshape(shape))
    return out


def haar_moment_term(
    pom: Pom,
    basis: HermitianBasis,
    order: int,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> float:
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
    no pair product Pi_a Pi_b is formed.  Time is O(M**3 D**2) and memory about
    64 M**2 D**2 bytes when one chunk holds every d; chunks sized by _quartic_bytes
    to fit memory_budget change the value only by rounding.  Orders 2 and 3 build no
    operator stacks, hold O(M**2 + K**3) with K = dim**2 - 1, and ignore the budget.
    """
    if order not in (2, 3, 4):
        raise UnsupportedOrderError(f"moment term order must be 2, 3, or 4, got {order}")
    model = measurement_matrices(pom, basis)
    if order == 2:
        return model.f2
    if order == 3:
        return model.f3
    return _quartic_term(model, memory_budget)


def _quartic_term(model: TomographyMatrices, memory_budget: int) -> float:
    """F4 as in haar_moment_term, within memory_budget bytes or not at all."""
    dim, m = model.dim, model.n_outcomes
    resident = _quartic_bytes(m, dim, 0)
    chunk = min(m, (memory_budget - resident) // (_quartic_bytes(m, dim, 1) - resident))
    if chunk < 1:
        raise BudgetExceededError(
            f"order-4 contraction needs {_quartic_bytes(m, dim, 1)} bytes > budget "
            f"{memory_budget}; use qttf_monte_carlo for this measurement"
        )
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
    plain truncated moment series.  memory_budget bounds the order-4 term
    only (haar_moment_term).

    params records alpha next to the convergence radius alpha0.  The
    untruncated series is certified to converge only for alpha < alpha0; the
    physical Haar average (alpha = 1) usually lies beyond it, where the
    truncation is still the working approximation but its tail is uncertified.
    """
    return _series(measurement_matrices(pom, basis), alpha, max_order, memory_budget)


def _series(
    model: TomographyMatrices,
    alpha: float = 1.0,
    max_order: int = 2,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> QttfEstimate:
    """qttf_series on the measurement model."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be {'finite' if alpha > 0 else 'positive'}, got {alpha}")
    integral = isinstance(max_order, (int, np.integer)) and not isinstance(max_order, bool)
    if not (integral and 0 <= max_order <= 4):
        raise UnsupportedOrderError(f"max_order must be an integer in [0, 4], got {max_order!r}")
    contributions = [model.tr_fbar_inv]
    if max_order >= 2:
        f2 = model.f2
        contributions.append(alpha * f2)
    if max_order >= 3:
        f3 = model.f3
        contributions.append(alpha**2 * (f3 - f2) + alpha * f2)
    if max_order >= 4:
        f4 = _quartic_term(model, memory_budget)
        contributions.append(
            alpha**3 * (f4 - 2 * f3 + f2) + 2 * alpha**2 * (f3 - f2) + alpha * f2
        )
    return QttfEstimate(
        value=float(sum(contributions)),
        method="series",
        params={
            "order": int(max_order),
            "alpha": float(alpha),
            "alpha0": model.alpha0,
            "contributions": [float(c) for c in contributions],
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
    trace_inverse, which needs no floor on the outcome probabilities.

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

    The states are independent Haar draws (operators.haar_state_vectors),
    except in a run of n >= DESIGN_MIN_GROUPS * S samples at a dim above 2
    that operators.mub_vectors tabulates (4 and every odd prime), with
    S = dim (dim+1).  Such a run draws G = ceil(n / S) groups
    (operators.rotated_mub_vectors): a complete set of mutually unbiased
    bases, a complex-projective 2-design, rotated by an independent Haar
    unitary per group, the last group cut at n.  Every state is still Haar
    distributed, so the estimate stays unbiased, and a whole group averages
    every polynomial of degree 2 in rho exactly: the terms of Tr(F^{-1}) up
    to second order about the maximally mixed state, and the linear and
    quadratic controls.  The groups never straddle a batch, and 30 groups
    are the fewest that the bar below is left to rest on.  params["design"]
    is S, or 1 for independent states, and params["groups"] is G, or n for
    independent states.  The module docstring has the measured gain, and
    why dim 2 draws independent states.

    The value is the mean of v - c . beta over the rows c of the controls,
    with beta the least-squares fit of the centred samples on the centred
    controls (minimum norm, so a constant control gets coefficient 0), per
    state in either draw.  For q fitted controls (3, or 8 with the rank-one
    ones) and rss the residual sum of squares of independent states,

        std_error**2 = (n - 2) / (n - q - 2) * rss / ((n - q - 1) n),

    one degree of freedom spent per control and one for the intercept, times
    the loss factor (n - 2) / (n - q - 2), the variance that the fitted
    coefficients add to the estimate (Lavenberg & Welch, Management Science
    1981); without it the bars of small runs fall below their scatter.  With
    rotated bases the states of a group are correlated, and the bar is
    cluster-robust (CR1) over the groups, R_g the residual sum of group g:

        std_error**2 = (n - 2) / (n - q - 2) * G / (G - 1)
                       * (n - 1) / (n - q - 1) * sum_g R_g**2 / n**2,

    the one formula that std_error is computed by: at S = 1 it is the formula
    above, and without a fit, q = 0, the loss factor is 1 and the residuals
    are the centred samples, so it is the plain standard error of the mean.
    std_error adds params["roundoff"] = eps kappa |value| in quadrature, kappa
    that of the factor of Pbar^{-1/2} C, whose roundoff every control mean
    shares across the samples, out of the residuals' sight.
    params["controls"] is q and params["loss_factor"] that factor,
    params["variance_reduction"] the raw over the residual sum of squares and
    params["residual_kurtosis"] the kurtosis of the residuals.  The fit runs
    from n = q + 3 samples on, 6 or 11; below that, or when the samples have
    no spread (under SPREAD_RTOL times the mean), it is skipped, giving the
    plain mean, 0 controls and factors of exactly 1.0.  params["kurtosis"]
    is the kurtosis of the raw samples: a heavy tail shows in the record,
    not in a warning.

    States are drawn in batches of up to MC_BATCH, a multiple of S with
    rotated bases.  With the products c_mi c_mj of the rows of C over the
    lower triangle j <= i tabulated once per model as an (M, K (K+1) / 2)
    matrix (TomographyMatrices.outer_table), a batch of s states costs

    * one real (s, 2 dim**2) @ (2 dim**2, M + K) matmul for the Born
      probabilities p_m = Re sum_ij rho_ij conj(Pi_m)_ij and the Bloch
      coordinates t_k = Re sum_ij rho_ij conj(B_k)_ij over the float64
      views of rho = v v^dag, of the outcomes and of the traceless basis
      (fisher._pure_state_born),
    * per block of fisher.CHOLESKY_BLOCK states, one (K (K+1) / 2, M) @
      (M, s) matmul that writes the lower triangles of the Fisher matrices
      F = sum_m c_m c_m^T / p_m batch-last, then one loop of K vectorised
      steps that factors F = L L^T and inverts L together, for Tr(F^{-1})
      (about 2 K**3 / 3 multiply-adds per state, K**3 / 2 at dim = 5, where
      the steps skip the zero band of L^{-1}); a state whose F is too ill
      conditioned for that is evaluated again by a QR factorisation
      (fisher.TomographyMatrices.trace_inverse),
    * for the polynomial controls, one (s, K) @ (K,) matvec, one (s, K) @
      (K, K) matmul against Q and, for the cubic one, one (s, K - j) @
      (K - j, K - j) matmul per upper tail W_j of the symmetrised cubic form
      (TomographyMatrices.cubic_tails), about K**3 / 3 multiply-adds per state,
    * for rank-one outcomes, four passes over one (s, M) buffer: the square
      root of the probabilities and one (s, M) @ (M, 2) matmul against
      [w**(1/2), X_mm w**(1/2)] with w_m = 1 / Tr Pi_m, then p**(3/2), p**2
      and p**3 in place, each with one matvec against X_mm w**a; the two
      passes for a = 2 and 3 take 4-6 % of a call on wide measurements
      (M = 20 at dim = 2, M = 40 at dim = 3) and under 2 % at dim >= 4,

    so each sample costs O(dim**2 (M + K) + M K**2 + K**3).
    """
    return _monte_carlo(measurement_matrices(pom, basis), n_samples, rng)


def _monte_carlo(model: TomographyMatrices, n_samples: int, rng=None) -> QttfEstimate:
    """qttf_monte_carlo on the measurement model."""
    _require_count("n_samples", n_samples, 2)
    seed = rng if isinstance(rng, (int, np.integer)) else None
    rng = np.random.default_rng(rng)
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
    design = dim * (dim + 1)
    # not at dim 2, where the rotated set is an octahedron of Bloch vectors: it
    # sums the degree-4 harmonic of the samples coherently, at 3.5 times its
    # variance under independent states, and over 24 qubit measurements the
    # variance of the estimate moved by x0.38 to x2.24, median x1.0
    if not (dim > 2 and _mub_tabulated(dim) and n_samples >= DESIGN_MIN_GROUPS * design):
        design = 1
    batch = MC_BATCH - MC_BATCH % design  # no group straddles two batches
    values = np.empty(n_samples)
    controls = np.empty((n_samples, len(control_means)))
    for start in range(0, n_samples, batch):
        rows = slice(start, min(start + batch, n_samples))
        if design > 1:
            vectors = rotated_mub_vectors(dim, rows.stop - start, rng)
        else:
            vectors = haar_state_vectors(dim, rows.stop - start, rng)
        born = _pure_state_born(vectors, model.born_table)
        probs, coords = born[:, :m], born[:, m:]
        values[rows] = model.trace_inverse(probs)
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
        controls[rows, 0] = coords @ linear
        controls[rows, 1] = np.sum((coords @ quadratic) * coords, axis=1)
        controls[rows, 2] = _cubic_form(coords, tails)
    controls -= control_means
    mean = float(values.mean())
    centered = values - mean
    second = float(np.mean(centered**2))
    # Zero spread (up to roundoff) means a state-independent Tr(F^{-1});
    # the kurtosis diagnostic and the control fit are meaningless there.
    spread = second > (SPREAD_RTOL * max(abs(mean), 1.0)) ** 2
    if spread:
        # fourth powers as two squarings: x**4 calls libm pow per element
        kurtosis = float(np.mean(np.square(np.square(centered))) / second**2)
    else:
        kurtosis = 0.0
    q = controls.shape[1]
    if spread and n_samples >= q + 3:
        sample_means = controls.mean(axis=0)
        shifted = controls - sample_means
        beta = np.linalg.lstsq(shifted, centered, rcond=None)[0]
        residuals = centered - shifted @ beta
        residual_ss = float(residuals @ residuals)
        value = mean - float(sample_means @ beta)
        # the variance the fitted coefficients add (Lavenberg & Welch 1981)
        loss_factor = (n_samples - 2) / (n_samples - q - 2)
        reduction = second * n_samples / residual_ss
        fitted = q
        residual_kurtosis = float(
            np.mean(np.square(np.square(residuals))) / (residual_ss / n_samples) ** 2
        )
    else:
        value = mean
        residuals = centered
        reduction = loss_factor = 1.0
        fitted = 0
        residual_kurtosis = 0.0
    # cluster-robust (CR1) over the independent groups, whose residual sums
    # carry the correlation of the states within a group; independent states
    # are groups of one
    groups = -(-n_samples // design)
    sums = np.add.reduceat(residuals, np.arange(0, n_samples, design))
    dof = groups / (groups - 1) * (n_samples - 1) / (n_samples - fitted - 1)
    std_error = float(np.sqrt(loss_factor * dof * float(sums @ sums)) / n_samples)
    sigma = model._factor[1]
    roundoff = float(np.finfo(float).eps * sigma[0] / sigma[-1] * abs(value))
    return QttfEstimate(
        value=value,
        method="monte_carlo",
        params={
            "n_samples": int(n_samples),
            "seed": seed if seed is None else int(seed),
            "kurtosis": kurtosis,
            "variance_reduction": reduction,
            "controls": fitted,
            "loss_factor": loss_factor,
            "residual_kurtosis": residual_kurtosis,
            "roundoff": roundoff,
            "design": design,
            "groups": groups,
        },
        std_error=math.hypot(std_error, roundoff),
    )


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


def _auto(model: TomographyMatrices, n_samples: int = 10000, rng=None) -> QttfEstimate:
    """qttf_auto on the measurement model."""
    _require_count("n_samples", n_samples, 2)
    try:
        return _closed_form(model)
    except (NotMinimallyCompleteError, NotMinimalBasesError):
        pass
    if model.n_outcomes <= 4 * model.dim * model.dim:
        return _series(model, alpha=1.0, max_order=2)
    return _monte_carlo(model, n_samples, rng)
