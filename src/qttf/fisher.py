"""Measurement matrices, Born probabilities, and the scaled Fisher information.

For outcome operators Pi_j and basis operators B_k, the matrix C holds
C_{jk} = Tr(Pi_j B_k) over the traceless operators; C-tilde prepends the
column Tr(Pi_j)/sqrt(dim) for the identity component.  At a state with
outcome probabilities p the scaled Fisher matrix of the multinomial model is
F = C^T diag(p)^{-1} C, and Tr(F^{-1}) is the optimal (Cramer-Rao) scaled
mean squared Hilbert-Schmidt error of unbiased estimation.  F sums the outer
products c_m c_m^T of the rows of C: fisher() reads all K**2 of them batch-first
for the LAPACK solves, the trace-inverse kernel reads TomographyMatrices.
outer_table, their lower triangle j <= i packed row by row, and assembles it
batch-last into one reused block (fresh ones cost it 10 %), since its Cholesky
reads nothing else.
TomographyMatrices.trace_inverse is the one evaluation of Tr(F^{-1}): accuracy,
the MSE experiments and Monte Carlo all call it; the expansion at the maximally
mixed state reads one thin SVD of Pbar^{-1/2} C.  measurement_matrices takes
that SVD and refuses a measurement that is not informationally complete, so
every TomographyMatrices is complete and no reader checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotInformationallyCompleteError,
    PomValidationError,
    ZeroProbabilityError,
)
from .operators import HermitianBasis, _density_matrix
from .pom import Pom

P_FLOOR = 1e-12
RANK_RTOL = 1e-6  # smallest singular value of Pbar^{-1/2} C accepted, relative to the largest
STRUCTURE_TOL = 1e-8  # absolute deviation accepted in a structure check of the outcomes
CHOLESKY_RTOL = 1e-10  # relative roundoff accepted from the Cholesky kernel
CHOLESKY_BLOCK = 512  # Fisher matrices assembled, factored and inverted in one batch-last pass


@dataclass(frozen=True)
class TomographyMatrices:
    """The per-measurement model: everything derived from a measurement and a
    basis alone, each quantity computed once per instance.

    Set by measurement_matrices:

    * c_matrix, M x K with K = dim**2 - 1: C_jk = Tr(Pi_j B_k) over the
      traceless basis operators;
    * p_bar: the outcome probabilities at the maximally mixed state;
    * outcomes and basis: the outcome operators and the basis C was built from;
    * all_rank_one, the one rank test of the outcomes (all eigenvalues but the
      largest within STRUCTURE_TOL of zero), read from the eigenvalues the Pom
      computed when it checked them and read by the bases closed form and the
      Monte Carlo controls;
    * _factor, B = Pbar^{-1/2} U and sigma of the thin SVD U Sigma V^T of
      S = Pbar^{-1/2} C, on which measurement_matrices decided completeness.
      Fbar = S^T S is never formed, so kappa(S) is not squared (Bjorck,
      Numerical Methods for Least Squares Problems, SIAM 1996), and X and Y
      are each a matrix times its own transpose, which numpy's matmul forms
      as a symmetric rank-k update, so they are exactly symmetric.

    Computed on first read, since only some callers need them:

    * c_tilde, M x dim**2: C with the identity column Tr(Pi_j)/sqrt(dim) =
      sqrt(dim) pbar_j first, and the singular values of C and of C-tilde,
      for conditioning reports;
    * born_table, for Haar sampling, and the outer products c_m c_m^T of the
      rows of C, for the weighted designs and Fisher matrices that fisher()
      assembles; outer_table, their lower triangle packed (M, K (K+1) / 2), is
      the one that trace_inverse() assembles;
    * tr_fbar_inv, x_matrix and y_matrix, the expansion around the maximally
      mixed state (see qttf.transfer), from _factor;
    * alpha0, the convergence radius of the moment series;
    * quadratic_form, cubic_form, f2 and f3, the second- and third-order
      expansion terms in Bloch coordinates and their exact Haar means, and
      cubic_tails, the cubic form reduced to what the Monte Carlo control reads.

    Every array the model exposes, field or cached property, is read-only,
    since every caller of the instance shares it.

    With d = diag(p - pbar) = diag(C t) at a state with Bloch coordinates t,
    Tr(X d Y d) = t^T Q t and Tr(X d Y d Y d) = sum_ijk T_ijk t_i t_j t_k.
    For Haar pure states E[t t^T] = I / (dim (dim+1)) and E[t_i t_j t_k] =
    2 Re Tr(B_i B_j B_k) / (dim (dim+1) (dim+2)), so F2 and F3 need no
    products of outcome operators and hold O(M**2 + K**3).

    The expansion needs an informationally complete measurement, and
    measurement_matrices builds no model of any other, so every instance is one.
    """

    dim: int
    c_matrix: np.ndarray
    p_bar: np.ndarray
    outcomes: np.ndarray
    basis: HermitianBasis
    all_rank_one: bool
    _factor: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def c_tilde(self) -> np.ndarray:
        """C with the identity column sqrt(dim) pbar first, M x dim**2."""
        return _read_only(np.column_stack([np.sqrt(self.dim) * self.p_bar, self.c_matrix]))

    @cached_property
    def singular_values_c(self) -> np.ndarray:
        """Singular values of C, descending."""
        return _read_only(np.linalg.svd(self.c_matrix, compute_uv=False))

    @cached_property
    def singular_values_c_tilde(self) -> np.ndarray:
        """Singular values of C-tilde, descending."""
        return _read_only(np.linalg.svd(self.c_tilde, compute_uv=False))

    @cached_property
    def born_table(self) -> np.ndarray:
        """The outcomes, then the traceless basis operators, as the rows of one
        real (M + K, 2 dim**2) matrix of their float64 views (_pure_state_born)."""
        operators = np.concatenate([self.outcomes, self.basis.traceless_ops])
        table = operators.reshape(len(operators), self.dim * self.dim).view(np.float64)
        return _read_only(table)

    @cached_property
    def _outer_products(self) -> np.ndarray:
        """Outer products c_m c_m^T of the rows of C as an (M, K**2) matrix, the
        layout of fisher()'s matmul."""
        c_matrix = self.c_matrix
        table = (c_matrix[:, :, None] * c_matrix[:, None, :]).reshape(c_matrix.shape[0], -1)
        return _read_only(table)

    @cached_property
    def outer_table(self) -> np.ndarray:
        """The products c_mi c_mj of the rows of C over the lower triangle j <= i,
        packed row by row as an (M, K (K+1) / 2) matrix: row i of C^T diag(w) C
        up to its diagonal is the slice [i (i+1) / 2, (i+1) (i+2) / 2)."""
        rows, cols, _ = _packed_layout(self.c_matrix.shape[1])
        # np.take keeps the table C-ordered, as the assembly matmul's BLAS call
        # expects; indexing c_matrix[:, rows] would return it Fortran-ordered
        table = np.take(self.c_matrix, rows, axis=1) * np.take(self.c_matrix, cols, axis=1)
        return _read_only(table)

    def fisher(self, weights: np.ndarray) -> np.ndarray:
        """C^T diag(w) C, shape (..., K, K), for every row w of weights (..., M),
        as one matmul against the outer products c_m c_m^T, of which outer_table
        is the packed lower triangle: the Fisher matrix F for w = 1/p, and the
        weighted least-squares designs of qttf.estimation."""
        k = self.c_matrix.shape[1]
        return (weights @ self._outer_products).reshape(weights.shape[:-1] + (k, k))

    def trace_inverse(self, probs: np.ndarray) -> np.ndarray:
        """Tr(F^{-1}) for every row p of probs (n, M), with F = C^T diag(p)^{-1} C.

        The rows go in blocks of CHOLESKY_BLOCK.  A block's Fisher matrices A are
        one matmul of outer_table against 1/p, which writes their lower triangles
        batch-last into a (K (K+1) / 2, s) buffer, row i of A up to its diagonal
        the contiguous rows [i (i+1) / 2, (i+1) (i+2) / 2).  One loop over i then
        factors A = L L^T row by row (up-looking Cholesky) and builds Z = L^{-1}
        alongside,

            L[i, :i] = Z[:i, :i] A[i, :i],   L_ii**2 = A_ii - ||L[i, :i]||**2,
            Z[i, :i] = -(L[i, :i] Z[:i, :i]) / L_ii,   Z_ii = 1 / L_ii,

        from Z_00 = 1 / sqrt(A_00), each step einsums over the contiguous batch
        axis, and Tr(F^{-1}) = ||Z||_F**2.  Dense steps cost 2 i**2 multiply-adds per matrix at step i,
        twice the i**2 of exact triangles.  Where i**2 s >= 2**17 (from i = 16 in
        a full block, so at dim >= 5), both products split Z[:i, :i] at
        h = i // 2 and skip its upper-right block Z[:h, h:i], which is exactly
        zero, for 3 i**2 / 2; on a smaller band the two extra einsum calls cost
        more than the band saves.  The skipped terms are zeros that a sum in
        index order adds after or before the others, so every value is that of
        the dense steps.  Z's (K, K, s) buffer serves every block; its upper
        triangle is never written, so it stays zero.  The per-step vectors are
        the einsums' own outputs, which measured faster than writing into reused
        buffers.  A pivot that is not positive leaves its row NaN.

        The kernel's relative error grows like eps kappa(F), and kappa(F) lies
        within a factor K of Tr(F^{-1}) max_i F_ii either way; on pure states of
        rank-one measurements at dim = 2..5 the error stayed under 1.2 eps
        Tr(F^{-1}) max_i F_ii.  A row whose
        estimate eps Tr(F^{-1}) max_i F_ii exceeds CHOLESKY_RTOL, or is NaN, is
        evaluated again from the Householder QR of diag(p)^{-1/2} C with its rows
        sorted by norm, which is stable under row scaling (Cox & Higham, BIT
        1998), as ||R^{-1}||_F**2 (_qr_trace_inverse).  Tr(F^{-1}) is analytic
        where an outcome's probability vanishes, so the QR path needs no floor on
        p; only a row it cannot evaluate is refused.
        """
        n, k = probs.shape[0], self.c_matrix.shape[1]
        block = min(CHOLESKY_BLOCK, n)
        fisher, inverse = np.empty((k * (k + 1) // 2, block)), np.zeros((k, k, block))
        traces, estimates = np.empty(n), np.empty(n)
        diagonal = _packed_layout(k)[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = 1.0 / probs
            for start in range(0, n, CHOLESKY_BLOCK):
                rows = weights[start : start + CHOLESKY_BLOCK]
                s = rows.shape[0]
                a = np.matmul(self.outer_table.T, rows.T, out=fisher[:, :s])
                z = inverse[:, :, :s]
                z[0, 0] = 1.0 / np.sqrt(a[0])
                for i in range(1, k):
                    row = a[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]  # A[i, :i + 1]
                    h = i // 2 if i * i * s >= 1 << 17 else 0
                    if h:
                        lower = np.empty((i, s))
                        np.einsum("jks,ks->js", z[:h, :h], row[:h], out=lower[:h])
                        np.einsum("jks,ks->js", z[h:i, :i], row[:i], out=lower[h:])
                    else:
                        lower = np.einsum("jks,ks->js", z[:i, :i], row[:i])
                    scale = -1.0 / np.sqrt(row[i] - np.einsum("js,js->s", lower, lower))
                    lower *= scale
                    if h:
                        np.einsum("js,jks->ks", lower, z[:i, :h], out=z[i, :h])
                    np.einsum("js,jks->ks", lower[h:], z[h:i, h:i], out=z[i, h:i])
                    z[i, i] = -scale
                traces[start : start + s] = np.einsum("jks,jks->s", z, z)
                np.max(a[diagonal], axis=0, out=estimates[start : start + s])
            estimates *= traces
            rescue = np.flatnonzero(~(np.finfo(float).eps * estimates <= CHOLESKY_RTOL))
        if rescue.size:
            traces[rescue] = _qr_trace_inverse(self.c_matrix, probs[rescue])
        return traces

    @cached_property
    def tr_fbar_inv(self) -> float:
        """Tr Fbar^{-1} = sum sigma**-2, the zeroth-order term of the series."""
        return float(np.sum(self._factor[1] ** -2.0))

    @cached_property
    def x_matrix(self) -> np.ndarray:
        """X = Pbar^{-1} C Fbar^{-2} C^T Pbar^{-1} = A A^T, A = B Sigma^{-1}, is PSD."""
        b, sigma = self._factor
        a = b / sigma
        return _read_only(a @ a.T)

    @cached_property
    def y_matrix(self) -> np.ndarray:
        """Y = Pbar^{-1} C Fbar^{-1} C^T Pbar^{-1} - Pbar^{-1} = B B^T - Pbar^{-1} <= 0."""
        b = self._factor[0]
        return _read_only(b @ b.T - np.diag(1.0 / self.p_bar))

    @cached_property
    def alpha0(self) -> float:
        """1 / (||Y||_2 max_j Tr Pi_j), with Tr Pi_j = dim * pbar_j."""
        y_norm = float(np.abs(np.linalg.eigvalsh(self.y_matrix)).max())
        return 1.0 / (y_norm * self.dim * float(self.p_bar.max()))

    @cached_property
    def quadratic_form(self) -> np.ndarray:
        """Q = C^T (X o Y) C, so that Tr(X d Y d) = t^T Q t."""
        return _read_only(self.c_matrix.T @ (self.x_matrix * self.y_matrix) @ self.c_matrix)

    @cached_property
    def cubic_form(self) -> np.ndarray:
        """T with T[j, i, k] = T_ijk = sum_abc X_ca Y_ab Y_bc C_ai C_bj C_ck.

        Slab j is C^T (X o (Y diag(C[:, j]) Y)) C, built one slab at a time so
        that the working set stays O(M**2 + K**3).  T_ijk = T_kji.
        """
        c_matrix, x, y = self.c_matrix, self.x_matrix, self.y_matrix
        k = c_matrix.shape[1]
        tensor = np.empty((k, k, k))
        for j in range(k):
            tensor[j] = c_matrix.T @ (x * (y @ (c_matrix[:, j, None] * y))) @ c_matrix
        return _read_only(tensor)

    @cached_property
    def cubic_tails(self) -> tuple[np.ndarray, ...]:
        """The upper tails W_j = m o S[j, j:, j:] of S, the cubic form symmetrised
        over all three indices, so that for every t

            sum_ijk T_ijk t_i t_j t_k = sum_j t_j t[j:]^T W_j t[j:],

        which reads (K - j)**2 entries for t_j, about K**3 / 3 in all against the
        K**3 of the cubic form's slabs.  A term t_a t_b t_c with a <= b <= c
        falls to j = a, and the multiplicities m fold its 6 / 3 / 1 orderings
        into the symmetric W_j: 3 off the first row and column of the tail,
        3 / 2 on them, and 1 at their corner S_jjj.  The tails are views of one
        (K, K, K) array, built by whole-array operations, since a loop over j
        cost as much per model as the tails save per 2000 samples.
        """
        tensor = self.cubic_form
        k = len(tensor)
        # three of the six orderings, then the other three as the swap of the
        # last two axes, which leaves 6 S exactly symmetric in them
        three = tensor + tensor.transpose(1, 0, 2) + tensor.transpose(2, 1, 0)
        weighted = three + three.swapaxes(1, 2)
        weighted /= 2  # 3 S
        index = np.arange(k)
        weighted[index, index, :] /= 2
        weighted[index, :, index] /= 2
        weighted[index, index, index] = tensor[index, index, index]
        _read_only(weighted)
        return tuple(weighted[j, j:, j:] for j in range(k))

    @cached_property
    def f2(self) -> float:
        """F2 = E[Tr(X d Y d)] = Tr Q / (dim (dim+1))."""
        return float(np.trace(self.quadratic_form) / (self.dim * (self.dim + 1)))

    @cached_property
    def f3(self) -> float:
        """F3 = E[Tr(X d Y d Y d)]
        = 2 sum_ijk T_ijk Re Tr(B_i B_j B_k) / (dim (dim+1) (dim+2))."""
        # the triple traces are symmetric in all three indices, so their layout
        # need not match the cubic form's
        contraction = float(np.sum(self.cubic_form.ravel() * self.basis.triple_traces.ravel()))
        return 2 * contraction / (self.dim * (self.dim + 1) * (self.dim + 2))

    @property
    def n_outcomes(self) -> int:
        """M, the number of outcomes: the rows of C."""
        return self.c_matrix.shape[0]

    @property
    def kappa_c(self) -> float:
        """s_max / s_min of C, a report: completeness reads Pbar^{-1/2} C instead.
        C has full column rank, since the model is complete."""
        return float(self.singular_values_c[0] / self.singular_values_c[-1])

    @property
    def kappa_c_tilde(self) -> float:
        """s_max / s_min of C-tilde, the conditioning the CLI reports and ranks by.
        C-tilde has full column rank too: 1^T C = 0 while 1^T c-tilde_0 = sqrt(dim)."""
        return float(self.singular_values_c_tilde[0] / self.singular_values_c_tilde[-1])


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, flagged read-only: the model's arrays are shared by every reader
    of the instance."""
    array.setflags(write=False)
    return array


@cache
def _packed_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of a K x K matrix stored as its lower triangle j <= i, row by
    row: the row and column (i, j) of each stored entry, and the positions
    i (i+3) / 2 of the diagonal.  They depend on K alone, so every model of that
    size shares them."""
    index = np.arange(k)
    layout = (*np.tril_indices(k), index * (index + 3) // 2)
    for array in layout:
        array.flags.writeable = False  # shared by every caller in the process
    return layout


def measurement_matrices(pom: Pom, basis: HermitianBasis) -> TomographyMatrices:
    """The measurement model of pom over basis, for an informationally
    complete measurement only.

    Refuses a basis of another dimension (DimensionMismatchError), an outcome
    of zero trace, which has no maximally mixed probability to divide by
    (PomValidationError), and a measurement that is not informationally
    complete (NotInformationallyCompleteError): one whose Pbar^{-1/2} C, of
    which the model keeps the thin SVD, has fewer than K singular values or a
    smallest one not above RANK_RTOL times the largest.  The outcomes are
    Hermitian and sum to the identity because pom checked them when it was
    made, so C is real up to roundoff and its columns sum to zero; neither is
    checked again here.
    """
    if pom.dim != basis.dim:
        raise DimensionMismatchError(f"pom dimension {pom.dim} != basis dimension {basis.dim}")
    c_matrix = _read_only(np.einsum("mij,kji->mk", pom.outcomes, basis.traceless_ops).real)
    p_bar = _read_only(pom.traces / pom.dim)
    if p_bar.min() <= 0:
        j = int(p_bar.argmin())
        raise PomValidationError(f"outcome {j} has non-positive trace")
    root = np.sqrt(p_bar)[:, None]
    u, sigma, _ = np.linalg.svd(c_matrix / root, full_matrices=False)
    complete = len(sigma) == c_matrix.shape[1]
    if not (complete and sigma[-1] > RANK_RTOL * sigma[0]):
        raise NotInformationallyCompleteError(
            f"Pbar^(-1/2) C is rank deficient: s_min {sigma[-1] if complete else 0.0:.3e} "
            f"is not above {RANK_RTOL:g} times s_max {sigma[0]:.3e}"
        )
    return TomographyMatrices(
        dim=pom.dim,
        c_matrix=c_matrix,
        p_bar=p_bar,
        outcomes=pom.outcomes,
        basis=basis,
        all_rank_one=bool(pom._eigenvalues[:, :-1].max() <= STRUCTURE_TOL),
        _factor=(_read_only(u / root), _read_only(sigma)),
    )


def probabilities(rho, pom: Pom) -> np.ndarray:
    """Born-rule outcome probabilities p_j = Tr(rho Pi_j); a bare array is
    validated as a DensityMatrix first, and a DensityMatrix is taken as is."""
    mat = _density_matrix(rho).matrix
    if mat.shape[0] != pom.dim:
        raise DimensionMismatchError(f"state dimension {mat.shape[0]} != pom dimension {pom.dim}")
    return np.einsum("ij,mji->m", mat, pom.outcomes).real


def _pure_state_born(vectors: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Born probabilities and Bloch coordinates (s, M + K) of the pure states
    v v^dag, one per row v of vectors (s, dim), given the model's born_table.

    One real (s, 2 dim**2) @ (2 dim**2, M + K) matmul: over the float64 views,
    Re sum_ij rho_ij conj(O)_ij = Tr(rho O) for every Hermitian operator O.
    """
    states = vectors[:, :, None] * vectors[:, None, :].conj()
    return states.reshape(len(vectors), -1).view(np.float64) @ table.T


def _require_above_floor(probs: np.ndarray) -> None:
    """Refuse outcome probabilities (..., M) with a cell at or below P_FLOOR,
    naming the outcome of the first such cell in row-major order."""
    low = np.argwhere(probs <= P_FLOOR)
    if low.size:
        cell = tuple(low[0])
        j = int(cell[-1])
        raise ZeroProbabilityError(
            f"outcome {j} has probability {probs[cell]:.3e} at or below the floor {P_FLOOR}",
            index=j,
        )


def _qr_trace_inverse(c_matrix: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Tr(F^{-1}) = ||R^{-1}||_F**2 for every row p of probs (n, M), with R from the
    Householder QR of diag(p)^{-1/2} C, its rows sorted by decreasing norm.

    Refuses a row with a probability that is not positive or an R that is singular.
    """
    if probs.min() > 0:  # False for a NaN row
        scaled = c_matrix / np.sqrt(probs)[:, :, None]
        order = np.argsort(-np.einsum("smk,smk->sm", scaled, scaled), axis=1)
        r = np.linalg.qr(np.take_along_axis(scaled, order[:, :, None], axis=1), mode="r")
        pivots = np.abs(np.diagonal(r, axis1=1, axis2=2))
        if r.shape[1] == r.shape[2] and pivots.min() > 0:
            inverse = np.linalg.inv(r)
            traces = np.einsum("sjk,sjk->s", inverse, inverse)
            if np.isfinite(traces).all():
                return traces
    raise NotInformationallyCompleteError(
        "Fisher matrix is not positive definite; Tr(F^{-1}) does not exist"
    )


def accuracy(rho, pom: Pom, basis: HermitianBasis) -> float:
    """Optimal scaled estimation error Tr(F(rho)^{-1}) at a single state; refuses
    an incomplete measurement (measurement_matrices) and an outcome probability
    at or below P_FLOOR."""
    rho = _density_matrix(rho)
    model = measurement_matrices(pom, basis)
    probs = probabilities(rho, pom)
    _require_above_floor(probs)
    return float(model.trace_inverse(probs[None])[0])
