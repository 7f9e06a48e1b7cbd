"""Measurement matrices, Born probabilities, and the scaled Fisher information.

For outcome operators Pi_j and basis operators B_k, the matrix C holds
C_{jk} = Tr(Pi_j B_k) over the traceless operators; C-tilde prepends the
column Tr(Pi_j)/sqrt(dim) for the identity component.  At a state with
outcome probabilities p the scaled Fisher matrix of the multinomial model is
F = C^T diag(p)^{-1} C, and Tr(F^{-1}) is the optimal (Cramer-Rao) scaled
mean squared Hilbert-Schmidt error of unbiased estimation.  F sums the outer
products c_m c_m^T of the rows of C: fisher() reads all K**2 of them batch-first
for the LAPACK solves, the trace-inverse kernel reads TomographyMatrices.
outer_table, their lower triangle j <= i packed row by row, since its Cholesky
reads nothing else.  It works one block of rows at a time, in a packed Fisher
buffer and a (K, K, block) buffer of L^{-1} that its caller allocates once and
every block reuses (fresh ones cost it 10 %): trace_inverse allocates them per
call, Monte Carlo per run, and both walk their blocks through the one
per-block step, so Monte Carlo forms each Born row and 1/p for one block only.
TomographyMatrices.trace_inverse is the one evaluation of Tr(F^{-1}): accuracy,
the MSE experiments and Monte Carlo all call it, and it alone decides about a
vanishing probability.  Tr(F^{-1}) is analytic where an outcome never clicks,
so there is no floor on p: a row the Cholesky pass cannot resolve, such as one
with a zero, is solved again as an augmented system that needs no p > 0.  The
step runs in the dtype of its buffers.  trace_inverse, and so accuracy and the
MSE experiments, run it at float64.  Monte Carlo from dim 4 on runs it at
float32, from a float32 copy of outer_table, where it halves the bytes each
step moves; there it leaves NaN every row it would rescue, those whose
estimated roundoff passes REDUCED_RTOL, and the caller evaluates them again
at float64 (transfer.qttf_monte_carlo).  The expansion at the maximally
mixed state reads one thin SVD of Pbar^{-1/2} C.
measurement_matrices takes that SVD and refuses a measurement that is not
informationally complete, so every TomographyMatrices is complete and no
reader checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotInformationallyCompleteError,
    PomValidationError,
)
from .operators import HermitianBasis, _density_matrix, _gell_mann, _triple_traces
from .pom import Pom

RANK_RTOL = 1e-6  # smallest singular value of Pbar^{-1/2} C accepted, relative to the largest
STRUCTURE_TOL = 1e-8  # absolute deviation accepted in a structure check of the outcomes
CHOLESKY_RTOL = 1e-10  # relative roundoff accepted from the Cholesky kernel
# relative roundoff accepted from the kernel's float32 level; a row past it is
# left NaN there, for its caller to evaluate again at float64
REDUCED_RTOL = 1e-3
CHOLESKY_BLOCK = 512  # Fisher matrices assembled, factored and inverted in one batch-last pass


@dataclass(frozen=True)
class TomographyMatrices:
    """The per-measurement model: everything derived from a measurement alone,
    each quantity computed once per instance.  The basis is that of the
    measurement's dimension, so the model holds no basis of its own: it reads
    the Gell-Mann stack and the triple traces of its dim (operators._gell_mann,
    operators._triple_traces), tables shared by every model of that dim.

    Set by measurement_matrices:

    * c_matrix, M x K with K = dim**2 - 1: C_jk = Tr(Pi_j B_k) over the
      traceless basis operators;
    * p_bar: the outcome probabilities at the maximally mixed state;
    * outcomes: the outcome operators C was built from;
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
    * born_table, from which born() gives the Born rows of Haar states, and
      the outer products c_m c_m^T of the rows of C, for the weighted designs
      and Fisher matrices that fisher() assembles; outer_table, their lower
      triangle packed (M, K (K+1) / 2), is the one that trace_inverse()
      assembles;
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
    products of outcome operators: F2 holds O(M**2), and F3 O(M**2 + K**3)
    for the cubic form alone, since it reads the triple traces as a sparse
    table of about 5 dim**3 entries.

    The expansion needs an informationally complete measurement, and
    measurement_matrices builds no model of any other, so every instance is one.
    """

    dim: int
    c_matrix: np.ndarray
    p_bar: np.ndarray
    outcomes: np.ndarray
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
        real (M + K, 2 dim**2) matrix of their float64 views (born)."""
        operators = np.concatenate([self.outcomes, _gell_mann(self.dim)])
        table = operators.reshape(len(operators), self.dim * self.dim).view(np.float64)
        return _read_only(table)

    def born(self, vectors: np.ndarray, weight: float) -> tuple[np.ndarray, np.ndarray]:
        """Born probabilities (s, M) and Bloch coordinates (s, K) of the states
        rho = w v v^dag + (1 - w) identity/dim, one per row v of vectors (s, dim).

        One real (s, 2 dim**2) @ (2 dim**2, M + K) matmul against born_table
        gives the rows [p_pure | t_pure] of the pure states: over the float64
        views, Re sum_ij rho_ij conj(O)_ij = Tr(rho O) for every Hermitian
        operator O.  They are mixed in place, to p = w p_pure + (1 - w) pbar
        and t = w t_pure, which at w = 1.0 are p_pure and t_pure exactly, and
        returned as the two column blocks of that one (s, M + K) array.
        """
        states = vectors[:, :, None] * vectors[:, None, :].conj()
        rows = states.reshape(len(vectors), -1).view(np.float64) @ self.born_table.T
        # freed before the strided add below takes its transient buffers, which
        # would otherwise raise a Monte Carlo run's traced peak (192 KiB at dim 5, M = 50)
        del states
        m = self.n_outcomes
        rows *= weight
        # Tr(identity Pi_m) / dim = pbar_m and Tr(identity B_k) = 0
        rows[:, :m] += (1.0 - weight) * self.p_bar
        return rows[:, :m], rows[:, m:]

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

        The rows go in blocks of CHOLESKY_BLOCK, each through one step
        (_block_trace_inverse): its input check, its assembly, its
        factor-and-invert loop and its rescue, so 1/p is formed for one block at
        a time.  A block's Fisher matrices A are one matmul of outer_table
        against 1/p, which writes their lower triangles batch-last into the
        packed (K (K+1) / 2, s) buffer, row i of A up to its diagonal
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
        the dense steps.  The packed buffer and Z's (K, K, block) buffer are
        allocated once per call (_kernel_buffers) and serve every block, as they
        do every block of a Monte Carlo run, which walks its own blocks through
        the same step; Z's upper triangle is never written, so it stays zero
        with no fill per block.  The per-step vectors are
        the einsums' own outputs, which measured faster than writing into reused
        buffers.  A pivot that is not positive leaves its row NaN.

        The kernel's relative error grows like eps kappa(F), and kappa(F) lies
        within a factor K of Tr(F^{-1}) max_i F_ii either way; on pure states of
        rank-one measurements at dim = 2..5 the error stayed under 1.2 eps
        Tr(F^{-1}) max_i F_ii.  A row whose estimate eps Tr(F^{-1}) max_i F_ii
        exceeds CHOLESKY_RTOL, or is NaN, as it is where an outcome's
        probability vanishes, is evaluated again from the augmented system

            [[alpha P, C], [C^T, 0]] [X; Y] = [0; I],   P = diag(p),

        whose solution has Y = -alpha F^{-1}, so Tr(F^{-1}) = -Tr(Y) / alpha
        (_augmented_trace_inverse).  The system needs no p > 0: Tr(F^{-1}) is
        analytic where an outcome's probability vanishes, and the system stays
        invertible there, so such a row gets its limit value.  At p = pbar the
        system is a diagonal scaling of [[alpha I, S], [S^T, 0]], S =
        Pbar^{-1/2} C, whose condition number alpha = sigma_min(S) / sqrt(2)
        minimises (Bjorck, Numerical Methods for Least Squares Problems, SIAM
        1996); that alpha is read from the model's factor of S.  With alpha = 1
        the error against 50-digit values was three orders of magnitude larger
        on a member with kappa(C) = 1.6e4.

        The one refusal, a ValueError naming the row, is of a row that cannot be
        evaluated: one with a negative or non-finite probability, or one whose
        augmented system is singular.  That happens exactly when the rows of C
        of its zero-probability outcomes are linearly dependent, as for an
        all-zero row, or for an outcome split in two (pom.duplicate_outcome)
        where it never clicks; the rows are tested by the model's rank test
        (RANK_RTOL), since LU with partial pivoting need not meet an exact zero
        pivot in a singular matrix and would return a wrong value instead.  It
        comes from the first block that holds such a row.

        trace_inverse runs every step at float64, so accuracy and
        mse_experiment's predicted value are float64 values.  The step has a
        second level, float32, which only Monte Carlo takes, from dim 4 on
        (transfer.qttf_monte_carlo): the same assembly, from a float32 copy of
        outer_table, and the same loop in float32 buffers, with the rescue test
        eps32 Tr(F^{-1}) max_i F_ii against REDUCED_RTOL.  A row past it, or
        NaN, is not rescued there but left NaN, and the caller evaluates it
        again at float64, its augmented rescue included.  On 4000 pure states
        of each of 24 / 12 random rank-one measurements with 2 dim**2 outcomes
        at dim 4 / 5, 0.7 % / 1.5 % of the rows were flagged, and the others
        were within 9.6e-5 / 5.3e-5 relative of float64 (median 3e-7).
        """
        return self._trace_inverse(probs, np.arange(probs.shape[0]))

    def _trace_inverse(self, probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """trace_inverse, at float64; rows are the indices of the rows of probs
        in the caller's input, which a refusal names."""
        n = probs.shape[0]
        buffers = self._kernel_buffers(min(CHOLESKY_BLOCK, n), np.float64)
        traces = np.empty(n)
        for start in range(0, n, CHOLESKY_BLOCK):
            block = slice(start, start + CHOLESKY_BLOCK)
            traces[block] = self._block_trace_inverse(probs[block], rows[block], buffers)
        return traces

    def _kernel_buffers(self, block: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
        """The packed Fisher (K (K+1) / 2, block) and Z (K, K, block) buffers of
        _block_trace_inverse, for blocks of up to block rows, in dtype, float64
        or float32, which sets the precision of every step that runs in them.
        Z is zeroed here once: the kernel never writes its upper triangle, so
        every block that reuses it finds that triangle zero."""
        k = self.c_matrix.shape[1]
        return np.empty((k * (k + 1) // 2, block), dtype), np.zeros((k, k, block), dtype)

    @cached_property
    def _outer_table_single(self) -> np.ndarray:
        """outer_table rounded to float32, which the kernel's float32 level assembles."""
        return _read_only(self.outer_table.astype(np.float32))

    def _block_trace_inverse(
        self, probs: np.ndarray, rows: np.ndarray, buffers: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Tr(F^{-1}) for the s rows of probs (s, M), s at most the block of
        buffers (_kernel_buffers): the input check, the assembly, the
        factor-and-invert loop and the rescue of trace_inverse for one block.
        rows are the rows' indices in the caller's input, which a refusal names.

        The assembly, the loop and the rescue test run in the buffers' dtype.
        At float64 a flagged row is solved again by the augmented system; at
        float32 it is flagged past REDUCED_RTOL instead of CHOLESKY_RTOL, with
        float32's eps, and left NaN for the caller to evaluate at float64
        (transfer.qttf_monte_carlo)."""
        # two whole-array reductions; a per-row test (axis=1) took 45 % of the
        # kernel's time on a 2000-row block at dim = 2
        if probs.size and not (probs.min() >= 0 and probs.max() < np.inf):
            invalid = np.flatnonzero(~((probs >= 0) & (probs < np.inf)).all(axis=1))
            raise ValueError(
                f"Tr(F^-1) cannot be evaluated at row {rows[invalid[0]]}: "
                f"a probability is negative or not finite"
            )
        s, k = probs.shape[0], self.c_matrix.shape[1]
        dtype = buffers[0].dtype
        single = dtype == np.float32
        table = self._outer_table_single if single else self.outer_table
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.matmul(table.T, np.divide(1.0, probs.T, dtype=dtype), out=buffers[0][:, :s])
            z = buffers[1][:, :, :s]
            z[0, 0] = 1.0 / np.sqrt(a[0])
            for i in range(1, k):
                row = a[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]  # A[i, :i + 1]
                h = i // 2 if i * i * s >= 1 << 17 else 0
                if h:
                    lower = np.empty((i, s), dtype)
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
            traces = np.einsum("jks,jks->s", z, z)
            estimates = np.max(a[_packed_layout(k)[2]], axis=0)
            estimates *= traces
            tolerance = REDUCED_RTOL if single else CHOLESKY_RTOL
            rescue = np.flatnonzero(~(np.finfo(dtype).eps * estimates <= tolerance))
        if single:
            traces[rescue] = np.nan
        elif rescue.size:
            traces[rescue] = self._augmented_trace_inverse(probs[rescue], rows[rescue])
        return traces

    def _augmented_trace_inverse(self, probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Tr(F^{-1}) = -Tr(Y) / alpha for every row p of probs (n, M), from one
        batched solve of [[alpha diag(p), C], [C^T, 0]] [X; Y] = [0; I]; rows
        are the rows' indices in trace_inverse's input, which a refusal names."""
        c_matrix = self.c_matrix
        m, k = c_matrix.shape
        for row in np.flatnonzero(probs.min(axis=1) == 0):
            zeros = c_matrix[probs[row] == 0]
            sigma = np.linalg.svd(zeros, compute_uv=False)
            if not (len(sigma) == len(zeros) and sigma[-1] > RANK_RTOL * sigma[0]):
                raise ValueError(
                    f"Tr(F^-1) cannot be evaluated at row {rows[row]}: the rows of C "
                    f"of its {len(zeros)} zero-probability outcomes are linearly "
                    f"dependent, so its augmented system is singular"
                )
        alpha = self._factor[1][-1] / np.sqrt(2)
        system = np.zeros((len(probs), m + k, m + k))
        system[:, :m, m:] = c_matrix
        system[:, m:, :m] = c_matrix.T
        system[:, range(m), range(m)] = alpha * probs
        solution = np.linalg.solve(system, np.eye(m + k, k, -m))
        return -np.trace(solution[:, m:], axis1=1, axis2=2) / alpha

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
        # one gather of the cubic form at the nonzero triple traces; those are
        # symmetric in all three indices, so their layout need not match the
        # cubic form's, and no K**3 product is formed
        indices, values = _triple_traces(self.dim)
        contraction = float(self.cubic_form.ravel()[indices] @ values)
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
        all_rank_one=bool(pom._eigenvalues[:, :-1].max() <= STRUCTURE_TOL),
        _factor=(_read_only(u / root), _read_only(sigma)),
    )


def probabilities(rho, pom: Pom) -> np.ndarray:
    """Born-rule outcome probabilities p_j = Tr(rho Pi_j); a bare array is
    validated as a DensityMatrix first, and a DensityMatrix is taken as is.
    A probability that roundoff takes below zero, as at a null vector of an
    outcome, is returned as 0."""
    mat = _density_matrix(rho).matrix
    if mat.shape[0] != pom.dim:
        raise DimensionMismatchError(f"state dimension {mat.shape[0]} != pom dimension {pom.dim}")
    return np.maximum(np.einsum("ij,mji->m", mat, pom.outcomes).real, 0.0)


def accuracy(rho, pom: Pom, basis: HermitianBasis) -> float:
    """Optimal scaled estimation error Tr(F(rho)^{-1}) at a single state, from
    the model's one kernel (TomographyMatrices.trace_inverse), so also at a
    state where an outcome never clicks, where it is the limit value: D**2 - 1
    at a basis state of a complete set of mutually unbiased bases.  Refuses an
    incomplete measurement (measurement_matrices)."""
    rho = _density_matrix(rho)
    model = measurement_matrices(pom, basis)
    return float(model.trace_inverse(probabilities(rho, pom)[None])[0])
