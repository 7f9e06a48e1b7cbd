"""Haar-averaged transfer values: auxiliary identities, series, closed forms, MC."""

import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from helpers import (
    centered_moments_23,
    identity_rhs,
    oracle_series_terms,
    rank_one_overlap_moment,
)

from qttf import (
    BudgetExceededError,
    InvalidDimensionError,
    NotInformationallyCompleteError,
    NotMinimalBasesError,
    NotMinimallyCompleteError,
    Pom,
    UnsupportedOrderError,
    accuracy,
    build_basis,
    duplicate_outcome,
    haar_moment_term,
    haar_pure_state,
    haar_state_vectors,
    measurement_matrices,
    mub_povm,
    probabilities,
    qttf_auto,
    qttf_closed_minimal,
    qttf_closed_minimal_bases,
    qttf_monte_carlo,
    qttf_series,
    qubit_sic,
    random_pom,
    reference_values,
    sic_povm,
)
from qttf import transfer
from qttf.fisher import CHOLESKY_BLOCK, CHOLESKY_RTOL
from qttf.operators import rotated_mub_vectors
from qttf.transfer import (
    _closed_minimal_bases,
    _cubic_form,
    _monte_carlo,
    _quartic_bytes,
    _quartic_term,
)

BASIS2 = build_basis(2)
BASIS3 = build_basis(3)


def _aux_case(dim, m, rank, seed):
    pom = random_pom(dim, m, rank, rng=np.random.default_rng(seed))
    return pom, measurement_matrices(pom, build_basis(dim))


@pytest.mark.parametrize("dim,m,rank", [(2, 4, 1), (2, 7, 2), (3, 9, 1), (3, 14, 3)])
def test_auxiliary_identities(dim, m, rank):
    pom, aux = _aux_case(dim, m, rank, seed=dim * 100 + m)
    x, y = aux.x_matrix, aux.y_matrix
    p_bar = np.diag(aux.p_bar)
    assert np.linalg.eigvalsh((x + x.T) / 2)[0] > -1e-10
    assert np.linalg.eigvalsh(-(y + y.T) / 2)[0] > -1e-10
    np.testing.assert_allclose(x @ p_bar @ y, 0.0, atol=1e-9)
    np.testing.assert_allclose(y @ p_bar @ y, -y, atol=1e-9)
    c = measurement_matrices(pom, build_basis(dim)).c_matrix
    np.testing.assert_allclose(c.T @ y, 0.0, atol=1e-9)
    assert aux.alpha0 > 0


def _flattened_tetrahedron(delta):
    """The qubit SIC with the z components of its Bloch vectors scaled by delta:
    still a measurement, with Tr Fbar^{-1} - 1 + 1/2 = 2.5 + 1.5 / delta**2."""
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    bloch = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    bloch[:, 2] *= delta
    return Pom((np.eye(2) + np.einsum("mk,kij->mij", bloch, paulis)) / 4)


def test_expansion_matrices_are_exactly_symmetric():
    for pom in (random_pom(3, 18, 1, rng=23), random_pom(4, 16, 1, rng=40082), mub_povm(3)):
        aux = measurement_matrices(pom, build_basis(pom.dim))
        assert np.array_equal(aux.x_matrix, aux.x_matrix.T)
        assert np.array_equal(aux.y_matrix, aux.y_matrix.T)


def test_completeness_refusal_sits_at_rank_rtol_on_a_flattened_tetrahedron():
    # the smallest singular value of Pbar^{-1/2} C relative to the largest is
    # delta here, so RANK_RTOL = 1e-6 accepts 1.2e-6 and refuses 8e-7
    accepted = qttf_auto(_flattened_tetrahedron(1.2e-6), BASIS2)
    want = 2.5 + 1.5 / 1.2e-6**2
    assert accepted.method == "closed_minimal"
    assert abs(accepted.value - want) <= 1e-9 * want
    with pytest.raises(NotInformationallyCompleteError, match="s_min"):
        qttf_auto(_flattened_tetrahedron(8e-7), BASIS2)


def test_alpha0_matches_definition():
    pom, aux = _aux_case(2, 6, 1, seed=20)
    norm = np.linalg.norm(aux.y_matrix, ord=2)
    assert abs(aux.alpha0 - 1.0 / (norm * pom.traces.max())) < 1e-12


def test_tr_fbar_inv_equals_accuracy_at_maximally_mixed():
    pom, aux = _aux_case(3, 12, 2, seed=21)
    want = accuracy(np.eye(3) / 3, pom, BASIS3)
    assert abs(aux.tr_fbar_inv - want) < 1e-10


def test_minimal_measurement_has_all_minus_one_y():
    # any informationally complete measurement with dim**2 outcomes
    for pom in (qubit_sic(), sic_povm(3), random_pom(2, 4, 2, rng=22)):
        aux = measurement_matrices(pom, build_basis(pom.dim))
        np.testing.assert_allclose(aux.y_matrix, -1.0, atol=1e-9)


def test_mub_y_matrix_is_block_constant():
    for dim in (2, 3):
        aux = measurement_matrices(mub_povm(dim), build_basis(dim))
        want = np.kron(np.eye(dim + 1), -(dim + 1.0) * np.ones((dim, dim)))
        np.testing.assert_allclose(aux.y_matrix, want, atol=1e-8)


def test_auxiliary_rejects_incomplete_measurement():
    # transfer.auxiliary_matrices is measurement_matrices under the name that
    # bench/tracing.py hooks, and refuses as it does
    trivial = Pom(np.eye(2)[None], label="trivial")
    with pytest.raises(NotInformationallyCompleteError, match="s_min"):
        transfer.auxiliary_matrices(trivial, BASIS2)


def test_reference_values_table():
    ref2 = reference_values(2)
    assert abs(ref2.sic - 4.0) < 1e-14
    assert abs(ref2.mub - 3.0) < 1e-14
    assert abs(ref2.zeroth_bound - 4.5) < 1e-14
    assert abs(ref2.covariant - 2.0) < 1e-14
    assert abs(ref2.limit_rel_error - 0.5) < 1e-14
    ref3 = reference_values(3)
    assert abs(ref3.sic - 10.0) < 1e-14
    assert abs(ref3.mub - 8.0) < 1e-14
    assert abs(ref3.zeroth_bound - 32.0 / 3.0) < 1e-14
    assert abs(ref3.covariant - 4.0) < 1e-14
    assert set(asdict(ref3)) == {
        "dim",
        "sic",
        "mub",
        "zeroth_bound",
        "covariant",
        "limit_rel_error",
    }


@pytest.mark.parametrize("dim", ["3", None, 3.0, True, 1])
def test_reference_values_refuse_what_the_dimension_check_refuses(dim):
    # the check that build_basis and sic_povm use: a string or None no longer
    # leaks a TypeError, and a float is refused like everywhere else
    with pytest.raises(InvalidDimensionError, match="dimension must be"):
        reference_values(dim)
    assert reference_values(np.int64(3)).dim == 3


@pytest.mark.parametrize(
    ("dim", "m", "rank", "seed"),
    [(2, 5, 1, 32), (2, 5, 2, 31), (3, 10, 1, 8), (3, 10, 2, 9), (3, 10, 3, 10)],
)
def test_series_terms_match_moment_oracle(dim, m, rank, seed):
    pom = random_pom(dim, m, rank, rng=np.random.default_rng(seed))
    basis = build_basis(dim)
    lib = tuple(haar_moment_term(pom, basis, k) for k in (2, 3, 4))
    oracle = oracle_series_terms(pom, basis)
    if dim == 3:
        assert abs(lib[1]) > 1e-3  # this draw exercises the odd-order path
    np.testing.assert_allclose(lib, oracle, atol=1e-9)
    # chunks of three d-values, so the last chunk is short
    chunked = haar_moment_term(pom, basis, 4, memory_budget=_quartic_bytes(m, dim, 3))
    np.testing.assert_allclose(chunked, oracle[2], atol=1e-9)


def test_series_term_anchors():
    sic, mub = qubit_sic(), mub_povm(2)
    assert abs(haar_moment_term(sic, build_basis(sic.dim), 2) + 0.5) < 1e-12
    assert abs(haar_moment_term(sic, build_basis(sic.dim), 3)) < 1e-10
    assert abs(haar_moment_term(sic, build_basis(sic.dim), 4)) < 1e-10
    assert abs(haar_moment_term(mub, build_basis(mub.dim), 2) + 1.5) < 1e-12


def test_second_order_term_is_never_positive():
    rng = np.random.default_rng(33)
    for _ in range(30):
        dim = int(rng.integers(2, 4))
        m = int(rng.integers(dim * dim, 3 * dim * dim))
        pom = random_pom(dim, m, int(rng.integers(1, dim + 1)), rng=rng)
        assert haar_moment_term(pom, build_basis(pom.dim), 2) <= 1e-12


def test_moment_term_rejects_bad_order():
    with pytest.raises(UnsupportedOrderError):
        haar_moment_term(qubit_sic(), BASIS2, 5)


def test_series_contributions_are_additive_per_order():
    pom = random_pom(2, 6, 1, rng=np.random.default_rng(34))
    terms = [haar_moment_term(pom, BASIS2, k) for k in (2, 3, 4)]
    values = {}
    for order in (0, 1, 2, 3, 4):
        est = qttf_series(pom, BASIS2, alpha=1.0, max_order=order)
        assert abs(est.value - sum(est.params["contributions"])) < 1e-12
        values[order] = est.value
    # at alpha = 1 the order-k increment recovers the raw moment term
    assert abs(values[1] - values[0]) < 1e-12  # first-order term vanishes on average
    assert abs(values[2] - values[1] - terms[0]) < 1e-10
    assert abs(values[3] - values[2] - terms[1]) < 1e-10
    assert abs(values[4] - values[3] - terms[2]) < 1e-10


def test_series_matches_exact_identity_average():
    # the alpha-resolvent identity is exact at every state; build the same
    # average by brute force over a fixed sample and let orders approach it
    pom = random_pom(2, 6, 1, rng=np.random.default_rng(35))
    aux = measurement_matrices(pom, BASIS2)
    alpha = 0.9 * aux.alpha0
    vecs = haar_state_vectors(2, 6000, np.random.default_rng(36))
    probs = np.einsum("si,mij,sj->sm", vecs.conj(), pom.outcomes, vecs).real
    exact = np.array([identity_rhs(pom, BASIS2, p, alpha) for p in probs])
    truncated = np.array([identity_rhs(pom, BASIS2, p, alpha, max_order=4) for p in probs])
    est = qttf_series(pom, BASIS2, alpha=alpha, max_order=4)
    stderr = truncated.std(ddof=1) / np.sqrt(truncated.size)
    assert abs(est.value - truncated.mean()) < 4 * stderr
    # alpha0 is a conservative radius: truncation at order 4 still carries a
    # visible residual, but it stays a fraction of the exact average
    assert abs(truncated.mean() - exact.mean()) < 0.2 * abs(exact.mean())


def test_series_records_alpha_against_convergence_radius():
    pom = random_pom(2, 6, 1, rng=np.random.default_rng(37))
    aux = measurement_matrices(pom, BASIS2)
    for alpha in (aux.alpha0 * 1.01, aux.alpha0 * 0.5):
        params = qttf_series(pom, BASIS2, alpha=alpha, max_order=2).params
        assert params["alpha"] == alpha
        assert params["alpha0"] == aux.alpha0


def test_series_beyond_convergence_radius_is_silent():
    # the physical average alpha = 1 lies beyond alpha0 here; the record says
    # so through params, and nothing is warned
    pom = random_pom(2, 6, 1, rng=np.random.default_rng(37))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = qttf_series(pom, BASIS2, max_order=4)
    assert estimate.params["alpha"] == 1.0
    assert estimate.params["alpha"] > estimate.params["alpha0"]


def test_series_rejects_bad_order():
    with pytest.raises(UnsupportedOrderError):
        qttf_series(qubit_sic(), BASIS2, max_order=5)


def test_series_rejects_a_boolean_order_and_a_non_finite_alpha():
    # True is an int to isinstance, and an infinite alpha used to fail only
    # when the result came out as -inf
    with pytest.raises(UnsupportedOrderError) as order_error:
        qttf_series(qubit_sic(), BASIS2, max_order=True)
    assert str(order_error.value) == "max_order must be an integer in [0, 4], got True"
    with pytest.raises(ValueError) as alpha_error:
        qttf_series(qubit_sic(), BASIS2, alpha=float("inf"))
    assert str(alpha_error.value) == "alpha must be finite, got inf"


def test_closed_minimal_anchors():
    assert abs(qttf_closed_minimal(qubit_sic(), BASIS2).value - 4.0) < 1e-12
    assert abs(qttf_closed_minimal(sic_povm(3), BASIS3).value - 10.0) < 1e-12
    estimate = qttf_closed_minimal(qubit_sic(), BASIS2)
    assert estimate.method == "closed_minimal"
    assert estimate.std_error == 0.0


def test_closed_minimal_on_generic_four_outcome_measurement():
    pom = random_pom(2, 4, 2, rng=np.random.default_rng(38))
    closed = qttf_closed_minimal(pom, BASIS2)
    series = qttf_series(pom, BASIS2, alpha=1.0, max_order=2)
    assert abs(closed.value - series.value) < 1e-9
    mc = qttf_monte_carlo(pom, BASIS2, 20000, np.random.default_rng(39))
    assert abs(closed.value - mc.value) < 4 * mc.std_error + 1e-9


def test_closed_minimal_rejects_wrong_outcome_count():
    with pytest.raises(NotMinimallyCompleteError):
        qttf_closed_minimal(mub_povm(2), BASIS2)


def test_closed_minimal_bases_anchors():
    assert abs(qttf_closed_minimal_bases(mub_povm(2), BASIS2).value - 3.0) < 1e-12
    assert abs(qttf_closed_minimal_bases(mub_povm(3), BASIS3).value - 8.0) < 1e-12
    # the tabulated sets at dim 4 and 5 against D**2 - 1, an oracle for the
    # table that does not go through the Monte Carlo sampler
    for dim in (4, 5):
        value = qttf_closed_minimal_bases(mub_povm(dim), build_basis(dim)).value
        assert abs(value - reference_values(dim).mub) < 1e-12
    estimate = qttf_closed_minimal_bases(mub_povm(3), BASIS3)
    assert estimate.method == "closed_minimal_bases"


def test_closed_minimal_bases_equals_series_order_two():
    for dim in (2, 3):
        basis = build_basis(dim)
        closed = qttf_closed_minimal_bases(mub_povm(dim), basis)
        series = qttf_series(mub_povm(dim), basis, alpha=1.0, max_order=2)
        assert abs(closed.value - series.value) < 1e-9


@pytest.mark.parametrize("dim", [2, 3])
def test_bases_closed_form_finds_bases_in_permuted_outcomes(dim):
    # the bases are read from Y, so listing the outcomes out of basis order
    # keeps the exact closed form instead of falling back to the series
    pom = mub_povm(dim)
    permuted = Pom(pom.outcomes[np.random.default_rng(1).permutation(pom.n_outcomes)])
    estimate = qttf_auto(permuted, build_basis(dim))
    assert estimate.method == "closed_minimal_bases"
    assert abs(estimate.value - (dim * dim - 1)) <= 1e-12


@pytest.mark.parametrize(
    "dim, seed, structure",
    [
        (4, 40082, "closed_minimal"),
        (3, 65, "closed_minimal_bases"),
        (3, 292, "closed_minimal_bases"),
        (5, 36, "closed_minimal_bases"),
    ],
)
def test_closed_forms_hold_on_ill_conditioned_measurements(dim, seed, structure):
    # kappa(C) of order 1e4: the computed Y misses its exact form through
    # roundoff (by up to 4.4e-12 from the SVD of Pbar^{-1/2} C), while the
    # outcome operators have the structure exactly, so the closed form applies
    basis = build_basis(dim)
    if structure == "closed_minimal":
        pom = random_pom(dim, dim * dim, 1, seed)
    else:
        rng = np.random.default_rng(seed)
        bases = _random_bases_pom(dim, rng)
        pom = Pom(bases.outcomes[rng.permutation(bases.n_outcomes)])
    estimate = qttf_auto(pom, basis)
    assert estimate.method == structure
    series = qttf_series(pom, basis, max_order=4).value
    assert abs(estimate.value - series) <= 1e-8 * series


@pytest.mark.parametrize(
    "dim, seed, tol", [(4, 40082, 1e-6), (2, 7, 1e-10), (3, 65, 1e-10), (5, 36, 1e-10)]
)
def test_minimal_measurements_have_exact_expansion_means(dim, seed, tol):
    # Y is the all-(-1) matrix for M = dim**2, so F2 = -(dim-1)/dim and F3 = 0
    # exactly; kappa(C) is 1.6e4 at (4, 40082) and 150 to 210 on the others
    model = measurement_matrices(random_pom(dim, dim * dim, 1, rng=seed), build_basis(dim))
    assert abs(model.f2 + (dim - 1) / dim) <= tol
    assert abs(model.f3) <= 1e-10


def test_auto_refuses_incomplete_measurements_with_structured_counts():
    # dim**2 and dim (dim + 1) rank-one outcomes that see no coherences
    z_basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for copies in (2, 3):
        pom = Pom(np.array(z_basis * copies) / copies)
        with pytest.raises(NotInformationallyCompleteError, match="s_min"):
            qttf_auto(pom, BASIS2)


def test_closed_minimal_bases_rejects_unstructured_input():
    with pytest.raises(NotMinimalBasesError):
        qttf_closed_minimal_bases(qubit_sic(), BASIS2)
    # rank-one, informationally complete, dim (dim + 1) outcomes, no bases
    for dim in (2, 3):
        pom = random_pom(dim, dim * (dim + 1), 1, rng=np.random.default_rng(40))
        with pytest.raises(NotMinimalBasesError):
            qttf_closed_minimal_bases(pom, build_basis(dim))
    # three qubit bases, but weighted 0.5, 0.3, 0.2 instead of 1/3 each
    mub = mub_povm(2)
    unequal = Pom(mub.outcomes * np.repeat([1.5, 0.9, 0.6], 2)[:, None, None])
    with pytest.raises(NotMinimalBasesError, match="do not sum"):
        qttf_closed_minimal_bases(unequal, BASIS2)


def test_monte_carlo_zero_variance_on_qubit_sic():
    # the trace of the inverse Fisher matrix is pointwise constant here, so
    # the estimate is exact and must not trip any tail heuristics
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = qttf_monte_carlo(qubit_sic(), BASIS2, 2000, np.random.default_rng(41))
    assert abs(est.value - 4.0) < 1e-9
    assert est.std_error < 1e-12
    assert est.params["kurtosis"] == 0.0
    assert est.params["variance_reduction"] == 1.0


def test_monte_carlo_determinism_and_params():
    pom = random_pom(2, 6, 1, rng=np.random.default_rng(42))
    a = qttf_monte_carlo(pom, BASIS2, 3000, rng=77)
    b = qttf_monte_carlo(pom, BASIS2, 3000, rng=77)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.method == "monte_carlo"
    assert a.params["seed"] == 77
    assert a.params["n_samples"] == 3000
    c = qttf_monte_carlo(pom, BASIS2, 3000, rng=78)
    assert c.value != a.value


def test_monte_carlo_agrees_with_accuracy_average():
    pom = random_pom(2, 8, 1, rng=np.random.default_rng(43))
    est = qttf_monte_carlo(pom, BASIS2, 20000, np.random.default_rng(44))
    rng = np.random.default_rng(45)
    direct = np.array(
        [accuracy(haar_pure_state(2, rng), pom, BASIS2) for _ in range(4000)]
    )
    stderr = np.hypot(est.std_error, direct.std(ddof=1) / np.sqrt(direct.size))
    assert abs(est.value - direct.mean()) < 4 * stderr


SAME_STREAM_CASES = (
    (2, 6, 1, 60), (2, 20, 2, 61), (3, 11, 2, 62), (3, 45, 1, 63), (4, 18, 1, 64), (4, 80, 2, 65)
)


@pytest.mark.parametrize(
    "dim, m, rank, seed, n",
    [pytest.param(*case, 300, id="-".join(map(str, case))) for case in SAME_STREAM_CASES]
    # a short run draws exactly its n states too
    + [pytest.param(*case, 40, id="-".join(map(str, case)) + "-n40") for case in SAME_STREAM_CASES]
    # the fewest states that take the rotated bases at dim 3 and 4: 30 groups
    + [
        pytest.param(*case, 30 * case[0] * (case[0] + 1), id="-".join(map(str, case)) + "-design")
        for case in SAME_STREAM_CASES
        if case[0] > 2
    ]
    # below the fewest states the fit runs from, q + 3: the plain mean
    + [
        pytest.param(*case, 10 if case[2] == 1 else 5, id="-".join(map(str, case)) + "-unfitted")
        for case in SAME_STREAM_CASES
    ],
)
def test_monte_carlo_equals_accuracy_average_on_the_same_stream(dim, m, rank, seed, n):
    # the first batch is exactly haar_state_vectors(dim, n, rng), or at dim > 2
    # from n = 30 dim (dim+1) on rotated_mub_vectors(dim, n, rng), so replaying
    # that stream through Tr(F^{-1}) from eigenvalues, with the three
    # control variates built in outcome space (the first three expansion terms
    # Tr(X D), Tr(X D Y D) and Tr(X D Y D Y D) minus their exact Haar means,
    # taken from the centered-moment oracle rather than the library) and
    # fitted by least squares, must give the same estimate up to summation
    # order.  Rank-one outcomes add five controls in x_m = p_m / Tr Pi_m,
    # centred by the quadrature moments of its Beta(1, dim-1) law.  The bar of
    # independent states is the residual variance with one degree of freedom
    # per control and one for the intercept, inflated by the loss factor
    # (n - 2) / (n - q - 2) of q fitted coefficients; that of rotated bases is
    # the cluster-robust (CR1) variance of the residual sums of the G groups of
    # S = dim (dim+1) consecutive states, with the same loss factor.  A run too
    # short to fit its controls is the plain mean with the standard error of
    # the mean.  Every bar adds params["roundoff"] in quadrature.
    basis = build_basis(dim)
    pom = random_pom(dim, m, rank, rng=np.random.default_rng(seed))
    est = qttf_monte_carlo(pom, basis, n, rng=seed)
    aux = measurement_matrices(pom, basis)
    x, y = aux.x_matrix, aux.y_matrix
    centered2, centered3 = centered_moments_23(pom)
    f2 = np.einsum("ab,ba,ab->", x, y, centered2)
    f3 = np.einsum("ab,bc,ca,abc->", x, y, y, centered3)
    size = dim * (dim + 1)
    design = size if dim > 2 and n >= 30 * size else 1
    assert (est.params["design"], est.params["groups"]) == (design, -(-n // design))
    draw = rotated_mub_vectors if design > 1 else haar_state_vectors
    vectors = draw(dim, n, np.random.default_rng(seed))
    states = [np.outer(v, v.conj()) for v in vectors]
    probs = np.array([probabilities(rho, pom) for rho in states])
    c = aux.c_matrix
    values = np.array([np.sum(1.0 / np.linalg.eigvalsh(c.T @ np.diag(1.0 / p) @ c)) for p in probs])
    deltas = probs - aux.p_bar
    dx = deltas[:, :, None] * x  # D X per sample
    dy = deltas[:, :, None] * y  # D Y per sample
    columns = [
        deltas @ np.diag(x),
        np.einsum("sa,ab,sb->s", deltas, x * y, deltas) - f2,
        # Tr(X D Y D Y D) = Tr(D X D Y D Y)
        np.einsum("sab,sba->s", dx @ dy, dy) - f3,
    ]
    if rank == 1:
        overlaps = probs / np.trace(pom.outcomes, axis1=1, axis2=2).real
        half = rank_one_overlap_moment(dim, 0.5)
        three_halves = rank_one_overlap_moment(dim, 1.5)
        columns += [
            np.sqrt(overlaps).sum(axis=1) - m * half,
            np.sqrt(overlaps) @ np.diag(x) - np.trace(x) * half,
            overlaps**1.5 @ np.diag(x) - np.trace(x) * three_halves,
            overlaps**2 @ np.diag(x) - np.trace(x) * rank_one_overlap_moment(dim, 2),
            overlaps**3 @ np.diag(x) - np.trace(x) * rank_one_overlap_moment(dim, 3),
        ]
    controls = np.column_stack(columns)
    q = controls.shape[1]
    assert q == (8 if rank == 1 else 3)
    centered = values - values.mean()
    if n < q + 3:
        assert est.params["controls"] == 0 and est.params["loss_factor"] == 1.0
        assert abs(est.value - values.mean()) <= 1e-12 * values.mean()
        bar = np.hypot(values.std(ddof=1) / np.sqrt(n), est.params["roundoff"])
        assert abs(est.std_error - bar) <= 1e-9 * bar
        want = np.mean(centered**4) / np.mean(centered**2) ** 2
        assert abs(est.params["kurtosis"] - want) <= 1e-9 * want
        return
    assert est.params["controls"] == q
    beta = np.linalg.lstsq(controls - controls.mean(axis=0), centered, rcond=None)[0]
    oracle = np.mean(values - controls @ beta)
    assert abs(est.value - oracle) <= 1e-12 * oracle
    residuals = centered - (controls - controls.mean(axis=0)) @ beta
    factor = (n - 2) / (n - q - 2)
    assert est.params["loss_factor"] == factor
    if design > 1:
        groups = -(-n // design)
        sums = np.array([residuals[g * design : (g + 1) * design].sum() for g in range(groups)])
        dof = groups / (groups - 1) * (n - 1) / (n - q - 1)
        bar = np.sqrt(factor * dof * np.sum(sums**2)) / n
    else:
        bar = np.sqrt(factor * np.sum(residuals**2) / ((n - q - 1) * n))
    bar = np.hypot(bar, est.params["roundoff"])
    assert abs(est.std_error - bar) <= 1e-9 * bar
    # both kurtoses from the fourth-moment formula m4 / m2**2, with pow
    for name, sample in (("kurtosis", centered), ("residual_kurtosis", residuals)):
        want = np.mean(sample**4) / np.mean(sample**2) ** 2
        assert abs(est.params[name] - want) <= 1e-9 * want


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_cubic_tails_give_the_cubic_form(dim):
    # sum_ijk T_ijk t_i t_j t_k from the upper tails of the symmetrised T against
    # the full contraction of T itself, on Bloch coordinates of pure states and on
    # arbitrary vectors, in a stack of 37 rows and a single row
    basis = build_basis(dim)
    model = measurement_matrices(random_pom(dim, 2 * dim * dim, 1, rng=110 + dim), basis)
    tensor, tails = model.cubic_form, model.cubic_tails
    k = basis.n_traceless
    assert [tail.shape for tail in tails] == [(k - j, k - j) for j in range(k)]
    for tail in tails:
        np.testing.assert_array_equal(tail, tail.T)
    rng = np.random.default_rng(120 + dim)
    vectors = haar_state_vectors(dim, 20, rng)
    states = vectors[:, :, None] * vectors[:, None, :].conj()
    pure = np.einsum("sij,kji->sk", states, basis.traceless_ops).real
    coords = np.concatenate([pure, rng.standard_normal((17, k))])
    for rows in (coords, coords[:1]):
        want = np.einsum("jik,si,sj,sk->s", tensor, rows, rows, rows)
        scale = np.einsum("jik,si,sj,sk->s", np.abs(tensor), *(np.abs(rows),) * 3)
        assert np.all(np.abs(_cubic_form(rows, tails) - want) <= 1e-13 * scale)


# qttf_monte_carlo on bench-pool members random_pom(D, 2 D**2, 1, seed) at fixed
# seeds, every run long enough for rotated bases (n >= 30 D (D+1)):
# (dim, pool seed, n_samples, rng seed, value, std_error)
FROZEN_MONTE_CARLO = [
    (3, 3_018_003, 1000, 31, 8.817030320257631, 0.004050375172816528),
    (4, 4_032_003, 2000, 41, 30.341614835030168, 0.01565348559911172),
    (5, 5_050_003, 2000, 51, 30.903572490869298, 0.011069592416045626),
]


@pytest.mark.parametrize(
    "dim, pool_seed, n, seed, value, std_error",
    # ids without the pinned numbers, so that a re-pin keeps the test names
    [pytest.param(*case, id="-".join(map(str, case[:4]))) for case in FROZEN_MONTE_CARLO],
)
def test_monte_carlo_keeps_its_seeded_values(dim, pool_seed, n, seed, value, std_error):
    pom = random_pom(dim, 2 * dim * dim, 1, rng=pool_seed)
    est = qttf_monte_carlo(pom, build_basis(dim), n, rng=seed)
    assert abs(est.value - value) <= 1e-12 * value
    assert abs(est.std_error - std_error) <= 1e-12 * std_error


@pytest.mark.parametrize("count", [1000.0, np.float64(1000), True, "1000"])
def test_sample_counts_must_be_integers(count):
    pom = random_pom(2, 6, 1, rng=130)
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        qttf_monte_carlo(pom, BASIS2, count, rng=1)
    # refused on every route, the closed forms included
    for measurement in (qubit_sic(), pom):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            qttf_auto(measurement, BASIS2, n_samples=count, rng=1)
    with pytest.raises(ValueError, match="n_states must be an integer"):
        haar_state_vectors(2, count, 1)


def test_sample_counts_accept_numpy_integers():
    model = measurement_matrices(random_pom(2, 6, 1, rng=130), BASIS2)
    assert _monte_carlo(model, np.int32(100), 1).value == _monte_carlo(model, 100, 1).value
    assert haar_state_vectors(2, np.int64(3), 1).shape == (3, 2)


def test_cholesky_trace_inverse_matches_eigendecomposition():
    # half-mixed states keep every probability near pbar, so the Fisher
    # matrices are well conditioned; 600 rows span a full and a partial block
    pom = random_pom(3, 18, 1, rng=np.random.default_rng(80))
    matrices = measurement_matrices(pom, BASIS3)
    vectors = haar_state_vectors(3, 600, np.random.default_rng(81))
    probs = np.array(
        [probabilities(0.5 * np.outer(v, v.conj()) + np.eye(3) / 6, pom) for v in vectors]
    )
    got = matrices.trace_inverse(probs)
    c = matrices.c_matrix
    want = np.array([np.sum(1.0 / np.linalg.eigvalsh(c.T @ np.diag(1.0 / p) @ c)) for p in probs])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_cholesky_trace_inverse_refuses_a_singular_fisher_matrix():
    # a model exists only for a complete measurement, whose Fisher matrix is
    # positive definite at every finite positive p; infinite probabilities
    # weight every outcome by 1/p = 0, so F = 0 exactly, which neither the
    # factorisation nor the QR path (whose R then has zero pivots) can invert
    model = measurement_matrices(qubit_sic(), BASIS2)
    with pytest.raises(NotInformationallyCompleteError, match="not positive definite"):
        model.trace_inverse(np.full((3, 4), np.inf))


def _pure_state_probabilities(dim):
    """p for 2 CHOLESKY_BLOCK + 37 Haar pure states, two full blocks and a
    remainder, on a rank-one measurement with 2 dim**2 outcomes."""
    pom = random_pom(dim, 2 * dim * dim, 1, rng=np.random.default_rng(90 + dim))
    vectors = haar_state_vectors(dim, 2 * CHOLESKY_BLOCK + 37, np.random.default_rng(95 + dim))
    probs = np.array([probabilities(np.outer(v, v.conj()), pom) for v in vectors])
    return measurement_matrices(pom, build_basis(dim)), probs


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_trace_inverse_stack_matches_eigendecomposition_on_pure_states(dim):
    # pure states reach p_min ~ 2e-7 here, so the Fisher matrices are far less
    # well conditioned than the half-mixed ones above; a per-matrix LAPACK
    # Cholesky meets 8.5e-13 on these stacks
    matrices, probs = _pure_state_probabilities(dim)
    c = matrices.c_matrix
    want = np.array([np.sum(1.0 / np.linalg.eigvalsh(c.T @ np.diag(1.0 / p) @ c)) for p in probs])
    np.testing.assert_allclose(matrices.trace_inverse(probs), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "dim, bad",
    [(3, 0.0), (3, np.nan), (5, 0.0), (5, np.nan)],
    ids=["0.0", "nan", "dim5-0.0", "dim5-nan"],
)
def test_trace_inverse_stack_refuses_a_singular_row_in_the_last_partial_block(dim, bad):
    # every earlier block factors, so only the remainder holds a row that
    # neither the Cholesky kernel nor the QR path can evaluate; at dim 5
    # (K = 24) the full blocks run the kernel's split steps too
    matrices, probs = _pure_state_probabilities(dim)
    probs[-5] = bad
    with pytest.raises(NotInformationallyCompleteError, match="not positive definite"):
        matrices.trace_inverse(probs)


@pytest.mark.parametrize("dim", [3, 5])
def test_trace_inverse_stack_rows_do_not_depend_on_their_block(dim):
    # a row factored alone shares no buffer contents with any other row, so
    # stale values left by an earlier block would show as O(1) differences;
    # the one-row assembly is a matrix-vector product with its own summation
    # order, which on these stacks moves the values by at most 1.2e-12
    matrices, probs = _pure_state_probabilities(dim)
    alone = [matrices.trace_inverse(probs[i : i + 1])[0] for i in range(len(probs))]
    np.testing.assert_allclose(matrices.trace_inverse(probs), alone, rtol=1e-11, atol=0)


@pytest.mark.parametrize("weight", [8e-12, 1e-12])
def test_monte_carlo_on_a_split_sic_is_four_at_every_state(weight):
    # a SIC outcome split off with a tiny weight leaves the SIC's Fisher
    # matrix at every state, so every sample is exactly 4, also on the states
    # where the copy's probability falls far under 1e-12
    pom = duplicate_outcome(qubit_sic(), 0, [weight, 1 - weight])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = qttf_monte_carlo(pom, BASIS2, 4000, np.random.default_rng(66))
    assert abs(est.value - 4.0) < 1e-9
    assert est.std_error < 1e-12
    assert est.params["kurtosis"] == 0.0


def test_monte_carlo_through_the_qr_path_matches_the_closed_form():
    # kappa(C) = 1.6e4: eps Tr(F^{-1}) max_i F_ii exceeds CHOLESKY_RTOL at
    # every state of this minimal measurement, so every sample is evaluated
    # by the QR path, and the estimate must still meet the exact value
    basis = build_basis(4)
    pom = random_pom(4, 16, 1, rng=40082)
    model = measurement_matrices(pom, basis)
    c = model.c_matrix
    vectors = haar_state_vectors(4, 200, np.random.default_rng(5))
    for v in vectors:
        fisher = c.T @ np.diag(1.0 / probabilities(np.outer(v, v.conj()), pom)) @ c
        estimate = np.sum(1.0 / np.linalg.eigvalsh(fisher)) * np.diag(fisher).max()
        assert np.finfo(float).eps * estimate > CHOLESKY_RTOL
    # Tr(F^{-1}) is quadratic in t here, so the controls leave only roundoff
    # in the error bar.  The exact value Tr Fbar^{-1} - 1 + 1/dim was computed
    # once with mpmath at 60 digits from model.c_matrix and model.p_bar taken as
    # exact: Fbar = C^T diag(1 / pbar) C summed with fsum, inverted by
    # mpmath.inverse, its trace taken, printed to 50 digits
    exact = 113331690.90354468393023423234580772133168960358588
    assert abs(qttf_closed_minimal(pom, basis).value - exact) <= 1e-8 * exact
    est = qttf_monte_carlo(pom, basis, 20000, rng=40083)
    assert est.params["design"] == 20
    assert abs(est.value - exact) <= 4 * est.std_error


def test_monte_carlo_variance_reduction_is_recorded():
    # the fit of q controls runs from n = q + 3 samples on, where the loss
    # factor (n - 2) / (n - q - 2) of its bar is finite: n = 11 for the eight
    # controls of rank-one outcomes
    rank_one = random_pom(3, 18, 1, rng=np.random.default_rng(67))
    assert qttf_monte_carlo(rank_one, BASIS3, 2000, rng=68).params["variance_reduction"] > 1.0
    assert qttf_monte_carlo(rank_one, BASIS3, 11, rng=69).params["variance_reduction"] > 1.0
    assert qttf_monte_carlo(rank_one, BASIS3, 10, rng=69).params["variance_reduction"] == 1.0
    # rank-two outcomes keep the three polynomial controls, fitted from n = 6;
    # below it the plain mean is returned
    rank_two = random_pom(3, 18, 2, rng=np.random.default_rng(67))
    assert qttf_monte_carlo(rank_two, BASIS3, 2000, rng=68).params["variance_reduction"] > 1.0
    assert qttf_monte_carlo(rank_two, BASIS3, 6, rng=69).params["variance_reduction"] > 1.0
    assert qttf_monte_carlo(rank_two, BASIS3, 5, rng=69).params["variance_reduction"] == 1.0
    assert qttf_monte_carlo(rank_two, BASIS3, 3, rng=69).params["variance_reduction"] == 1.0


def test_monte_carlo_reports_the_controls_it_fitted():
    rank_one = random_pom(3, 18, 1, rng=np.random.default_rng(67))
    rank_two = random_pom(3, 18, 2, rng=np.random.default_rng(67))
    for pom, fitted, threshold in ((rank_one, 8, 10), (rank_two, 3, 5)):
        params = qttf_monte_carlo(pom, BASIS3, 500, rng=70).params
        assert params["controls"] == fitted
        assert params["loss_factor"] == 498 / (498 - fitted)
        assert params["residual_kurtosis"] > 1.0  # a kurtosis is at least 1
        below = qttf_monte_carlo(pom, BASIS3, threshold, rng=70).params
        assert below["controls"] == 0
        assert below["loss_factor"] == 1.0
        assert below["residual_kurtosis"] == 0.0
        assert params["roundoff"] > 0 and below["roundoff"] > 0
    # no spread, no fit: the qubit SIC's Tr(F^{-1}) is constant
    sic = qttf_monte_carlo(qubit_sic(), BASIS2, 500, rng=70)
    assert sic.params["controls"] == 0 and sic.params["residual_kurtosis"] == 0.0
    # a constant sample still carries the roundoff of the factor, eps kappa |value|
    assert sic.params["roundoff"] == pytest.approx(np.finfo(float).eps * 4.0, rel=1e-12)
    assert sic.std_error >= sic.params["roundoff"]


def test_rank_one_test_runs_once_per_model(monkeypatch):
    # the model reads its rank-one flag from the eigenvalues the Pom computed
    # when it checked its outcomes, so no eigvalsh runs while the models are
    # built, sampled and the bases closed form runs
    poms = {
        "rank one": random_pom(3, 18, 1, rng=71),
        "rank two": random_pom(3, 18, 2, rng=71),
        "bases": mub_povm(3),
    }
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    models = {name: measurement_matrices(pom, BASIS3) for name, pom in poms.items()}
    for model in models.values():
        for seed in (1, 2):
            _monte_carlo(model, 50, seed)
    for _ in range(2):
        _closed_minimal_bases(models["bases"])
    assert calls == []
    assert [model.all_rank_one for model in models.values()] == [True, False, True]


def test_one_svd_and_no_eigh_per_model(monkeypatch):
    # the model reads Tr Fbar^{-1}, X, Y and its completeness test from one
    # thin SVD of Pbar^{-1/2} C: no eigendecomposition of Fbar, and no SVD of C
    # unless its conditioning is asked for; nor does the sampler decompose
    poms = [random_pom(3, 18, 1, rng=72), random_pom(3, 18, 2, rng=72)]
    svd, eigh, calls = np.linalg.svd, np.linalg.eigh, []

    def counting(name, function):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
    for pom in poms:
        calls.clear()
        qttf_monte_carlo(pom, BASIS3, 50, rng=1)
        assert calls == ["svd"]
        calls.clear()
        qttf_series(pom, BASIS3, max_order=4)
        assert calls == ["svd"]
    # the rotated bases of a long run at dim 4 come from a written-out table
    pom, basis = random_pom(4, 32, 1, rng=72), build_basis(4)
    calls.clear()
    estimate = qttf_monte_carlo(pom, basis, 600, rng=1)
    assert estimate.params["design"] == 20
    assert calls == ["svd"]


def test_rank_one_control_means_match_the_beta_law():
    # for rank-one outcomes x_m = p_m / Tr Pi_m is Beta(1, D-1) distributed, so
    # over many Haar states the five rank-one controls average to their
    # quadrature means
    dim, n = 3, 200_000
    pom = random_pom(dim, 18, 1, rng=np.random.default_rng(90))
    x_diag = np.diag(measurement_matrices(pom, BASIS3).x_matrix)
    traces = np.trace(pom.outcomes, axis1=1, axis2=2).real
    vectors = haar_state_vectors(dim, n, np.random.default_rng(91))
    probs = np.einsum("si,mij,sj->sm", vectors.conj(), pom.outcomes, vectors).real
    overlaps = probs / traces
    samples = np.column_stack(
        [
            np.sqrt(overlaps).sum(axis=1),
            np.sqrt(overlaps) @ x_diag,
            overlaps**1.5 @ x_diag,
            overlaps**2 @ x_diag,
            overlaps**3 @ x_diag,
        ]
    )
    half = rank_one_overlap_moment(dim, 0.5)
    powers = [rank_one_overlap_moment(dim, a) for a in (0.5, 1.5, 2, 3)]
    want = np.array([18 * half] + [x_diag.sum() * moment for moment in powers])
    sigma = samples.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(samples.mean(axis=0) - want) < 4 * sigma)


def test_monte_carlo_error_bars_cover_the_reference():
    # 2-sigma intervals from n = 300 runs must cover a 4e5-sample reference
    # about 95 % of the time: the fitted controls must not shrink the error
    # bar below the actual scatter of the estimate
    pom = random_pom(2, 8, 1, rng=np.random.default_rng(70))
    reference = qttf_monte_carlo(pom, BASIS2, 400_000, rng=71).value
    covered = 0
    for seed in range(200):
        est = qttf_monte_carlo(pom, BASIS2, 300, rng=1000 + seed)
        covered += abs(est.value - reference) <= 2 * est.std_error
    assert 0.90 <= covered / 200 <= 0.98


def test_small_sample_error_bars_pay_for_the_fitted_controls():
    # at n = 40 the eight fitted coefficients of a rank-one D = 3 measurement
    # add variance that the residuals alone do not show: 2-sigma intervals
    # cover a 1e5-sample reference in 92.4 % of 2000 seeded runs with the loss
    # factor, in 89.4 % without it, and in 90.3 % with six controls and no
    # factor.  The bound 0.915 sits 0.009, 1.5 binomial sigma, under the first.
    model = measurement_matrices(random_pom(3, 18, 1, rng=3_018_005), BASIS3)
    reference = _monte_carlo(model, 100_000, 71).value
    covered = 0
    for seed in range(2000):
        est = _monte_carlo(model, 40, 10_000 + seed)
        covered += abs(est.value - reference) <= 2 * est.std_error
    assert 0.915 <= covered / 2000 <= 0.98


def test_rotated_bases_error_bars_cover_the_reference():
    # at n = 1000 a D = 3 run draws 84 groups of 12 rotated basis states, and
    # their cluster bar must cover 2e5-sample references about 95 % of the time:
    # 2-sigma intervals cover in 94.2 % of 600 seeded runs over three pool
    # members, against 98.2 % for the independent-state bar on the same runs,
    # which ignores the correlation within a group.  The lower bound sits 3
    # binomial sigma (0.009) under the first, the upper one 0.007 under the second.
    covered = 0
    for i in range(3):
        model = measurement_matrices(random_pom(3, 18, 1, rng=3_018_010 + i), BASIS3)
        reference = _monte_carlo(model, 200_000, 80 + i).value
        for seed in range(200):
            est = _monte_carlo(model, 1000, 20_000 + 1000 * i + seed)
            assert est.params["design"] == 12
            covered += abs(est.value - reference) <= 2 * est.std_error
    assert 0.915 <= covered / 600 <= 0.975


@pytest.mark.parametrize("dim", [2, 3])
def test_monte_carlo_matches_closed_forms_on_random_structured_measurements(dim):
    # unlike the SIC/MUB anchors, Tr(F^{-1}) varies from state to state on
    # these measurements, so the control fit actually acts on the samples
    rng = np.random.default_rng(72 + dim)
    basis = build_basis(dim)
    cases = [
        (random_pom(dim, dim * dim, 1, rng=rng), qttf_closed_minimal),
        (_random_bases_pom(dim, rng), qttf_closed_minimal_bases),
    ]
    for pom, closed_form in cases:
        exact = closed_form(pom, basis).value
        est = qttf_monte_carlo(pom, basis, 20000, rng=rng)
        assert abs(est.value - exact) <= 4 * est.std_error + 1e-9 * exact


def test_auto_selects_method_by_structure():
    assert qttf_auto(qubit_sic(), BASIS2).method == "closed_minimal"
    assert qttf_auto(sic_povm(3), BASIS3).method == "closed_minimal"
    assert qttf_auto(mub_povm(3), BASIS3).method == "closed_minimal_bases"
    small = random_pom(2, 6, 1, rng=np.random.default_rng(47))
    assert qttf_auto(small, BASIS2).method == "series"
    large = random_pom(2, 20, 1, rng=np.random.default_rng(48))
    assert qttf_auto(large, BASIS2).method == "monte_carlo"


def test_budget_failure_names_the_alternative():
    pom = random_pom(2, 8, 1, rng=np.random.default_rng(49))
    with pytest.raises(BudgetExceededError, match="monte_carlo"):
        haar_moment_term(pom, build_basis(pom.dim), 4, memory_budget=1000)
    with pytest.raises(BudgetExceededError, match="monte_carlo"):
        qttf_series(pom, BASIS2, alpha=0.2, max_order=4, memory_budget=1000)


def test_quartic_value_ignores_the_old_g4_budget_trigger():
    # 16 M^4 - 1 bytes used to switch the quartic from the materialized g4
    # tensor to streamed einsums; the single contraction fits well below it
    pom = random_pom(3, 18, 1, rng=np.random.default_rng(51))
    m = pom.n_outcomes
    default = haar_moment_term(pom, BASIS3, 4)
    assert haar_moment_term(pom, BASIS3, 4, memory_budget=16 * m**4 - 1) == default


def test_quartic_chunks_to_fit_a_tight_budget():
    pom = random_pom(3, 18, 2, rng=np.random.default_rng(52))
    m, dim = pom.n_outcomes, pom.dim
    default = haar_moment_term(pom, BASIS3, 4)
    resident = 40 * m * m + 4096  # G2, the pair-pair products, headers and scratch
    per_d = 64 * m * dim * dim + 16 * m  # four complex (M, D, D) slices and two rows
    for chunk in (1, 5):
        value = haar_moment_term(pom, BASIS3, 4, memory_budget=resident + chunk * per_d)
        assert abs(value - default) <= 1e-12 * abs(default)
    with pytest.raises(BudgetExceededError, match="monte_carlo"):
        haar_moment_term(pom, BASIS3, 4, memory_budget=resident + per_d - 1)
    # orders 2 and 3 build no operator stacks, so no budget binds them
    for order in (2, 3):
        tight = haar_moment_term(pom, BASIS3, order, memory_budget=1)
        assert tight == haar_moment_term(pom, BASIS3, order)
    tight = qttf_series(pom, BASIS3, max_order=3, memory_budget=1)
    assert tight == qttf_series(pom, BASIS3, max_order=3)
    with pytest.raises(BudgetExceededError, match="monte_carlo"):
        qttf_series(pom, BASIS3, max_order=4, memory_budget=resident + per_d - 1)


@pytest.mark.parametrize(("dim", "m", "rank"), [(3, 18, 1), (3, 18, 2), (4, 32, 1), (4, 32, 2)])
@pytest.mark.parametrize("chunk", [1, 5, "all"])
def test_quartic_peak_memory_stays_within_its_budget(dim, m, rank, chunk):
    # _quartic_bytes is the budget the contraction sizes its chunk by, so the
    # traced peak of the contraction (model fields already computed) is below it
    pom = random_pom(dim, m, rank, rng=np.random.default_rng(54 + rank))
    model = measurement_matrices(pom, build_basis(dim))
    model.f2, model.f3  # the model fields are computed before tracing starts
    budget = _quartic_bytes(m, dim, m if chunk == "all" else chunk)
    tracemalloc.start()
    try:
        _quartic_term(model, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_third_order_series_holds_no_pair_products():
    # F2 and F3 come from the M x M model matrices; stacks of M**2 complex
    # D x D operators (16 M**2 D**2 bytes each) belong to the order-4 term alone
    pom = random_pom(3, 200, 1, rng=np.random.default_rng(53))
    m, dim = pom.n_outcomes, pom.dim
    tracemalloc.start()
    try:
        qttf_series(pom, BASIS3, max_order=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * m * m * dim * dim / 4


@pytest.mark.parametrize("alpha", [1.0, 0.3])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_one_pass_series_equals_the_lower_order_calls(dim, rank, alpha):
    # F2 and F3 from the order-4 pass must be the very numbers the order-2 and
    # order-3 passes and the single-term calls produce, not merely close to them
    basis = build_basis(dim)
    pom = random_pom(dim, 2 * dim * dim, rank, rng=np.random.default_rng(90 + 10 * dim + rank))
    series = [
        qttf_series(pom, basis, alpha=alpha, max_order=order).params["contributions"]
        for order in (2, 3, 4)
    ]
    f2, f3, f4 = (haar_moment_term(pom, basis, k) for k in (2, 3, 4))
    assert series[0] == [measurement_matrices(pom, basis).tr_fbar_inv, alpha * f2]
    assert series[1] == series[0] + [alpha**2 * (f3 - f2) + alpha * f2]
    assert series[2] == series[1] + [
        alpha**3 * (f4 - 2 * f3 + f2) + 2 * alpha**2 * (f3 - f2) + alpha * f2
    ]


def _random_bases_pom(dim, rng):
    """dim + 1 Haar-random orthonormal bases, each projector weighted 1/(dim + 1)."""
    outcomes = []
    for _ in range(dim + 1):
        ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary, _ = np.linalg.qr(ginibre)
        outcomes.extend(np.outer(v, v.conj()) / (dim + 1) for v in unitary.T)
    return Pom(np.array(outcomes))


@pytest.mark.parametrize("dim", [4, 5])
def test_order_four_series_equals_closed_forms_at_higher_dims(dim):
    # the series terminates at second order for both structures, so the
    # order-3 and order-4 terms must cancel to the exact closed form
    rng = np.random.default_rng(60 + dim)
    basis = build_basis(dim)
    cases = [
        (random_pom(dim, dim * dim, 1, rng=rng), qttf_closed_minimal),
        (_random_bases_pom(dim, rng), qttf_closed_minimal_bases),
    ]
    for pom, closed_form in cases:
        series = qttf_series(pom, basis, alpha=1.0, max_order=4).value
        exact = closed_form(pom, basis).value
        assert abs(series - exact) <= 1e-9 * exact


def test_spectral_radius_inside_convergence_region():
    rng = np.random.default_rng(50)
    for _ in range(5):
        dim = int(rng.integers(2, 4))
        pom = random_pom(dim, int(rng.integers(dim * dim, 3 * dim * dim)), 1, rng=rng)
        aux = measurement_matrices(pom, build_basis(dim))
        alpha = 0.9 * aux.alpha0
        vecs = haar_state_vectors(dim, 20, rng)
        probs = np.einsum("si,mij,sj->sm", vecs.conj(), pom.outcomes, vecs).real
        for p in probs:
            update = aux.y_matrix * (alpha * p - aux.p_bar)[None, :]
            radius = np.abs(np.linalg.eigvals(update)).max()
            assert radius < 1.0


def test_covariant_limit_trend():
    # many-outcome rank-one measurements drift toward the covariant value
    # 2(dim - 1); convergence is slow, so only the trend and a loose band
    # at the largest size are asserted
    limit = reference_values(2).covariant
    gaps = {}
    for m in (30, 200):
        values = []
        for s in range(3):
            pom = random_pom(2, m, 1, rng=np.random.default_rng([51, m, s]))
            est = qttf_monte_carlo(pom, BASIS2, 4000, np.random.default_rng([52, m, s]))
            values.append(est.value)
        gaps[m] = (np.mean(values) - limit) / limit
    assert gaps[200] > 0
    assert gaps[200] < gaps[30]
    assert gaps[200] < 0.2


def test_duplication_preserves_qttf():
    pom = qubit_sic()
    dup = duplicate_outcome(pom, 2, [0.6, 0.4])
    a = qttf_closed_minimal(pom, BASIS2)
    b = qttf_monte_carlo(dup, BASIS2, 4000, np.random.default_rng(53))
    assert abs(a.value - b.value) < 4 * b.std_error + 1e-9


def test_probabilities_of_haar_states_have_unit_sum():
    pom = random_pom(3, 9, 1, rng=np.random.default_rng(54))
    rho = haar_pure_state(3, np.random.default_rng(55))
    assert abs(probabilities(rho, pom).sum() - 1.0) < 1e-12
