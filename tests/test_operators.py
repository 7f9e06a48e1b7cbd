"""Basis construction, state parametrization, Haar sampling and moments."""

import numpy as np
import pytest

from helpers import MomentOracle, centered_moments_23, haar_probability_moment

from qttf import (
    DensityMatrix,
    HermitianBasis,
    InvalidDimensionError,
    PomValidationError,
    UnsupportedDimensionError,
    accuracy,
    admix_white_noise,
    bloch_coords,
    build_basis,
    duplicate_outcome,
    haar_pure_state,
    haar_state_vectors,
    measurement_matrices,
    mub_povm,
    qubit_sic,
    random_pom,
    sic_povm,
    state_from_bloch,
)
from qttf.operators import mub_vectors, rotated_vectors

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_basis_is_trace_orthonormal(dim):
    basis = build_basis(dim)
    ops = basis.traceless_ops
    assert ops.shape == (dim * dim - 1, dim, dim)
    assert basis.n_traceless == dim * dim - 1
    for a in range(len(ops)):
        assert abs(np.trace(ops[a])) < 1e-12
        assert np.abs(ops[a] - ops[a].conj().T).max() < 1e-12
        for b in range(a, len(ops)):
            want = 1.0 if a == b else 0.0
            assert abs(np.trace(ops[a] @ ops[b]) - want) < 1e-12
    # identity/sqrt(dim) completes the basis without being stored: the model's
    # identity column is Tr(Pi_m)/sqrt(dim), here taken from the outcomes
    pom = random_pom(dim, 2 * dim * dim, 1, rng=np.random.default_rng(dim))
    traces = np.einsum("mii->m", pom.outcomes).real
    column = measurement_matrices(pom, basis).c_tilde[:, 0]
    np.testing.assert_allclose(column, traces / np.sqrt(dim), rtol=0, atol=1e-15)


def test_qubit_basis_is_scaled_paulis():
    ops = build_basis(2).traceless_ops
    for pauli in PAULI:
        target = pauli / np.sqrt(2.0)
        assert any(np.abs(op - target).max() < 1e-12 for op in ops)


def test_basis_rejects_bad_dimension():
    with pytest.raises(InvalidDimensionError):
        build_basis(1)
    with pytest.raises(InvalidDimensionError):
        build_basis(2.5)


def test_basis_is_a_value_of_its_dimension():
    # no stack of the caller's can be passed in: every basis of a dim reads
    # that dim's one read-only Gell-Mann stack, and compares and hashes by dim
    with pytest.raises(TypeError):
        HermitianBasis(2, build_basis(2).traceless_ops)
    first, second = build_basis(3), build_basis(3)
    assert first == second and hash(first) == hash(second)
    assert first != build_basis(2) and len({first, second, build_basis(2)}) == 2
    assert first.traceless_ops is second.traceless_ops
    with pytest.raises(ValueError, match="read-only"):
        first.traceless_ops[0, 0, 1] = 1.0
    # the instances are not cached, so each frees its own triple traces
    assert first is not second
    assert first.triple_traces is not second.triple_traces
    numpy_dim = HermitianBasis(np.int64(3))
    assert numpy_dim == first and type(numpy_dim.dim) is int


@pytest.mark.parametrize(
    "dim, message", [(1, "must be >= 2"), (2.0, "must be an integer"), (True, "must be an integer")]
)
def test_basis_refuses_a_dimension_that_is_not_an_integer_of_at_least_two(dim, message):
    with pytest.raises(InvalidDimensionError, match=message):
        HermitianBasis(dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_bloch_round_trip(dim):
    rng = np.random.default_rng(5)
    basis = build_basis(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    coords = bloch_coords(rho, basis)
    assert coords.shape == (dim * dim - 1,)
    assert coords.dtype.kind == "f"
    np.testing.assert_allclose(state_from_bloch(coords, basis), rho, atol=1e-12)
    # purity decomposition: Tr(rho^2) = 1/dim + |coords|^2
    purity = np.trace(rho @ rho).real
    assert abs(purity - (1.0 / dim + coords @ coords)) < 1e-12


def test_bloch_coords_of_maximally_mixed_vanish():
    basis = build_basis(3)
    coords = bloch_coords(np.eye(3) / 3, basis)
    assert np.abs(coords).max() < 1e-14


def test_state_from_bloch_allows_nonpositive_output():
    basis = build_basis(2)
    rho = state_from_bloch(np.array([2.0, 0.0, 0.0]), basis)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho)[0] < -0.5  # far outside the state space


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.1, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.2, -0.2]))  # negative eigenvalue
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2
    assert abs(rho.purity - (0.25**2 + 0.75**2)) < 1e-14


def test_density_matrix_holds_a_read_only_copy():
    # a state checked once stays valid: writing to the caller's array does not
    # reach it, and its own array refuses writes
    source = np.diag([0.25, 0.75]).astype(complex)
    rho = DensityMatrix(source)
    before = accuracy(rho, sic_povm(2), build_basis(2))
    source[:] = np.diag([2.0, -1.0])
    np.testing.assert_array_equal(rho.matrix, np.diag([0.25, 0.75]))
    assert rho.purity == 0.25**2 + 0.75**2
    assert accuracy(rho, sic_povm(2), build_basis(2)) == before
    with pytest.raises(ValueError, match="read-only"):
        rho.matrix[0, 0] = 2.0


@pytest.mark.parametrize("dim", [2, 4])
def test_haar_pure_state_properties(dim):
    rho = haar_pure_state(dim, np.random.default_rng(0))
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert abs(eigs[-1] - 1.0) < 1e-12 and np.abs(eigs[:-1]).max() < 1e-12
    again = haar_pure_state(dim, np.random.default_rng(0))
    np.testing.assert_array_equal(rho.matrix, again.matrix)
    other = haar_pure_state(dim, np.random.default_rng(1))
    assert np.abs(rho.matrix - other.matrix).max() > 1e-3


def test_haar_pure_state_mean_is_maximally_mixed():
    dim, n = 2, 4000
    rng = np.random.default_rng(12)
    mean = np.zeros((dim, dim), dtype=complex)
    for _ in range(n):
        mean += haar_pure_state(dim, rng).matrix
    mean /= n
    # entry fluctuations are O(1/sqrt(n))
    assert np.abs(mean - np.eye(dim) / dim).max() < 5.0 / np.sqrt(n)


def test_haar_state_vectors_shape_and_norms():
    vecs = haar_state_vectors(3, 7, np.random.default_rng(2))
    assert vecs.shape == (7, 3)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("dim, n, seed", [(2, 200, 1), (3, 1000, 2), (5, 4000, 3), (4, 1, 4)])
def test_haar_state_vectors_equal_the_complex_sum_of_the_draws(dim, n, seed):
    # the draws written into the real and imaginary parts give exactly the
    # vectors of a + 1j * b, the first draw the real part
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    want = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    np.testing.assert_array_equal(haar_state_vectors(dim, n, seed), want)


def test_haar_moment_first_order_is_mean_probability():
    pom = qubit_sic()
    for j in range(pom.n_outcomes):
        want = np.trace(pom.outcomes[j]).real / pom.dim
        assert abs(haar_probability_moment([j], pom) - want) < 1e-14


def test_haar_moment_second_order_closed_form():
    rng = np.random.default_rng(8)
    pom = random_pom(2, 5, rank=2, rng=rng)
    d = pom.dim
    for a in range(5):
        for b in range(5):
            pa, pb = pom.outcomes[a], pom.outcomes[b]
            want = (np.trace(pa).real * np.trace(pb).real + np.trace(pa @ pb).real) / (
                d * (d + 1)
            )
            assert abs(haar_probability_moment([a, b], pom) - want) < 1e-12


def test_haar_moment_is_symmetric_in_indices():
    pom = random_pom(3, 5, rank=1, rng=np.random.default_rng(4))
    reference = haar_probability_moment([0, 1, 2, 1], pom)
    for perm in ([1, 0, 1, 2], [2, 1, 1, 0], [1, 1, 2, 0]):
        assert abs(haar_probability_moment(perm, pom) - reference) < 1e-15


def test_vectorised_central_moments_match_the_permutation_sums():
    # centered_moments_23 serves as an oracle at outcome counts where the
    # entrywise MomentOracle is too slow, so it must agree with it exactly
    pom = random_pom(3, 6, rank=2, rng=np.random.default_rng(12))
    oracle = MomentOracle(pom)
    c2, c3 = centered_moments_23(pom)
    np.testing.assert_allclose(c2, oracle.centered2(), rtol=0, atol=1e-15)
    np.testing.assert_allclose(c3, oracle.centered3(), rtol=0, atol=1e-15)


def test_haar_moment_against_monte_carlo():
    pom = random_pom(2, 4, rank=1, rng=np.random.default_rng(10))
    rng = np.random.default_rng(11)
    n = 200000
    vecs = haar_state_vectors(2, n, rng)
    probs = np.einsum("si,mij,sj->sm", vecs.conj(), pom.outcomes, vecs).real
    for idx in ([0, 2], [0, 1, 3], [0, 0, 2, 3]):
        sample = np.prod([probs[:, j] for j in idx], axis=0)
        stderr = sample.std(ddof=1) / np.sqrt(n)
        assert abs(haar_probability_moment(idx, pom) - sample.mean()) < 4 * stderr


def test_qubit_sic_geometry():
    pom = qubit_sic()
    assert pom.n_outcomes == 4
    np.testing.assert_allclose(pom.outcomes.sum(axis=0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pom.traces, 0.5, atol=1e-12)
    for a in range(4):
        for b in range(4):
            want = 0.25 if a == b else 1.0 / 12.0
            assert abs(np.trace(pom.outcomes[a] @ pom.outcomes[b]).real - want) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_sic_povm_geometry(dim):
    pom = sic_povm(dim)
    m = dim * dim
    assert pom.n_outcomes == m
    np.testing.assert_allclose(pom.outcomes.sum(axis=0), np.eye(dim), atol=1e-12)
    np.testing.assert_allclose(pom.traces, 1.0 / dim, atol=1e-12)
    for a in range(m):
        eigs = np.linalg.eigvalsh(pom.outcomes[a])
        assert np.abs(eigs[:-1]).max() < 1e-12  # rank one
        for b in range(a + 1, m):
            overlap = np.trace(pom.outcomes[a] @ pom.outcomes[b]).real
            assert abs(overlap - 1.0 / (m * (dim + 1))) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_mub_povm_geometry(dim):
    pom = mub_povm(dim)
    n_bases = dim + 1
    assert pom.n_outcomes == dim * n_bases
    np.testing.assert_allclose(pom.outcomes.sum(axis=0), np.eye(dim), atol=1e-12)
    np.testing.assert_allclose(pom.traces, 1.0 / n_bases, atol=1e-12)
    for g in range(n_bases):
        block = pom.outcomes[g * dim : (g + 1) * dim].sum(axis=0)
        np.testing.assert_allclose(block, np.eye(dim) / n_bases, atol=1e-12)
    # cross-basis overlaps are flat: |<e|f>|^2 = 1/dim
    for a in range(dim):
        for b in range(dim, pom.n_outcomes):
            overlap = np.trace(pom.outcomes[a] @ pom.outcomes[b]).real
            assert abs(overlap - 1.0 / (dim * n_bases**2)) < 1e-12


def test_mub_povm_keeps_its_qubit_and_qutrit_outcomes():
    # built from the table, the dim 2 and 3 outcomes stay bit for bit the Pauli
    # projectors (I +- sigma) / 6 and the quadratic-phase projectors / 4
    mub2 = np.stack([(np.eye(2) + s * pauli) / 6 for pauli in PAULI for s in (1, -1)])
    np.testing.assert_array_equal(mub_povm(2).outcomes, mub2)
    omega, ks = np.exp(2j * np.pi / 3), np.arange(3)
    vectors = [np.eye(3, dtype=complex)[:, m] for m in range(3)]
    vectors += [omega ** ((b * ks * ks + m * ks) % 3) / np.sqrt(3.0) for b in ks for m in ks]
    mub3 = np.stack([np.outer(v, v.conj()) / 4 for v in vectors])
    np.testing.assert_array_equal(mub_povm(3).outcomes, mub3)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 7])
def test_mub_table_is_a_complete_set_of_unbiased_bases(dim):
    # unit vectors in dim+1 orthonormal bases, squared overlaps 1/dim across
    # bases, and the frame potential of a complex-projective 2-design,
    # sum_ab |<a|b>|**4 / S**2 = 2 / (dim (dim+1)) for S = dim (dim+1) vectors
    table = mub_vectors(dim)
    size = dim * (dim + 1)
    assert table.shape == (size, dim) and not table.flags.writeable
    overlaps = np.abs(table.conj() @ table.T) ** 2
    same_basis = np.kron(np.eye(dim + 1), np.ones((dim, dim))) > 0
    want = np.where(same_basis, np.eye(size), 1.0 / dim)
    np.testing.assert_allclose(overlaps, want, rtol=0, atol=1e-14)
    assert abs(np.sum(overlaps**2) / size**2 - 2.0 / (dim * (dim + 1))) < 1e-14


@pytest.mark.parametrize(
    "dim, n, seed", [(2, 200, 1), (3, 1000, 2), (4, 45, 3), (5, 30, 4), (7, 1, 5)]
)
def test_rotated_mub_vectors_are_the_table_under_haar_unitaries(dim, n, seed):
    # one complex Ginibre matrix Z per group of S = dim (dim+1) states, real
    # parts drawn first; its orthonormalised rows are U = Q^dag for the QR
    # Z^dag = Q R with a positive diagonal of R, the QR that makes U Haar, and
    # the group holds the rows of table @ U, the last group cut at n
    table = mub_vectors(dim)
    groups = -(-n // len(table))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((groups, dim, dim)) + 1j * rng.standard_normal((groups, dim, dim))
    q, r = np.linalg.qr(raw.conj().transpose(0, 2, 1))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    unitaries = (q * (diagonal / np.abs(diagonal))[:, None, :]).conj().transpose(0, 2, 1)
    want = (table @ unitaries).reshape(-1, dim)[:n]
    got = rotated_vectors(table, dim, n, seed)
    assert got.shape == (n, dim)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_rotated_mub_groups_average_degree_two_terms_exactly(dim):
    # a rotated 2-design: over each whole group, the mean of v v^dag (x) v v^dag
    # is the Haar mean (I + SWAP) / (dim (dim+1))
    size = dim * (dim + 1)
    vectors = rotated_vectors(mub_vectors(dim), dim, 3 * size, 6).reshape(3, size, dim)
    projectors = vectors[:, :, :, None] * vectors[:, :, None, :].conj()
    second = np.einsum("gsij,gskl->gikjl", projectors, projectors).reshape(3, dim**2, dim**2)
    swap = np.eye(dim**2).reshape(dim, dim, dim, dim).transpose(0, 1, 3, 2).reshape(dim**2, -1)
    want = (np.eye(dim**2) + swap) / (dim * (dim + 1))
    want = np.broadcast_to(want, second.shape)
    np.testing.assert_allclose(second / size, want, rtol=0, atol=1e-14)


def test_builtin_measurements_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        sic_povm(4)
    with pytest.raises(UnsupportedDimensionError):
        mub_povm(6)


@pytest.mark.parametrize("dim,m,rank", [(2, 4, 1), (2, 7, 2), (3, 9, 1), (4, 20, 3)])
def test_random_pom_is_valid(dim, m, rank):
    pom = random_pom(dim, m, rank, rng=np.random.default_rng(17))
    assert pom.n_outcomes == m and pom.dim == dim
    np.testing.assert_allclose(pom.outcomes.sum(axis=0), np.eye(dim), atol=1e-10)
    for outcome in pom.outcomes:
        eigs = np.linalg.eigvalsh(outcome)
        assert eigs[0] > -1e-12
        assert np.sum(eigs > 1e-10) <= rank


def test_random_pom_is_deterministic_for_integer_seed():
    a = random_pom(2, 6, 1, rng=21)
    b = random_pom(2, 6, 1, rng=21)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)


def test_random_pom_rejects_underspecified_draws():
    with pytest.raises(InvalidDimensionError):
        random_pom(2, 4, rank=3, rng=0)
    with pytest.raises(PomValidationError):
        random_pom(3, 2, rank=1, rng=0)  # 2 rank-one outcomes cannot span


def test_admix_white_noise_formula_and_invariants():
    pom = qubit_sic()
    eps = 0.07
    noisy = admix_white_noise(pom, eps)
    np.testing.assert_allclose(noisy.outcomes.sum(axis=0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(noisy.traces, pom.traces, atol=1e-12)
    want = (pom.outcomes[1] + eps * pom.traces[1] * np.eye(2) / 2) / (1 + eps)
    np.testing.assert_allclose(noisy.outcomes[1], want, atol=1e-15)
    unchanged = admix_white_noise(pom, 0.0)
    np.testing.assert_allclose(unchanged.outcomes, pom.outcomes, atol=0)
    with pytest.raises(PomValidationError):
        admix_white_noise(pom, -0.1)
    for epsilon in (np.nan, np.inf):  # refused by its own check, before any arithmetic warns
        with pytest.raises(PomValidationError, match=f"must be finite and >= 0, got {epsilon}"):
            admix_white_noise(pom, epsilon)


def test_duplicate_outcome_splits_and_labels():
    pom = qubit_sic()
    dup = duplicate_outcome(pom, 3, [0.5, 0.5])
    assert dup.n_outcomes == 5
    np.testing.assert_allclose(dup.outcomes.sum(axis=0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(dup.outcomes[3], 0.5 * pom.outcomes[3], atol=1e-15)
    np.testing.assert_allclose(dup.outcomes[4], 0.5 * pom.outcomes[3], atol=1e-15)
    assert "dup(4" in dup.label  # outcome numbering is 1-based in labels
    uneven = duplicate_outcome(pom, 0, [0.7, 0.2, 0.1])
    assert uneven.n_outcomes == 6
    np.testing.assert_allclose(uneven.outcomes.sum(axis=0), np.eye(2), atol=1e-12)


def test_duplicate_outcome_validates_weights_and_index():
    pom = qubit_sic()
    with pytest.raises(PomValidationError):
        duplicate_outcome(pom, 0, [0.6, 0.6])  # weights must sum to 1
    with pytest.raises(PomValidationError):
        duplicate_outcome(pom, 0, [1.3, -0.3])  # negative weight
    with pytest.raises(PomValidationError):
        duplicate_outcome(pom, 9, [0.5, 0.5])  # index out of range
    for weights in ([np.nan, np.nan], [0.5, np.inf]):  # not let through to the Pom check
        with pytest.raises(PomValidationError, match="split weights must be finite"):
            duplicate_outcome(pom, 0, weights)
