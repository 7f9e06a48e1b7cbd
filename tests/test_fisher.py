"""Measurement matrices, Fisher information, and the mixed-state trace bound."""

import numpy as np
import pytest

from helpers import chain_fisher_trace_inverse, random_density

from qttf import (
    DimensionMismatchError,
    NotInformationallyCompleteError,
    Pom,
    PomValidationError,
    accuracy,
    build_basis,
    duplicate_outcome,
    haar_pure_state,
    measurement_matrices,
    mub_povm,
    probabilities,
    qttf_auto,
    qubit_sic,
    random_pom,
    sic_povm,
)

BASIS2 = build_basis(2)
BASIS3 = build_basis(3)


def _direct_fisher(pom, basis, probs):
    """C^T diag(1/p) C assembled here, without the library's assembly."""
    c = measurement_matrices(pom, basis).c_matrix
    return c.T @ np.diag(1.0 / probs) @ c


def _fisher(rho, pom, basis):
    return _direct_fisher(pom, basis, probabilities(rho, pom))


def _tr_fbar(pom, basis):
    """Tr F at the maximally mixed state, whose probabilities are pbar."""
    return float(np.trace(_direct_fisher(pom, basis, measurement_matrices(pom, basis).p_bar)))


def test_qubit_sic_c_tilde_entries():
    matrices = measurement_matrices(qubit_sic(), BASIS2)
    c_tilde = matrices.c_tilde
    assert c_tilde.shape == (4, 4)
    # identity column: Tr(Pi_j)/sqrt(2) = 1/(2 sqrt(2)); remaining entries
    # are tetrahedron components of size 1/(2 sqrt(6))
    np.testing.assert_allclose(c_tilde[:, 0], 1.0 / (2.0 * np.sqrt(2.0)), atol=1e-12)
    np.testing.assert_allclose(np.abs(c_tilde[:, 1:]), 1.0 / (2.0 * np.sqrt(6.0)), atol=1e-12)
    np.testing.assert_allclose(c_tilde[:, 1:].sum(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(matrices.c_matrix, c_tilde[:, 1:], atol=0)


def test_qubit_sic_conditioning_anchors():
    matrices = measurement_matrices(qubit_sic(), BASIS2)
    np.testing.assert_allclose(
        matrices.singular_values_c_tilde, [0.7071, 0.4082, 0.4082, 0.4082], atol=5e-4
    )
    assert abs(matrices.kappa_c_tilde - 1.7321) < 5e-4
    assert abs(matrices.kappa_c - 1.0) < 1e-9  # traceless block is isotropic


def test_duplicated_outcome_conditioning_anchors():
    dup = duplicate_outcome(qubit_sic(), 3, [0.5, 0.5])
    matrices = measurement_matrices(dup, BASIS2)
    np.testing.assert_allclose(
        matrices.singular_values_c_tilde, [0.6700, 0.4082, 0.4082, 0.3047], atol=5e-4
    )
    assert abs(matrices.kappa_c_tilde - 2.1988) < 5e-4
    # split rows are the original row scaled by the weights
    base = measurement_matrices(qubit_sic(), BASIS2).c_tilde
    np.testing.assert_allclose(matrices.c_tilde[3], 0.5 * base[3], atol=1e-12)
    np.testing.assert_allclose(matrices.c_tilde[4], 0.5 * base[3], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_measurement_matrix_structure(dim):
    pom = random_pom(dim, 3 * dim * dim, rank=1, rng=np.random.default_rng(dim))
    basis = build_basis(dim)
    matrices = measurement_matrices(pom, basis)
    assert matrices.dim == dim
    assert matrices.n_outcomes == pom.n_outcomes
    # column sums: a resolution of identity has zero traceless components
    np.testing.assert_allclose(matrices.c_matrix.sum(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(
        matrices.c_tilde[:, 0].sum(), np.sqrt(dim), atol=1e-12
    )
    np.testing.assert_allclose(matrices.p_bar, pom.traces / dim, atol=1e-14)
    assert abs(matrices.p_bar.sum() - 1.0) < 1e-12
    assert matrices.kappa_c >= 1.0


def test_measurement_matrices_take_every_pom_that_pom_accepts():
    # 0.9e-10 sigma_x on one outcome of the qubit SIC stays within the Pom's
    # completeness tolerance of 1e-10, while the traceless column sums of C
    # deviate from 0 by sqrt(2) 0.9e-10 = 1.27e-10
    outcomes = qubit_sic().outcomes.copy()
    outcomes[0] += 0.9e-10 * np.array([[0, 1], [1, 0]])
    pom = Pom(outcomes, label="margin")
    model = measurement_matrices(pom, BASIS2)
    assert np.abs(model.c_matrix.sum(axis=0)).max() > 1e-10
    assert abs(qttf_auto(pom, BASIS2).value - 4.0) < 1e-9


def test_probabilities_match_born_rule():
    pom = random_pom(3, 9, rank=2, rng=np.random.default_rng(6))
    rho = random_density(3, np.random.default_rng(7))
    probs = probabilities(rho, pom)
    direct = np.einsum("ij,mji->m", rho, pom.outcomes).real
    np.testing.assert_allclose(probs, direct, atol=1e-14)
    assert abs(probs.sum() - 1.0) < 1e-12
    # maximally mixed state reproduces the mean probabilities
    np.testing.assert_allclose(
        probabilities(np.eye(3) / 3, pom), pom.traces / 3, atol=1e-14
    )


def test_probabilities_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        probabilities(np.eye(3) / 3, qubit_sic())
    # the state is validated as a DensityMatrix, so the error names the state,
    # not the measurement
    with pytest.raises(ValueError, match="state is not Hermitian") as caught:
        probabilities(np.array([[0.5, 0.1], [0.0, 0.5]]), random_pom(2, 6, 1, 3))
    assert not isinstance(caught.value, PomValidationError)


def test_fisher_matrix_definition_and_shape():
    pom = random_pom(2, 6, rank=1, rng=np.random.default_rng(3))
    rho = random_density(2, np.random.default_rng(4))
    matrices = measurement_matrices(pom, BASIS2)
    probs = probabilities(rho, pom)
    fisher = matrices.fisher(1.0 / probs)
    assert fisher.shape == (3, 3)
    direct = matrices.c_matrix.T @ np.diag(1.0 / probs) @ matrices.c_matrix
    np.testing.assert_allclose(fisher, direct, atol=1e-12)
    assert abs(np.trace(fisher) - np.trace(direct)) < 1e-12


def test_fisher_invariant_under_duplication():
    pom = qubit_sic()
    dup = duplicate_outcome(pom, 1, [0.3, 0.45, 0.25])
    rho = random_density(2, np.random.default_rng(11))
    base = _fisher(rho, pom, BASIS2)
    split = _fisher(rho, dup, BASIS2)
    np.testing.assert_allclose(split, base, atol=1e-10)


def test_accuracy_is_trace_of_inverse_fisher():
    pom = random_pom(2, 5, rank=2, rng=np.random.default_rng(8))
    rho = random_density(2, np.random.default_rng(9))
    value = accuracy(rho, pom, BASIS2)
    probs = probabilities(rho, pom)
    assert abs(value - chain_fisher_trace_inverse(pom, BASIS2, probs)) < 1e-10
    assert abs(value - np.sum(1.0 / np.linalg.eigvalsh(_direct_fisher(pom, BASIS2, probs)))) < 1e-12


def test_accuracy_rejects_incomplete_measurement():
    trivial = Pom(np.eye(2)[None], label="trivial")
    rho = random_density(2, np.random.default_rng(1))
    with pytest.raises(NotInformationallyCompleteError):
        accuracy(rho, trivial, BASIS2)


def test_trace_bound_saturated_by_rank_one_outcomes():
    for pom, basis in [(qubit_sic(), BASIS2), (mub_povm(2), BASIS2), (sic_povm(3), BASIS3)]:
        dim = pom.dim
        assert abs(_tr_fbar(pom, basis) - dim * (dim - 1)) < 1e-9


def test_trace_bound_strict_for_mixed_rank():
    rng = np.random.default_rng(13)
    for dim in (2, 3):
        basis = build_basis(dim)
        for _ in range(10):
            pom = random_pom(dim, 2 * dim * dim, rank=dim, rng=rng)
            # full-rank outcomes lose information
            assert _tr_fbar(pom, basis) < dim * (dim - 1) - 1e-6


def test_trace_bound_holds_for_random_rank_one():
    rng = np.random.default_rng(14)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        pom = random_pom(dim, int(rng.integers(dim * dim, 3 * dim * dim)), rank=1, rng=rng)
        assert _tr_fbar(pom, build_basis(dim)) <= dim * (dim - 1) + 1e-9


def test_pure_state_accuracy_is_the_limit_at_a_vanishing_probability():
    # a pure state orthogonal to a rank-one outcome has a vanishing cell, where
    # Tr(F^{-1}) is analytic: probabilities clips the cell's roundoff to 0 and
    # accuracy returns the limit.  A SIC's Tr(F^{-1}) is one value at every
    # pure state, 4 for the qubit SIC and 10 at dim 3, so also at the null
    # vector of outcome 0
    for pom, basis, want in [(qubit_sic(), BASIS2, 4.0), (sic_povm(3), BASIS3, 10.0)]:
        vec = np.linalg.eigh(pom.outcomes[0])[1][:, 0]  # null vector of outcome 0
        rho = np.outer(vec, vec.conj())
        assert probabilities(rho, pom)[0] == 0.0
        assert accuracy(rho, pom, basis) == pytest.approx(want, rel=1e-12, abs=0)


def test_accuracy_refuses_a_split_outcome_that_never_clicks():
    # with the y+ outcome of the qubit MUB split in two (outcomes 2 and 3), the
    # y- eigenstate zeroes both copies, whose rows of C are proportional: the
    # augmented system is singular there, so the state is refused, naming its row
    mub = mub_povm(2)
    split = duplicate_outcome(mub, 2, [0.5, 0.5])
    rho = 3 * mub.outcomes[3]
    assert np.allclose(probabilities(rho, split), [1 / 6, 1 / 6, 0, 0, 1 / 3, 1 / 6, 1 / 6])
    with pytest.raises(ValueError, match="row 0: the rows of C of its 2 zero-probability"):
        accuracy(rho, split, BASIS2)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_accuracy_at_a_mub_basis_state_is_dim_squared_minus_one(dim):
    # |0> is a basis state of the first basis, so dim - 1 outcomes never click;
    # a complete set of mutually unbiased bases has Tr(F^{-1}) = dim**2 - 1 at
    # every pure state, these included
    pom = mub_povm(dim)
    rho = np.zeros((dim, dim))
    rho[0, 0] = 1.0
    assert np.count_nonzero(probabilities(rho, pom) == 0) == dim - 1
    assert accuracy(rho, pom, build_basis(dim)) == pytest.approx(dim * dim - 1, rel=1e-12, abs=0)


def test_trace_inverse_refuses_a_singular_matrix():
    # a negative or a NaN probability leaves nothing to evaluate, on the
    # Cholesky path and on the augmented path alike; a zero is a limit, here
    # the Sherman-Morrison value Tr G - c^T G^2 c / c^T G c with G the inverse
    # Fisher matrix of the other outcomes, 15/4; an all-zero row's augmented
    # system is singular
    model = measurement_matrices(qubit_sic(), BASIS2)
    for bad in (-1e-3, np.nan):
        with pytest.raises(ValueError, match="row 0: a probability is negative or not finite"):
            model.trace_inverse(np.array([[bad, 0.25, 0.25, 0.5]]))
    value = model.trace_inverse(np.array([[0.0, 0.25, 0.25, 0.5]]))[0]
    assert abs(value - 3.75) <= 1e-12 * 3.75
    with pytest.raises(ValueError, match="row 1: the rows of C of its 4 zero-probability"):
        model.trace_inverse(np.array([[0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 0.0]]))


# measurements whose Tr(F^{-1}) is one value at every pure state
SPLIT_MEASUREMENTS = {
    "qubit_sic": (qubit_sic, 2, 4.0),
    "sic3": (lambda: sic_povm(3), 3, 10.0),
    "mub2": (lambda: mub_povm(2), 2, 3.0),
    "mub3": (lambda: mub_povm(3), 3, 8.0),
}


@pytest.mark.parametrize("name", sorted(SPLIT_MEASUREMENTS))
@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.3, 0.7], [0.1, 0.9], [1e-3, 1 - 1e-3]])
def test_trace_inverse_of_a_split_outcome_at_its_zero_is_refused_or_unsplit(name, weights):
    # a split c_m c_m^T / p_m = sum_i (w_i c_m)(w_i c_m)^T / (w_i p_m) preserves
    # the Fisher matrix, so at a state where the split outcome never clicks the
    # kernel may return only the unsplit value, or refuse the row
    make, dim, want = SPLIT_MEASUREMENTS[name]
    pom = make()
    split = duplicate_outcome(pom, 1, weights)
    vec = np.linalg.eigh(pom.outcomes[1])[1][:, 0]
    probs = probabilities(np.outer(vec, vec.conj()), split)
    assert probs[1] == probs[2] == 0.0
    try:
        value = measurement_matrices(split, build_basis(dim)).trace_inverse(probs[None])[0]
    except ValueError as exc:
        assert "row 0" in str(exc)
    else:
        assert abs(value - want) <= 1e-12 * want


@pytest.mark.parametrize("dim, m, seed", [(2, 8, 1), (5, 25, 1058713047)])
def test_trace_inverse_matches_sherman_morrison_next_to_an_outcome_zero(dim, m, seed):
    # pure states next to the zero of a rank-one outcome j: its null vector
    # plus a random component of size 10**-6.3 ... 10**-4.4, kept where
    # 1e-12 < p_j <= 1e-9, then a dozen of size 10**-14 ... 10**-7, kept
    # where 0 < p_j <= 1e-12, then a dozen at the null vector itself with
    # p_j = 0 exactly.  With G the inverse Fisher matrix of the other outcomes
    # and c = c_j, Sherman-Morrison gives Tr F^{-1} = Tr G - c^T G^2 c /
    # (p_j + c^T G c), and G stays well conditioned as p_j vanishes, so the
    # formula holds at p_j = 0 too, where the Fisher matrix itself does not
    # exist.  accuracy computes the state's probabilities itself: the same
    # ones off the null vector, so it returns the same value, and at it a
    # p_j of 0 or of a roundoff size, so it meets the same limit
    pom = random_pom(dim, m, 1, rng=seed)
    basis = build_basis(dim)
    model = measurement_matrices(pom, basis)
    c = model.c_matrix
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 36:
        group = checked // 12
        j = int(rng.integers(m))
        kick = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        size = 10 ** rng.uniform(-14, -7) if group else 10 ** rng.uniform(-6.3, -4.4)
        vec = np.linalg.eigh(pom.outcomes[j])[1][:, 0]
        if group < 2:
            vec = vec + size * kick / np.linalg.norm(kick)
        rho = np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
        probs = probabilities(rho, pom)
        if group == 2:
            probs[j] = 0.0
        low, high = [(1e-12, 1e-9), (0.0, 1e-12), (-1.0, 0.0)][group]
        if not (low < probs[j] <= high and probs.argmin() == j):
            continue
        rest = np.arange(m) != j
        g = np.linalg.inv(c[rest].T @ np.diag(1.0 / probs[rest]) @ c[rest])
        want = np.trace(g) - c[j] @ g @ g @ c[j] / (probs[j] + c[j] @ g @ c[j])
        value = model.trace_inverse(probs[None])[0]
        assert abs(value - want) <= 1e-10 * want
        if group < 2:
            assert accuracy(rho, pom, basis) == value
        else:
            assert abs(accuracy(rho, pom, basis) - want) <= 1e-10 * want
        checked += 1


def test_haar_states_give_valid_fisher():
    pom = mub_povm(3)
    rng = np.random.default_rng(15)
    for _ in range(5):
        rho = 0.97 * haar_pure_state(3, rng).matrix + 0.03 * np.eye(3) / 3
        eigs = np.linalg.eigvalsh(_fisher(rho, pom, BASIS3))
        assert eigs[0] > 0


def _mixed_state_model(dim):
    """A rank-one measurement with 2 dim**2 outcomes and 1/p at 7 mixed states."""
    pom = random_pom(dim, 2 * dim * dim, 1, rng=np.random.default_rng(70 + dim))
    probs = np.array(
        [probabilities(random_density(dim, np.random.default_rng(80 + i)), pom) for i in range(7)]
    )
    return measurement_matrices(pom, build_basis(dim)), 1.0 / probs


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_outer_table_is_the_packed_lower_triangle_and_read_only(dim):
    model, _ = _mixed_state_model(dim)
    m, k = model.c_matrix.shape
    table = model.outer_table
    assert table.shape == (m, k * (k + 1) // 2)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # row i of C^T diag(w) C up to its diagonal is one contiguous slice
    c = model.c_matrix
    for i in range(k):
        np.testing.assert_array_equal(
            table[:, i * (i + 1) // 2 : (i + 1) * (i + 2) // 2], c[:, i, None] * c[:, : i + 1]
        )


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_fisher_is_exactly_symmetric_and_matches_the_direct_product(dim):
    model, weights = _mixed_state_model(dim)
    c, k = model.c_matrix, model.c_matrix.shape[1]
    fisher = model.fisher(weights)
    assert fisher.shape == (len(weights), k, k)
    np.testing.assert_array_equal(fisher, fisher.swapaxes(1, 2))
    direct = np.array([c.T @ np.diag(w) @ c for w in weights])
    assert np.abs(fisher - direct).max() <= 1e-13 * np.abs(direct).max()
    single = model.fisher(weights[0])
    assert single.shape == (k, k)
    np.testing.assert_array_equal(single, single.T)


def test_every_array_of_the_model_is_read_only():
    # a caller that writes into a shared array would silently change F2, F3 or
    # the Monte Carlo control means of every later reader of the model
    model = measurement_matrices(random_pom(3, 18, 1, rng=140), BASIS3)
    arrays = {
        name: getattr(model, name)
        for name in (
            "c_matrix", "c_tilde", "p_bar", "singular_values_c", "singular_values_c_tilde",
            "born_table", "outer_table", "x_matrix", "y_matrix", "quadratic_form",
            "cubic_form", "outcomes",
        )
    }
    arrays.update({f"_factor[{j}]": array for j, array in enumerate(model._factor)})
    arrays.update({f"cubic_tails[{j}]": tail for j, tail in enumerate(model.cubic_tails)})
    for name, array in arrays.items():
        assert isinstance(array, np.ndarray), name
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.0
