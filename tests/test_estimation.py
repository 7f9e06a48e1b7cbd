"""Click sampling, linear inversion estimators, and scaled-MSE experiments."""

import numpy as np
import pytest

from helpers import random_density

from qttf import (
    ClickRecord,
    DimensionMismatchError,
    NotInformationallyCompleteError,
    Pom,
    ZeroProbabilityError,
    accuracy,
    bloch_coords,
    build_basis,
    duplicate_outcome,
    haar_mse_sweep,
    haar_state_vectors,
    lin_estimator_reduced,
    measurement_matrices,
    mixing_weight_for_purity,
    mse_experiment,
    mub_povm,
    probabilities,
    qttf_monte_carlo,
    qttf_series,
    qubit_sic,
    random_pom,
    sample_clicks,
    weighted_linear_inversion,
)

BASIS2 = build_basis(2)


# Every route that needs the expansion or a unique inversion refuses a
# rank-deficient measurement: measurement_matrices builds no model of one.
_RANK_DEFICIENT_ROUTES = {
    "accuracy": lambda pom: accuracy(np.eye(2) / 2, pom, BASIS2),
    "qttf_monte_carlo": lambda pom: qttf_monte_carlo(pom, BASIS2, 100, rng=1),
    "qttf_series": lambda pom: qttf_series(pom, BASIS2, max_order=4),
    "lin_estimator_reduced": lambda pom: lin_estimator_reduced(
        np.full(pom.n_outcomes, 1 / pom.n_outcomes), pom, BASIS2
    ),
    "measurement_matrices": lambda pom: measurement_matrices(pom, BASIS2),
    "mse_experiment": lambda pom: mse_experiment(np.eye(2) / 2, pom, BASIS2, 100, 5, rng=1),
}


@pytest.mark.parametrize("route", sorted(_RANK_DEFICIENT_ROUTES))
def test_routes_refuse_a_rank_deficient_measurement(route):
    # four outcomes, as many as a minimal measurement, but all diagonal: C has rank 1
    z_split = Pom(np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])] * 2), label="z split")
    with pytest.raises(NotInformationallyCompleteError, match="s_min"):
        _RANK_DEFICIENT_ROUTES[route](z_split)


# States that fail one DensityMatrix check each, with that check's message.
_BAD_STATES = {
    "non-PSD": (np.diag([1.2, -0.2]), "eigenvalue below"),
    "trace-2": (np.eye(2), "trace must be 1"),
    "non-Hermitian": (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
}
_STATE_CONSUMERS = {
    "accuracy": lambda rho, pom, rng: accuracy(rho, pom, BASIS2),
    "mse_experiment": lambda rho, pom, rng: mse_experiment(rho, pom, BASIS2, 1000, 20, rng),
    "probabilities": lambda rho, pom, rng: probabilities(rho, pom),
    "sample_clicks": lambda rho, pom, rng: sample_clicks(rho, pom, 100, rng),
}


@pytest.mark.parametrize("state", sorted(_BAD_STATES))
@pytest.mark.parametrize("function", sorted(_STATE_CONSUMERS))
def test_state_is_validated_before_any_work(function, state):
    # the state is checked first: the error names the state, not the
    # measurement or a probability cell, and no click is drawn
    rho, message = _BAD_STATES[state]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        _STATE_CONSUMERS[function](rho, random_pom(2, 6, 1, 3), rng)
    assert rng.bit_generator.state == before


def test_sample_clicks_counts_and_determinism():
    pom = qubit_sic()
    rho = random_density(2, np.random.default_rng(1))
    clicks = sample_clicks(rho, pom, 5000, np.random.default_rng(2))
    assert clicks.counts.sum() == clicks.n_total == 5000
    assert clicks.counts.shape == (4,)
    assert clicks.pom_label == pom.label
    again = sample_clicks(rho, pom, 5000, np.random.default_rng(2))
    np.testing.assert_array_equal(clicks.counts, again.counts)
    assert abs(clicks.frequencies.sum() - 1.0) < 1e-12


def test_click_record_validation():
    with pytest.raises(ValueError):
        ClickRecord(counts=np.array([3, -1]))
    with pytest.raises(ValueError):
        sample_clicks(np.eye(2) / 2, qubit_sic(), 0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "counts, message",
    [
        ([1.5, 2.5, 0, 0], "integers"),
        ([], "non-empty"),
        ([np.nan, 1, 1, 1], "finite"),
        ([np.inf, 0, 0, 0], "finite"),
        ([0, 0, 0, 0], "at least one click"),
    ],
)
def test_click_record_refuses_fractional_non_finite_and_empty_counts(counts, message):
    # the int64 cast would floor [1.5, 2.5, 0, 0] to [1, 2, 0, 0]
    with pytest.raises(ValueError, match=message):
        ClickRecord(counts=counts)


def test_click_record_accepts_integral_float_counts():
    record = ClickRecord(counts=[1.0, 2.0, 0.0, 0.0])
    assert record.counts.dtype == np.int64
    assert record.n_total == 3 and type(record.n_total) is int
    np.testing.assert_array_equal(record.counts, [1, 2, 0, 0])


@pytest.mark.parametrize(
    "freq, message",
    [
        ([0.5, 0.5, np.nan, 0.0], "finite"),
        ([0.5, 0.5, np.inf, -np.inf], "finite"),
        ([], "non-empty"),
    ],
)
def test_frequency_vector_must_be_finite_and_non_empty(freq, message):
    with pytest.raises(ValueError, match=message):
        lin_estimator_reduced(np.array(freq), qubit_sic(), build_basis(2))


@pytest.mark.parametrize("n_shots", [10.5, 10.0])
def test_sample_clicks_refuses_a_non_integer_shot_count(n_shots):
    with pytest.raises(ValueError, match="n_shots must be an integer"):
        sample_clicks(np.eye(2) / 2, qubit_sic(), n_shots, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n_shots, n_trials, name", [(100.5, 10, "n_shots"), (100, 2.5, "n_trials")]
)
def test_experiments_refuse_non_integer_run_sizes(n_shots, n_trials, name):
    pom = qubit_sic()
    rho = random_density(2, np.random.default_rng(31))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        mse_experiment(rho, pom, BASIS2, n_shots, n_trials, rng=0)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        haar_mse_sweep(pom, BASIS2, 0.9, 2, n_shots, n_trials, rng=0)


@pytest.mark.parametrize("count", [2.0, True])
@pytest.mark.parametrize("name", ["n_states", "n_qttf_samples"])
def test_sweep_refuses_non_integer_state_and_sample_counts(name, count):
    sizes = {"n_states": 3, "n_qttf_samples": 200, name: count}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        haar_mse_sweep(qubit_sic(), BASIS2, 0.9, n_shots=100, n_trials=5, rng=0, **sizes)


def test_run_sizes_accept_numpy_integers():
    pom = qubit_sic()
    rho = random_density(2, np.random.default_rng(32))
    clicks = sample_clicks(rho, pom, np.int64(40), np.random.default_rng(3))
    assert clicks.n_total == 40 and clicks.counts.sum() == 40
    native = mse_experiment(rho, pom, BASIS2, 100, 5, rng=4)
    numpy_sized = mse_experiment(rho, pom, BASIS2, np.int32(100), np.int64(5), rng=4)
    assert numpy_sized == native


def test_reduced_estimator_inverts_consistent_data():
    pom = random_pom(2, 6, 1, rng=np.random.default_rng(3))
    rho = random_density(2, np.random.default_rng(4))
    estimate = lin_estimator_reduced(probabilities(rho, pom), pom, BASIS2)
    np.testing.assert_allclose(estimate, rho, atol=1e-10)


def test_reduced_estimator_returns_mixed_state_for_mean_data():
    pom = qubit_sic()
    p_bar = measurement_matrices(pom, BASIS2).p_bar
    estimate = lin_estimator_reduced(p_bar, pom, BASIS2)
    np.testing.assert_allclose(estimate, np.eye(2) / 2, atol=1e-12)


def test_reduced_estimator_trace_is_exactly_one():
    pom = qubit_sic()
    rho = random_density(2, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for _ in range(20):
        clicks = sample_clicks(rho, pom, 500, rng)
        estimate = lin_estimator_reduced(clicks, pom, BASIS2)
        assert abs(np.trace(estimate).real - 1.0) < 1e-12
        assert np.abs(estimate - estimate.conj().T).max() < 1e-12


def test_reduced_estimator_can_leave_the_state_space():
    pom = qubit_sic()
    vec = np.array([1.0, 0.0], dtype=complex)
    rho = np.outer(vec, vec.conj())  # pure state: noise pushes estimates outside
    rng = np.random.default_rng(7)
    smallest = min(
        np.linalg.eigvalsh(lin_estimator_reduced(sample_clicks(rho, pom, 40, rng), pom, BASIS2))[0]
        for _ in range(50)
    )
    assert smallest < -1e-3


def test_reduced_estimator_keeps_unit_trace_on_noisy_overcomplete_data():
    pom = duplicate_outcome(qubit_sic(), 3, [0.7, 0.3])
    rho = random_density(2, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    for _ in range(20):
        clicks = sample_clicks(rho, pom, 1000, rng)
        estimate = lin_estimator_reduced(clicks, pom, BASIS2)
        assert abs(np.trace(estimate).real - 1.0) < 1e-10
        np.testing.assert_allclose(estimate, estimate.conj().T, atol=1e-12)


def test_raw_full_basis_pseudoinverse_loses_unit_trace():
    # the estimator fits the traceless coordinates only, because the plain
    # pseudoinverse over the full basis drifts off trace whenever the
    # all-ones vector leaves the measurement matrix column space (here:
    # unequal duplication weights)
    pom = duplicate_outcome(qubit_sic(), 3, [0.7, 0.3])
    matrices = measurement_matrices(pom, BASIS2)
    pinv = np.linalg.pinv(matrices.c_tilde)
    rho = random_density(2, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    violations = []
    for _ in range(20):
        clicks = sample_clicks(rho, pom, 1000, rng)
        gamma = pinv @ clicks.frequencies
        raw_trace = np.sqrt(2.0) * gamma[0]
        violations.append(abs(raw_trace - 1.0))
        estimate = lin_estimator_reduced(clicks, pom, BASIS2)
        assert abs(np.trace(estimate).real - 1.0) < 1e-10
    assert max(violations) > 1e-6


def test_raw_pseudoinverse_trace_is_safe_for_square_matrices():
    # with dim**2 outcomes the full matrix is square and invertible, so the
    # raw pseudoinverse cannot drift: frequencies are reproduced exactly and
    # the trace constraint is implied by the unit frequency sum
    pom = qubit_sic()
    pinv = np.linalg.pinv(measurement_matrices(pom, BASIS2).c_tilde)
    rho = random_density(2, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    for _ in range(20):
        clicks = sample_clicks(rho, pom, 1000, rng)
        raw_trace = np.sqrt(2.0) * (pinv @ clicks.frequencies)[0]
        assert abs(raw_trace - 1.0) < 1e-12


def test_estimators_reject_incomplete_or_mismatched_input():
    trivial = Pom(np.eye(2)[None], label="trivial")
    with pytest.raises(NotInformationallyCompleteError):
        lin_estimator_reduced(np.array([1.0]), trivial, BASIS2)
    with pytest.raises(DimensionMismatchError):
        lin_estimator_reduced(np.array([0.5, 0.5]), qubit_sic(), BASIS2)
    with pytest.raises(ValueError):
        lin_estimator_reduced(np.array([0.9, 0.2, -0.05, -0.05]), qubit_sic(), BASIS2)
    # the weights need the click total, which a bare frequency vector lacks
    with pytest.raises(TypeError, match="n_total"):
        weighted_linear_inversion(np.full(4, 0.25), qubit_sic(), BASIS2)


def test_hilbert_schmidt_error_equals_coordinate_error():
    pom = random_pom(2, 6, 1, rng=np.random.default_rng(16))
    rho = random_density(2, np.random.default_rng(17))
    clicks = sample_clicks(rho, pom, 300, np.random.default_rng(18))
    estimate = lin_estimator_reduced(clicks, pom, BASIS2)
    hs_sq = np.abs(estimate - rho).__pow__(2).sum()
    coords_sq = ((bloch_coords(estimate, BASIS2) - bloch_coords(rho, BASIS2)) ** 2).sum()
    assert abs(hs_sq - coords_sq) < 1e-12


def test_reduced_estimator_is_unbiased():
    pom = qubit_sic()
    rho = random_density(2, np.random.default_rng(19))
    target = bloch_coords(rho, BASIS2)
    rng = np.random.default_rng(20)
    n_trials, n_shots = 600, 400
    coords = np.empty((n_trials, 3))
    for t in range(n_trials):
        clicks = sample_clicks(rho, pom, n_shots, rng)
        coords[t] = bloch_coords(lin_estimator_reduced(clicks, pom, BASIS2), BASIS2)
    stderr = coords.std(axis=0, ddof=1) / np.sqrt(n_trials)
    assert np.all(np.abs(coords.mean(axis=0) - target) < 4.5 * stderr)


def test_weighted_inversion_recovers_consistent_clicks():
    pom = mub_povm(2)
    rho = random_density(2, np.random.default_rng(21))
    big = 10**7
    counts = np.round(probabilities(rho, pom) * big).astype(np.int64)
    clicks = ClickRecord(counts=counts)
    estimate = weighted_linear_inversion(clicks, pom, BASIS2)
    np.testing.assert_allclose(estimate, rho, atol=1e-5)


def test_mse_experiment_matches_prediction_for_weighted_scheme():
    pom = mub_povm(2)
    rho = random_density(2, np.random.default_rng(22))
    report = mse_experiment(rho, pom, BASIS2, n_shots=100000, n_trials=400, rng=23)
    assert report.predicted == pytest.approx(accuracy(rho, pom, BASIS2))
    assert report.rel_gap < 0.15
    assert report.n_total == 100000 and report.n_trials == 400


def test_mse_experiment_unweighted_is_suboptimal_for_overcomplete():
    # for measurements with more than dim**2 outcomes the plain pseudoinverse
    # is unbiased but inefficient; the gap is widest near pure states, where
    # the weighted scheme tracks the Fisher prediction and the unweighted one
    # sits well above it
    pom = mub_povm(2)
    rng = np.random.default_rng(24)
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec /= np.linalg.norm(vec)
    w = mixing_weight_for_purity(0.99, 2)
    rho = w * np.outer(vec, vec.conj()) + (1 - w) * np.eye(2) / 2
    weighted = mse_experiment(rho, pom, BASIS2, 50000, 300, rng=25, weighting="probability")
    plain = mse_experiment(rho, pom, BASIS2, 50000, 300, rng=26, weighting="none")
    assert plain.scaled_mse > weighted.scaled_mse * 1.1
    assert weighted.rel_gap < 0.2


def test_mse_experiment_weighting_equivalence_for_minimal():
    # with exactly dim**2 outcomes both schemes solve the same square system
    pom = qubit_sic()
    rho = random_density(2, np.random.default_rng(27))
    weighted = mse_experiment(rho, pom, BASIS2, 20000, 200, rng=28, weighting="probability")
    plain = mse_experiment(rho, pom, BASIS2, 20000, 200, rng=28, weighting="none")
    assert weighted.scaled_mse == pytest.approx(plain.scaled_mse, rel=1e-10)


def test_mse_experiment_validation():
    pom = qubit_sic()
    rho = random_density(2, np.random.default_rng(29))
    with pytest.raises(ValueError):
        mse_experiment(rho, pom, BASIS2, 100, 1, rng=0)
    with pytest.raises(ValueError):
        mse_experiment(rho, pom, BASIS2, 100, 10, rng=0, weighting="inverse")
    for n_shots in (0, -5):
        with pytest.raises(ValueError, match="n_shots"):
            mse_experiment(rho, pom, BASIS2, n_shots, 10, rng=0)
        with pytest.raises(ValueError, match="n_shots"):
            haar_mse_sweep(pom, BASIS2, 0.9, n_states=2, n_shots=n_shots, n_trials=10, rng=0)
    vec = np.linalg.eigh(pom.outcomes[0])[1][:, 0]
    pure = np.outer(vec, vec.conj())
    with pytest.raises(ZeroProbabilityError):
        mse_experiment(pure, pom, BASIS2, 100, 10, rng=0)
    # refused before any state is drawn
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_qttf_samples"):
        haar_mse_sweep(pom, BASIS2, 0.9, 2, 100, 10, rng=rng, n_qttf_samples=1)
    assert rng.bit_generator.state == before


def test_mixing_weight_reaches_target_purity():
    rng = np.random.default_rng(30)
    for dim, purity in [(2, 0.99), (2, 0.6), (3, 0.5)]:
        w = mixing_weight_for_purity(purity, dim)
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        rho = w * np.outer(vec, vec.conj()) + (1 - w) * np.eye(dim) / dim
        assert abs(np.trace(rho @ rho).real - purity) < 1e-12
    with pytest.raises(ValueError):
        mixing_weight_for_purity(0.4, 2)  # below 1/dim
    with pytest.raises(ValueError):
        mixing_weight_for_purity(1.0, 2)


def test_haar_mse_sweep_shapes_and_determinism():
    pom = qubit_sic()
    result = haar_mse_sweep(pom, BASIS2, 0.99, n_states=4, n_shots=4000, n_trials=40, rng=31)
    assert result.per_state.shape == (4,)
    assert result.mean_scaled_mse == pytest.approx(result.per_state.mean())
    assert result.scaled_mse_stderr > 0
    assert result.qttf_mc.method == "monte_carlo"
    assert result.qttf_series2.method == "series"
    again = haar_mse_sweep(pom, BASIS2, 0.99, n_states=4, n_shots=4000, n_trials=40, rng=31)
    np.testing.assert_array_equal(result.per_state, again.per_state)


def test_haar_mse_sweep_tracks_transfer_value():
    # for the qubit SIC the transfer value is exactly 4 and the estimator is
    # efficient, so even a small sweep lands nearby
    pom = qubit_sic()
    result = haar_mse_sweep(pom, BASIS2, 0.99, n_states=6, n_shots=20000, n_trials=120, rng=32)
    assert abs(result.qttf_mc.value - 4.0) < 1e-9
    assert abs(result.qttf_series2.value - 4.0) < 1e-9
    assert abs(result.mean_scaled_mse - 4.0) < 0.4


@pytest.mark.parametrize(
    "dim,rank,n_states,n_trials",
    [
        (2, 1, 6, 40),  # one block of 240 click runs
        (3, 2, 23, 50),  # blocks of 5 states and a remainder of 3
        (4, 1, 12, 50),  # K = 15: blocks of 5, 5 and 2 states
        (4, 2, 3, 100),  # blocks of 2 and 1 states
        (2, 2, 2, 600),  # more trials than a block holds: one state per block
        (3, 1, 2, 600),
    ],
)
def test_haar_mse_sweep_matches_a_per_state_replay(dim, rank, n_states, n_trials):
    # Replays the sweep's stream one state at a time: the Haar draw, then per
    # state Born probabilities, Bloch target and clicks, each click run
    # inverted by a least-squares solve on sqrt(W) C, then the Monte Carlo.
    pom = random_pom(dim, 2 * dim * dim + 1, rank, rng=np.random.default_rng(40 + dim))
    basis = build_basis(dim)
    n_shots, purity, n_samples, seed = 700, 0.8, 40, 50 + dim
    result = haar_mse_sweep(
        pom, basis, purity, n_states, n_shots, n_trials, seed, n_qttf_samples=n_samples
    )
    c_matrix = np.einsum("mij,kji->mk", pom.outcomes, basis.traceless_ops).real
    p_bar = np.einsum("mii->m", pom.outcomes).real / dim
    weight = mixing_weight_for_purity(purity, dim)
    rng = np.random.default_rng(seed)
    expected = []
    for vec in haar_state_vectors(dim, n_states, rng):
        rho = weight * np.outer(vec, vec.conj()) + (1 - weight) * np.eye(dim) / dim
        probs = probabilities(rho, pom)
        target = bloch_coords(rho, basis)
        squared = []
        for freq in rng.multinomial(n_shots, probs / probs.sum(), size=n_trials) / n_shots:
            root_w = 1.0 / np.sqrt(np.maximum(freq, 0.5 / n_shots))
            coords = np.linalg.lstsq(root_w[:, None] * c_matrix, root_w * (freq - p_bar))[0]
            squared.append(np.sum((coords - target) ** 2))
        expected.append(n_shots * np.mean(squared))
    np.testing.assert_allclose(result.per_state, expected, rtol=1e-12, atol=0)
    assert result.qttf_mc.value == qttf_monte_carlo(pom, basis, n_samples, rng).value
