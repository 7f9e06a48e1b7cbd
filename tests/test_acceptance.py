"""Acceptance suite: one test, and one pass/fail line, per numbered criterion.

Each test pins the tolerance and the runtime budget of its criterion; the
heavy Monte-Carlo checks state their sample sizes explicitly so reruns are
bit-for-bit reproducible.
"""

import json
import time

import numpy as np
import pytest

import helpers
from qttf import (
    accuracy,
    build_basis,
    duplicate_outcome,
    haar_moment_term,
    load_pom,
    measurement_matrices,
    mub_povm,
    qttf_closed_minimal,
    qttf_closed_minimal_bases,
    qttf_monte_carlo,
    qttf_series,
    random_pom,
    sic_povm,
)
from qttf.cli import bootstrap_ci, main, run_fig1
from qttf.estimation import haar_mse_sweep


def _timed():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def test_criterion_1_closed_form_anchors():
    elapsed = _timed()
    cases = [
        (sic_povm(2), qttf_closed_minimal, 4.0),   # D^2 + D - 2
        (sic_povm(3), qttf_closed_minimal, 10.0),
        (mub_povm(2), qttf_closed_minimal_bases, 3.0),  # D^2 - 1
        (mub_povm(3), qttf_closed_minimal_bases, 8.0),
    ]
    for pom, closed_form, expected in cases:
        basis = build_basis(pom.dim)
        assert abs(closed_form(pom, basis).value - expected) <= 1e-9
        dim = pom.dim
        zeroth = (dim + 1) * (dim * dim - 1) / dim
        assert abs(measurement_matrices(pom, basis).tr_fbar_inv - zeroth) <= 1e-9
    assert elapsed() < 1.0
    print("criterion 1 (closed-form anchors, tol 1e-9): PASS")


def test_criterion_2_condition_number_counterexample():
    elapsed = _timed()
    basis = build_basis(2)
    sic = sic_povm(2)
    base = measurement_matrices(sic, basis)
    np.testing.assert_allclose(
        base.singular_values_c_tilde, [0.7071, 0.4082, 0.4082, 0.4082], atol=5e-4
    )
    assert abs(base.kappa_c_tilde - 1.7321) <= 5e-4

    dup = duplicate_outcome(sic, 3, [0.5, 0.5])  # equal-weight split of outcome 4
    split = measurement_matrices(dup, basis)
    np.testing.assert_allclose(
        split.singular_values_c_tilde, [0.6700, 0.4082, 0.4082, 0.3047], atol=5e-4
    )
    assert abs(split.kappa_c_tilde - 2.1988) <= 5e-4

    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = helpers.random_density(2, rng)
        assert abs(accuracy(rho, sic, basis) - accuracy(rho, dup, basis)) <= 1e-8
    assert elapsed() < 1.0
    print("criterion 2 (conditioning counterexample, tol 5e-4): PASS")


def test_criterion_3_structural_identity_suite():
    elapsed = _timed()
    tol = 1e-9
    rng = np.random.default_rng(11)

    def zero_to_scale(residual, *operands):
        # ill-conditioned draws push X past 1e4; "equals zero" is then a
        # statement about the residual relative to the operand magnitudes
        scale = 1.0
        for operand in operands:
            scale *= max(1.0, float(np.abs(operand).max()))
        return float(np.abs(residual).max()) / scale

    def check(pom, basis):
        aux = measurement_matrices(pom, basis)
        x, y, p_bar = aux.x_matrix, aux.y_matrix, aux.p_bar
        c = measurement_matrices(pom, basis).c_matrix
        x_scale = max(1.0, float(np.abs(x).max()))
        assert np.linalg.eigvalsh((x + x.T) / 2)[0] >= -tol * x_scale
        assert np.linalg.eigvalsh(-(y + y.T) / 2)[0] >= -tol
        assert zero_to_scale(x @ (p_bar[:, None] * y), x, y) <= tol
        assert zero_to_scale(y @ (p_bar[:, None] * y) + y, y, y) <= tol
        assert zero_to_scale(c.T @ y, y) <= tol
        assert np.abs(c.sum(axis=0)).max() <= tol
        if pom.n_outcomes == pom.dim**2:
            assert np.abs(y + 1.0).max() <= tol  # minimally complete
        return aux

    for dim in (2, 3, 4):
        basis = build_basis(dim)
        for _ in range(50):
            m = int(rng.integers(dim * dim, 4 * dim * dim + 1))
            rank = int(rng.integers(1, dim + 1))
            check(random_pom(dim, m, rank, rng), basis)
        check(random_pom(dim, dim * dim, 1, rng), basis)  # force a minimal case

    for dim in (2, 3):
        aux = check(mub_povm(dim), build_basis(dim))
        expected = np.kron(np.eye(dim + 1), -(dim + 1.0) * np.ones((dim, dim)))
        np.testing.assert_allclose(aux.y_matrix, expected, atol=tol)
    assert elapsed() < 10.0
    print("criterion 3 (structural identities, tol 1e-9): PASS")


def test_criterion_4_series_vs_oracle_equivalence():
    elapsed = _timed()
    basis = build_basis(2)
    rng = np.random.default_rng(23)
    poms = [
        random_pom(2, 4, 1, rng),
        random_pom(2, 5, 2, rng),
        random_pom(2, 6, 1, rng),
    ]
    mc_rng = np.random.default_rng(29)
    for pom in poms:
        implemented = [haar_moment_term(pom, build_basis(pom.dim), k) for k in (2, 3, 4)]
        oracle = helpers.oracle_series_terms(pom, basis)
        for value, reference in zip(implemented, oracle):
            assert abs(value - reference) <= 1e-9
        sampled = helpers.mc_series_terms(pom, basis, 1_000_000, mc_rng)
        for value, (mean, stderr) in zip(implemented, sampled):
            # minimal draws make the integrand constant (stderr ~ 1e-13);
            # the 1e-9 floor is the same precision the analytic check uses
            assert abs(value - mean) <= 4.0 * stderr + 1e-9

    closed_cases = [
        (sic_povm(2), qttf_closed_minimal),
        (sic_povm(3), qttf_closed_minimal),
        (mub_povm(2), qttf_closed_minimal_bases),
        (mub_povm(3), qttf_closed_minimal_bases),
    ]
    for pom, closed_form in closed_cases:
        pom_basis = build_basis(pom.dim)
        series2 = qttf_series(pom, pom_basis, alpha=1.0, max_order=2)
        assert abs(series2.value - closed_form(pom, pom_basis).value) <= 1e-9
    assert elapsed() < 300.0
    print("criterion 4 (series terms vs oracle and 1e6-sample MC): PASS")


def test_criterion_5_monte_carlo_consistency():
    elapsed = _timed()
    cases = [
        (sic_povm(2), qttf_closed_minimal, 4.0),
        (mub_povm(2), qttf_closed_minimal_bases, 3.0),
        (sic_povm(3), qttf_closed_minimal, 10.0),
        (mub_povm(3), qttf_closed_minimal_bases, 8.0),
    ]
    for seed, (pom, closed_form, expected) in enumerate(cases, start=40):
        basis = build_basis(pom.dim)
        closed = closed_form(pom, basis).value
        assert abs(closed - expected) <= 1e-9
        estimate = qttf_monte_carlo(pom, basis, 10_000, np.random.default_rng(seed))
        # + 1e-9 keeps the check meaningful when the integrand is constant
        # over pure states and the reported stderr is exactly zero
        assert abs(estimate.value - closed) <= 4.0 * estimate.std_error + 1e-9
    assert elapsed() < 120.0
    print("criterion 5 (MC within 4 stderr of closed forms): PASS")


def test_criterion_6_asymptotic_mse_validation():
    elapsed = _timed()
    basis = build_basis(2)
    for seed, (pom, target) in enumerate([(sic_povm(2), 4.0), (mub_povm(2), 3.0)], start=60):
        sweep = haar_mse_sweep(
            pom, basis, 0.99, n_states=50, n_shots=100_000, n_trials=200,
            rng=np.random.default_rng(seed),
        )
        assert abs(sweep.mean_scaled_mse - target) <= 0.10 * target
    assert elapsed() < 600.0
    print("criterion 6 (scaled MSE within 10% of 4.0 and 3.0): PASS")


def test_criterion_7_counterexample_search(tmp_path):
    elapsed = _timed()
    first = tmp_path / "low_kappa.json"
    second = tmp_path / "high_kappa.json"
    out = tmp_path / "fig2.csv"
    code = main([
        "fig2", str(first), str(second), "--search", "--dim", "2",
        "--m", "6,8", "--rank", "1", "--attempts", "200", "--samples", "4000",
        "--states", "3", "--shots", "2000", "--trials", "8",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    info = json.loads(header[len("# config: ") :])["search_info"]
    assert info["kappa_1"] < info["kappa_2"]
    assert info["qttf_1"] > info["qttf_2"]
    assert info["qttf_gap"] >= 5.0 * info["combined_stderr"]

    basis = build_basis(2)
    k1 = measurement_matrices(load_pom(first), basis).kappa_c_tilde
    k2 = measurement_matrices(load_pom(second), basis).kappa_c_tilde
    assert k1 < k2  # the persisted files are the discordant pair itself
    assert elapsed() < 600.0
    print("criterion 7 (fig2 --search persists a discordant pair): PASS")


def test_criterion_8_fig1_trend_reproduction():
    elapsed = _timed()
    clean = run_fig1([2], [2.0], [1], 0.0, n_poms=50, n_haar=500, seed=0)[0]
    noisy = run_fig1([2], [2.0], [1], 0.05, n_poms=50, n_haar=500, seed=0)[0]
    limit = 2 / (2.0 * (2 + 2))
    assert clean["limit"] == limit == 0.25
    for row in (clean, noisy):
        assert 0.0 < row["halved_rel_err"] < limit
    assert noisy["halved_rel_err"] < clean["halved_rel_err"]
    # measurements are paired draw for draw across the two epsilon runs
    diffs = np.asarray(clean["values"]) - np.asarray(noisy["values"])
    ci_lo, ci_hi = bootstrap_ci(diffs, np.random.default_rng(1))
    assert ci_lo > 0.0  # noise strictly shrinks the error, CI excludes zero
    assert elapsed() < 1800.0
    print("criterion 8 (fig1 trend: positive, below 0.25, shrinks with noise): PASS")


def test_criterion_9_convergence_radius_check():
    elapsed = _timed()
    rng = np.random.default_rng(97)
    for index in range(20):
        dim = 2 if index % 2 == 0 else 3
        m = int(rng.integers(dim * dim, 2 * dim * dim + 1))
        rank = int(rng.integers(1, dim + 1))
        pom = random_pom(dim, m, rank, rng)
        basis = build_basis(dim)
        aux = measurement_matrices(pom, basis)
        alpha = 0.9 * aux.alpha0
        vecs = rng.normal(size=(100, dim)) + 1j * rng.normal(size=(100, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        probs = np.einsum("si,mij,sj->sm", vecs.conj(), pom.outcomes, vecs).real
        deltas = alpha * probs - aux.p_bar
        radii = np.abs(np.linalg.eigvals(aux.y_matrix[None] * deltas[:, None, :])).max(axis=1)
        assert radii.max() < 1.0
    assert elapsed() < 60.0
    print("criterion 9 (spectral radius < 1 at 0.9 alpha0): PASS")
