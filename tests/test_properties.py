"""Invariants that need no reference values, checked on generated measurements.

Every oracle here is the generating state or the value of the unpermuted,
untransformed measurement.  Examples are derandomized so that the suite
gives the same verdict on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density

from qttf import (
    ClickRecord,
    Pom,
    accuracy,
    build_basis,
    duplicate_outcome,
    lin_estimator_reduced,
    mub_povm,
    probabilities,
    qttf_closed_minimal,
    qttf_closed_minimal_bases,
    qttf_series,
    random_pom,
    sic_povm,
    weighted_linear_inversion,
)

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def measurements(draw):
    """A random measurement at dim 2..4 with dim**2..3 dim**2 outcomes of rank 1-2, and its rng."""
    dim = draw(st.integers(2, 4))
    m = draw(st.integers(dim * dim, 3 * dim * dim))
    rank = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(SEEDS))
    return random_pom(dim, m, rank, rng=rng), rng


def _haar_unitary(dim, rng):
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@SETTINGS
@given(measurements())
def test_reduced_estimator_reproduces_state_from_exact_probabilities(case):
    pom, rng = case
    rho = random_density(pom.dim, rng)
    estimate = lin_estimator_reduced(probabilities(rho, pom), pom, build_basis(pom.dim))
    np.testing.assert_allclose(estimate, rho, atol=1e-9)


@SETTINGS
@given(measurements())
def test_weighted_inversion_recovers_state_from_rounded_counts(case):
    pom, rng = case
    rho = random_density(pom.dim, rng)
    counts = np.round(probabilities(rho, pom) * 10**7).astype(np.int64)
    clicks = ClickRecord(counts=counts, n_total=int(counts.sum()))
    estimate = weighted_linear_inversion(clicks, pom, build_basis(pom.dim))
    np.testing.assert_allclose(estimate, rho, atol=1e-5)


@SETTINGS
@given(measurements())
def test_order_four_series_is_unitarily_and_permutation_invariant(case):
    pom, rng = case
    basis = build_basis(pom.dim)
    value = qttf_series(pom, basis, alpha=1.0, max_order=4).value
    unitary = _haar_unitary(pom.dim, rng)
    rotated = Pom(unitary @ pom.outcomes @ unitary.conj().T)
    permuted = Pom(pom.outcomes[rng.permutation(pom.n_outcomes)])
    for other in (rotated, permuted):
        assert abs(qttf_series(other, basis, alpha=1.0, max_order=4).value - value) <= 1e-9 * value


@SETTINGS
@given(st.integers(2, 4), SEEDS)
def test_bases_closed_form_ignores_the_order_of_bases_and_outcomes(dim, seed):
    rng = np.random.default_rng(seed)
    bases = np.array(
        [
            [np.outer(v, v.conj()) / (dim + 1) for v in _haar_unitary(dim, rng).T]
            for _ in range(dim + 1)
        ]
    )
    basis = build_basis(dim)
    value = qttf_closed_minimal_bases(Pom(bases.reshape(-1, dim, dim)), basis).value
    shuffled = bases[rng.permutation(dim + 1)]
    shuffled = np.array([group[rng.permutation(dim)] for group in shuffled])
    again = qttf_closed_minimal_bases(Pom(shuffled.reshape(-1, dim, dim)), basis).value
    assert abs(again - value) <= 1e-9 * value


@SETTINGS
@given(measurements(), st.integers(2, 3))
def test_splitting_an_outcome_changes_neither_accuracy_nor_the_series(case, parts):
    # A split outcome carries the same information: every order of the
    # expansion of Tr F^{-1} in p - pbar is unchanged, not only the sum.
    pom, rng = case
    basis = build_basis(pom.dim)
    weights = rng.uniform(0.2, 1.0, size=parts)
    weights /= weights.sum()
    split = duplicate_outcome(pom, int(rng.integers(pom.n_outcomes)), weights)
    rho = random_density(pom.dim, rng)
    value = accuracy(rho, pom, basis)
    assert abs(accuracy(rho, split, basis) - value) <= 1e-9 * value
    series = qttf_series(pom, basis, alpha=1.0, max_order=4).value
    assert abs(qttf_series(split, basis, alpha=1.0, max_order=4).value - series) <= 1e-9 * series


@SETTINGS
@given(st.sampled_from(["sic", "mub"]), st.integers(2, 3), SEEDS)
def test_order_four_series_equals_the_closed_forms_with_permuted_outcomes(kind, dim, seed):
    # SIC: dim**2 + dim - 2; dim + 1 mutually unbiased bases: dim**2 - 1.  Both
    # the closed form and the series see the permuted measurement.
    pom, closed, expected = {
        "sic": (sic_povm(dim), qttf_closed_minimal, dim * dim + dim - 2),
        "mub": (mub_povm(dim), qttf_closed_minimal_bases, dim * dim - 1),
    }[kind]
    basis = build_basis(dim)
    rng = np.random.default_rng(seed)
    permuted = Pom(pom.outcomes[rng.permutation(pom.n_outcomes)])
    assert abs(closed(permuted, basis).value - expected) <= 1e-9 * expected
    value = qttf_series(permuted, basis, alpha=1.0, max_order=4).value
    assert abs(value - expected) <= 1e-9 * expected
