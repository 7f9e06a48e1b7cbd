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
    build_basis,
    lin_estimator_reduced,
    probabilities,
    qttf_closed_minimal_bases,
    qttf_series,
    random_pom,
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
