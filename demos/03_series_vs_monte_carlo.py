"""
The moment series and where it converges
========================================

For measurements without closed forms the library offers two routes to the
Haar-averaged accuracy: a term-by-term moment series around the maximally
mixed state, and direct Monte Carlo over pure states.  The series is an
expansion in Delta = alpha*P - Pbar with a guaranteed radius alpha0; physical
averages sit at alpha = 1, usually beyond it, where truncation still works
but the tail is no longer certified.
"""

import numpy as np

from qttf import (
    auxiliary_matrices,
    build_basis,
    qttf_monte_carlo,
    qttf_series,
    random_pom,
)

basis = build_basis(2)
pom = random_pom(2, 10, 2, np.random.default_rng(8))
aux = auxiliary_matrices(pom, basis)
print(f"measurement: {pom.label}")
print(f"certified radius alpha0 = {aux.alpha0:.4f}")

# Inside the radius every added order must shrink the truncation error.
alpha = 0.9 * aux.alpha0
print(f"\nseries at alpha = 0.9*alpha0 = {alpha:.4f}")
for order in (2, 3, 4):
    est = qttf_series(pom, basis, alpha=alpha, max_order=order)
    contrib = ", ".join(f"{c:+.5f}" for c in est.params["contributions"])
    print(f"  order {order}: value {est.value:.6f}   contributions [{contrib}]")

# At alpha = 1 the certificate no longer applies, as params shows by
# recording alpha against alpha0; the order-2 truncation is the standard
# working approximation there.
series2 = qttf_series(pom, basis, alpha=1.0, max_order=2)
radius = f"alpha = {series2.params['alpha']:g} against alpha0 = {series2.params['alpha0']:.4f}"
print(f"\nalpha = 1 order-2 value: {series2.value:.4f} ({radius})")

mc = qttf_monte_carlo(pom, basis, 200_000, rng=9)
print(f"Monte Carlo, 200k states: {mc.value:.4f} +- {mc.std_error:.4f}")
print(f"order-2 overshoot: {series2.value - mc.value:+.4f} "
      f"({(series2.value - mc.value) / (2 * mc.value):+.2%} as halved relative error)")

# The Monte Carlo estimate is reproducible: the seed rides along in params.
again = qttf_monte_carlo(pom, basis, 200_000, rng=9)
assert again.value == mc.value
print(f"\nseeded rerun identical, params: {mc.params}")
