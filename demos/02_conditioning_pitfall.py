"""
Condition numbers do not rank measurements
==========================================

A popular shortcut scores a measurement by the condition number of its
probability-to-state map: smaller kappa, better tomography.  The shortcut
fails in both directions, and this script shows each failure on concrete
measurements.
"""

import numpy as np

from qttf import accuracy, build_basis, duplicate_outcome, measurement_matrices, sic_povm
from qttf.cli import search_counterexample_pair

basis = build_basis(2)

# Failure one: kappa moves while the physics stands still.  Splitting the
# last SIC outcome into two equal halves changes no probability content;
# every Fisher matrix, and hence every accuracy, is untouched.
sic = sic_povm(2)
split = duplicate_outcome(sic, 3, [0.5, 0.5])

for pom in (sic, split):
    mats = measurement_matrices(pom, basis)
    sv = ", ".join(f"{s:.4f}" for s in mats.singular_values_c_tilde)
    print(f"{pom.label:<22} kappa={mats.kappa_c_tilde:.4f}  singular values [{sv}]")

rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
print(f"\naccuracy at a test state: {accuracy(rho, sic, basis):.12f} (original)")
print(f"accuracy at a test state: {accuracy(rho, split, basis):.12f} (after split)")

# Failure two: between genuinely different measurements, the ordering by
# kappa can oppose the ordering by accuracy.  The library's search draws
# random rank-one measurements until two of them disagree by at least five
# combined standard errors, a kappa tie ordering no pair.
low, high, info = search_counterexample_pair(
    dim=2, m_choices=[6, 8], rank=1, attempts=40, n_samples=20000, seed=1
)
gap, sigma = info["qttf_gap"], info["combined_stderr"]
print(f"\n{low.label}: kappa {info['kappa_1']:.3f}, qttf {info['qttf_1']:.3f}")
print(f"{high.label}: kappa {info['kappa_2']:.3f}, qttf {info['qttf_2']:.3f}")
print(f"kappa prefers the first yet its average error is {gap:.3f} higher "
      f"({gap / sigma:.0f} standard errors, found after {info['attempts_used']} draws)")
