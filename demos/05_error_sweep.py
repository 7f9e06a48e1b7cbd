"""
How good is the order-2 value across random measurements?
=========================================================

Sweep random rank-one measurements with M = mu * D * D outcomes and measure
the halved relative error of the order-2 series against Monte Carlo ground
truth.  Two regularities emerge: the error stays under each row's limit,
half the covariant limiting relative error D/(D+2) of reference_values, and
admixing white noise into the outcomes shrinks it, since noise pulls every
probability toward its mean and the expansion point.
"""

import numpy as np

from qttf.cli import bootstrap_ci, run_fig1

SEED = 21

print("D  mu    eps    halved rel err   95% CI            ceiling")
rows = {}
for epsilon in (0.0, 0.05, 0.1):
    for row in run_fig1([2], [1.25, 2.0, 3.0], [1], epsilon,
                        n_poms=24, n_haar=400, seed=SEED):
        rows[(row["mu"], epsilon)] = row
        print(f"{row['D']}  {row['mu']:<4}  {row['epsilon']:<5}  "
              f"{row['halved_rel_err']:<15.4f}  [{row['ci_lo']:.4f}, {row['ci_hi']:.4f}]"
              f"   {row['limit']}")

# Same seed means the epsilon runs share their base measurements and their
# Monte Carlo states, so differences can be read per measurement.
for mu in (1.25, 2.0, 3.0):
    clean = np.asarray(rows[(mu, 0.0)]["values"])
    noisy = np.asarray(rows[(mu, 0.05)]["values"])
    lo, hi = bootstrap_ci(clean - noisy, np.random.default_rng(1))
    verdict = "shrinks" if lo > 0 else "inconclusive"
    print(f"mu={mu}: paired error drop at eps=0.05 is [{lo:+.4f}, {hi:+.4f}], {verdict}")

ceiling = min(row["limit"] for row in rows.values())
worst = max(row["halved_rel_err"] for row in rows.values())
print(f"\nworst cell {worst:.4f} stays below the ceiling {ceiling}")
assert worst < ceiling
