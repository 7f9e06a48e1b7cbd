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

from qttf.cli import run_fig1

SEED = 21

print("D  mu    eps    halved rel err        ceiling")
rows = {}
for epsilon in (0.0, 0.05, 0.1):
    for row in run_fig1([2], [1.25, 2.0, 3.0], [1], epsilon,
                        n_poms=24, n_haar=400, seed=SEED):
        rows[(row["mu"], epsilon)] = row
        print(f"{row['D']}  {row['mu']:<4}  {row['epsilon']:<5}  "
              f"{row['halved_rel_err']:.4f} +/- {row['halved_rel_err_stderr']:.4f}"
              f"   {row['limit']}")

# Same seed means the epsilon runs share their base measurements and their
# Monte Carlo states, so differences can be read per measurement.  The drop
# gets the bar of every cell, the standard deviation over sqrt(n), and counts
# as a shrink only past 5 of its bars, as compare reads a pair.
for mu in (1.25, 2.0, 3.0):
    drop = np.asarray(rows[(mu, 0.0)]["values"]) - np.asarray(rows[(mu, 0.05)]["values"])
    bar = drop.std(ddof=1) / np.sqrt(drop.size)
    verdict = "shrinks" if drop.mean() > 5 * bar else "inconclusive"
    print(f"mu={mu}: paired error drop at eps=0.05 is {drop.mean():+.4f} +/- {bar:.4f}, "
          f"z = {drop.mean() / bar:.1f}, {verdict}")

ceiling = min(row["limit"] for row in rows.values())
worst = max(row["halved_rel_err"] for row in rows.values())
print(f"\nworst cell {worst:.4f} stays below the ceiling {ceiling}")
assert worst < ceiling
