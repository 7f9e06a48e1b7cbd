"""Regenerate ``reference.json``, the committed reference values of every
benchmark input.

    python3 bench/make_reference.py          # about 6 minutes on one core

Deterministic outputs (series values) are stored as the library computes
them.  Sampled outputs are stored as (mean, per-sample standard deviation,
sample count) from long runs, so a check can combine the reference's own
error with the op's.  Run it only when an input pool changes; a change to
the library must never regenerate the references it is checked against.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings

import numpy as np

import workloads as wl
from run import import_qttf, run_record

MC_REF_SAMPLES = 100_000
MSE_REF_STATES = 600
REF_SEED_OFFSET = 2**40  # keeps reference streams apart from op streams (< 2**31)


def mc_ref(q, pom, basis, seed):
    est = q.transfer.qttf_monte_carlo(pom, basis, MC_REF_SAMPLES, REF_SEED_OFFSET + seed)
    return [est.value, est.std_error * np.sqrt(MC_REF_SAMPLES), MC_REF_SAMPLES]


def mse_ref(q, pom, basis, purity, seed):
    sweep = q.estimation.haar_mse_sweep(
        pom, basis, purity, MSE_REF_STATES, wl.SHOTS, wl.TRIALS, REF_SEED_OFFSET + seed,
        n_qttf_samples=2,
    )
    return [float(sweep.per_state.mean()), float(sweep.per_state.std(ddof=1)), MSE_REF_STATES]


def series(q, pom, basis, order):
    return q.transfer.qttf_series(pom, basis, max_order=order).value


def main() -> int:
    q = import_qttf()
    warnings.simplefilter("ignore")
    started = time.perf_counter()
    bases = {dim: q.operators.build_basis(dim) for dim in (2, 3, 4, 5)}
    poms: dict[str, dict] = {}
    for name in wl.ANCHORS:
        pom = wl.anchor_pom(q, name)
        exact = getattr(q.transfer.reference_values(pom.dim), name[:3])
        poms[name] = {"mc": [exact, 0.0, 1]}
        # The anchors' series terminate at order 2; the checks rely on it.
        for order in (2, 4):
            got = series(q, pom, bases[pom.dim], order)
            if not abs(got - exact) <= wl.RTOL * exact:
                raise ArithmeticError(f"{name} order-{order} series {got!r} != {exact!r}")

    for dim, size in wl.POOL_SIZES.items():
        m = 2 * dim * dim
        for index in range(size):
            pom = wl.pool_pom(q, dim, m, index)
            seed = wl.pool_seed(dim, m, index)
            entry = {"series4": series(q, pom, bases[dim], 4), "mc": mc_ref(q, pom, bases[dim], seed)}
            if dim <= 4:
                entry["series2"] = series(q, pom, bases[dim], 2)
                if index < wl.MSE_POOL:
                    entry["mse"] = {
                        f"{p:g}": mse_ref(q, pom, bases[dim], p, seed + k)
                        for k, p in enumerate(wl.PURITIES)
                    }
            poms[pom.label] = entry
            print(f"{pom.label} {time.perf_counter() - started:.0f}s", file=sys.stderr)

    for dim, m in wl.WIDE_M.items():
        for index in range(wl.WIDE_POOL):
            pom = wl.pool_pom(q, dim, m, index)
            seed = wl.pool_seed(dim, m, index)
            poms[pom.label] = {
                "series2": series(q, pom, bases[dim], 2),
                "mc": mc_ref(q, pom, bases[dim], seed),
            }

    args = wl.SEARCH_ARGS
    purity = wl.FIG2_ARGS["purity"]
    for search_seed in wl.SEARCH_SEEDS:
        found = q.cli.search_counterexample_pair(
            args["dim"], [int(m) for m in args["m"].split(",")], args["rank"],
            args["attempts"], args["samples"], search_seed,
        )
        for k, pom in enumerate(found[:2]):
            seed = 10_000 * search_seed + k
            poms[pom.label] = {
                "series2": series(q, pom, bases[pom.dim], 2),
                "mc": mc_ref(q, pom, bases[pom.dim], seed),
                "mse": {f"{purity:g}": mse_ref(q, pom, bases[pom.dim], purity, seed)},
            }

    fig1: dict[str, dict] = {}
    dim, rank, eps = wl.FIG1_ARGS["dims"], wl.FIG1_ARGS["rank"], wl.FIG1_ARGS["epsilon"]
    for fig1_seed in range(wl.FIG1_SEEDS):
        cells = {}
        for mu in wl.FIG1_MUS:
            mu_key = int(round(mu * 1000))
            terms = []
            for index in range(wl.FIG1_ARGS["n_poms"]):
                base = q.pom.random_pom(
                    dim, int(round(mu * dim * dim)), rank,
                    wl.fig1_rng(fig1_seed, dim, mu_key, rank, index),
                )
                pom = q.pom.admix_white_noise(base, eps)
                mean, sd, n = mc_ref(q, pom, bases[dim], 1000 * fig1_seed + 10 * mu_key + index)
                terms.append([series(q, pom, bases[dim], 2), mean, sd, n])
            cells[f"{mu:g}"] = terms
        fig1[str(fig1_seed)] = cells

    record = run_record(None)
    payload = {
        "about": "Reference values for bench/workloads.py; regenerate with bench/make_reference.py",
        "generated_by": {
            "git_commit": record["git_commit"],
            "numpy": record["numpy"],
            "mc_samples": MC_REF_SAMPLES,
            "mse_states": MSE_REF_STATES,
        },
        "poms": poms,
        "fig1": fig1,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} in {time.perf_counter() - started:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
