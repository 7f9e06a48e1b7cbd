"""The four benchmark workloads: their inputs, their ops and their output checks.

Every input is drawn from a committed pool, so that each output has a
committed reference value (see ``reference.json`` and ``make_reference.py``).
The workload seed picks pool members and the random streams of the sampled
ops; the library only ever sees the generated inputs.

A workload is built by ``prepare(q, name, seed, workdir, refs)``, where ``q``
is the imported ``qttf`` package.  Every call into the library goes through a
module attribute of ``q`` at call time (``q.transfer.qttf_series``, ...), so
the tracer in ``tracing.py`` sees it when it has wrapped that attribute.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("series", "monte_carlo", "mse_sweep", "cli")

# Seeded rank-1 random measurements with M = 2 D^2 outcomes, per dimension.
POOL_SIZES = {2: 24, 3: 24, 4: 24, 5: 12}
# Measurements with M > 4 D^2, which send qttf_auto to Monte Carlo.
WIDE_M = {2: 20, 3: 40}
WIDE_POOL = 8
ANCHORS = ("sic2", "mub2", "sic3", "mub3")

# series: (dimension, random ops per pass); plus the four anchors and one
# streamed-quartic op.  Ranked by latency, D=2 and D=3 ops hold 60 % of a
# pass and D=4 ops the next 35 %, so p50 falls inside the D=3 class and p90
# inside the D=4 class.
SERIES_MIX = ((2, 8), (3, 12), (4, 14), (5, 1))
STREAMED_DIM = 4

# monte_carlo: (dimension, ops per pass, samples per op).  Dimension 2 is the
# qubit SIC (zero variance, exactly 4).  p50 falls inside the D=4 class (35-80 %
# of ops), p90 inside the D=5 class (the top 20 %).
MC_MIX = ((2, 4, 1000), (3, 10, 1000), (4, 18, 2000), (5, 8, 2000))

# mse_sweep: (dimension, measurements per pass, Haar states per sweep); each
# measurement is swept at every purity.  p50 falls inside the D=3 class
# (33-67 % of ops), p90 inside the D=4 class.  The click sampler's cost and
# the error bars depend on the measurement, so every pass sweeps the whole
# MSE pool and the seed picks the states and click streams.
SWEEP_MIX = ((2, 8, 12), (3, 8, 24), (4, 8, 48))
PURITIES = (0.6, 0.8, 0.95)
MSE_POOL = 8  # the first MSE_POOL members of the D=2..4 pools carry MSE references
SHOTS = 1000
TRIALS = 50
SWEEP_QTTF_SAMPLES = 200

# cli.  compare sets: SIC, MUB, one M = 2 D^2 and one wide measurement, so that
# qttf_auto takes all four routes.  Four D=2 compares, three fig1 and four fig2
# runs are the fast class (11 of 16 ops, p50); two searches sit between the
# classes and three D=3 compares are the slow class (the top 19 %, p90).
COMPARE_MIX = ((2, 4, 2000), (3, 3, 4000))  # (dimension, ops per pass, --samples)
FIG1_SEEDS = 8
FIG1_PER_PASS = 3
FIG1_MUS = (1.5, 2.0)
FIG1_ARGS = {"dims": 2, "rank": 1, "n_poms": 3, "n_haar": 200, "epsilon": 0.05}
FIG2_PAIRS_PER_PASS = 4  # all eight D=2 MSE-pool members, paired by the seed
FIG2_ARGS = {"purity": 0.8, "states": 12, "shots": SHOTS, "trials": TRIALS, "samples": 500}
# Search seeds (of 0..39) whose search ends after 6 to 10 attempts and whose
# pair's fig2 rows have a mean (rse / 1 %)^2 between 0.5 and 1.2, so that the
# seed does not decide how much searching a pass does or its time to accuracy.
SEARCH_SEEDS = (1, 6, 8, 10, 11, 13, 21, 23, 29, 30, 32, 38)
SEARCHES_PER_PASS = 2
SEARCH_ARGS = {"dim": 2, "m": "6,8", "rank": 1, "attempts": 60, "samples": 500}

N_SIGMA = 5.0
RTOL = 1e-9


def pool_seed(dim: int, n_outcomes: int, index: int) -> int:
    return 1_000_000 * dim + 1_000 * n_outcomes + index


def pool_pom(q, dim: int, n_outcomes: int, index: int):
    """Pool member; its label, "random(dim=..,m=..,rank=1,seed=..)", keys its references."""
    return q.pom.random_pom(dim, n_outcomes, 1, rng=pool_seed(dim, n_outcomes, index))


def anchor_pom(q, name: str):
    kind, dim = name[:3], int(name[3:])
    return q.pom.sic_povm(dim) if kind == "sic" else q.pom.mub_povm(dim)


def fig1_rng(*key_parts) -> np.random.Generator:
    """The keying run_fig1 documents: measurements depend on (seed, dim, mu, rank, index)."""
    return np.random.default_rng([int(part) for part in key_parts])


# ---------------------------------------------------------------------------
# Output checks


class Outcome:
    """Result of checking one op: failures, the values that were checked, and
    the relative standard errors of its sampled qttf outputs."""

    def __init__(self):
        self.failures: list[str] = []
        self.values: list[float] = []
        self.rses: list[float] = []

    def exact(self, what: str, got: float, want: float) -> None:
        self.values.append(float(got))
        if not abs(got - want) <= RTOL * max(abs(want), 1e-300):
            self.failures.append(f"{what}: got {got!r}, reference {want!r} (rtol {RTOL})")

    def statistical(self, what: str, got: float, want: float, sigma: float) -> None:
        """Within N_SIGMA combined standard errors (and never tighter than RTOL)."""
        self.values.append(float(got))
        tol = max(N_SIGMA * sigma, RTOL * abs(want))
        if not abs(got - want) <= tol:
            self.failures.append(
                f"{what}: got {got!r}, reference {want!r} +- {sigma:.3g} (tolerance {tol:.3g})"
            )

    def sampled(self, value: float, std_error: float) -> None:
        self.rses.append(abs(std_error / value) if value else math.inf)

    @property
    def to_1pct_factor(self) -> float:
        """How many times its own time the op needs to bring its sampled
        outputs to a 1 % relative standard error, each output's sampling
        scaled on its own: the mean of (rse / 0.01)**2.  An op without
        sampled outputs is exact after one call: 1."""
        if not self.rses:
            return 1.0
        return sum((rse / 0.01) ** 2 for rse in self.rses) / len(self.rses)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _pom_refs(refs: dict, label: str, what: str) -> dict:
    entry = refs["poms"].get(label)
    if entry is None or what not in entry:
        raise KeyError(f"no {what} reference for {label}")
    return entry


def check_series(out: Outcome, refs: dict, label: str, order: int, value: float) -> None:
    key = f"series{order}"
    out.exact(f"{label} {key}", value, _pom_refs(refs, label, key)[key])


def check_mc(out: Outcome, refs: dict, label: str, value: float, std_error: float) -> None:
    mean, sd, n_ref = _pom_refs(refs, label, "mc")["mc"]
    sigma = math.hypot(std_error, sd / math.sqrt(n_ref))
    out.statistical(f"{label} monte carlo", value, mean, sigma)
    out.sampled(value, std_error)


def check_mse(out: Outcome, refs: dict, label: str, purity: float, n_states: int, value: float):
    """The op's own standard error rests on a dozen states, so sigma comes
    from the reference's per-state spread at the op's state count."""
    mean, sd, n_ref = _pom_refs(refs, label, "mse")["mse"][f"{purity:g}"]
    sigma = sd * math.sqrt(1.0 / n_states + 1.0 / n_ref)
    out.statistical(f"{label} scaled mse at purity {purity:g}", value, mean, sigma)


# ---------------------------------------------------------------------------
# Ops


@dataclass
class Op:
    """One timed call.  ``run`` makes the call; ``check`` inspects its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    size_class: str = ""


def _series_op(q, refs, pom, basis, size_class, memory_budget=None) -> Op:
    kwargs = {"max_order": 4}
    if memory_budget is not None:
        kwargs["memory_budget"] = memory_budget

    def run():
        return q.transfer.qttf_series(pom, basis, **kwargs)

    def check(result):
        out = Outcome()
        if pom.label in ANCHORS:
            ref = q.transfer.reference_values(pom.dim)
            out.exact(f"{pom.label} series4", result.value, getattr(ref, pom.label[:3]))
        else:
            check_series(out, refs, pom.label, 4, result.value)
        return out

    return Op(f"qttf_series {pom.label}", run, check, size_class)


def _mc_op(q, refs, pom, basis, n_samples, rng_seed, size_class) -> Op:
    def run():
        return q.transfer.qttf_monte_carlo(pom, basis, n_samples, rng_seed)

    def check(result):
        out = Outcome()
        check_mc(out, refs, pom.label, result.value, result.std_error)
        return out

    return Op(f"qttf_monte_carlo {pom.label} n={n_samples}", run, check, size_class)


def _sweep_op(q, refs, pom, basis, purity, n_states, rng_seed, size_class) -> Op:
    def run():
        return q.estimation.haar_mse_sweep(
            pom, basis, purity, n_states, SHOTS, TRIALS, rng_seed,
            n_qttf_samples=SWEEP_QTTF_SAMPLES,
        )

    def check(result):
        out = Outcome()
        check_series(out, refs, pom.label, 2, result.qttf_series2.value)
        check_mc(out, refs, pom.label, result.qttf_mc.value, result.qttf_mc.std_error)
        check_mse(out, refs, pom.label, purity, n_states, result.mean_scaled_mse)
        return out

    return Op(f"haar_mse_sweep {pom.label} purity={purity:g}", run, check, size_class)


def _pick(rng, pool_size: int, count: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(pool_size, size=count, replace=False))


def _op_seed(rng) -> int:
    return int(rng.integers(2**31))


def prepare_series(q, seed, workdir, refs) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    bases = {dim: q.operators.build_basis(dim) for dim in POOL_SIZES}
    picked = {}
    for dim, count in SERIES_MIX:
        picked[dim] = _pick(rng, POOL_SIZES[dim], count + (dim == STREAMED_DIM))
        for index in picked[dim][:count]:
            pom = pool_pom(q, dim, 2 * dim * dim, index)
            ops.append(_series_op(q, refs, pom, bases[dim], f"D{dim}"))
    for name in ANCHORS:
        pom = anchor_pom(q, name)
        ops.append(_series_op(q, refs, pom, bases[pom.dim], f"D{pom.dim}"))
    # A budget just below the 16 M^4 bytes of g4 forces the streamed quartic.
    dim = STREAMED_DIM
    m = 2 * dim * dim
    pom = pool_pom(q, dim, m, picked[dim][-1])
    ops.append(_series_op(q, refs, pom, bases[dim], "D4-streamed", 16 * m**4 - 1))
    return ops


def prepare_monte_carlo(q, seed, workdir, refs) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for dim, count, n_samples in MC_MIX:
        basis = q.operators.build_basis(dim)
        if dim == 2:
            poms = [q.pom.qubit_sic()] * count
        else:
            poms = [pool_pom(q, dim, 2 * dim * dim, i) for i in _pick(rng, POOL_SIZES[dim], count)]
        for pom in poms:
            ops.append(_mc_op(q, refs, pom, basis, n_samples, _op_seed(rng), f"D{dim}"))
    return ops


def prepare_mse_sweep(q, seed, workdir, refs) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for dim, count, n_states in SWEEP_MIX:
        basis = q.operators.build_basis(dim)
        for index in _pick(rng, MSE_POOL, count):
            pom = pool_pom(q, dim, 2 * dim * dim, index)
            for purity in PURITIES:
                ops.append(
                    _sweep_op(q, refs, pom, basis, purity, n_states, _op_seed(rng), f"D{dim}")
                )
    return ops


# --- cli ------------------------------------------------------------------


def _save(q, pom, workdir, name) -> str:
    path = os.path.join(workdir, name + ".json")
    q.pom.save_pom(pom, path)
    return path


def _read_csv(path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("# config: "):
            raise ValueError(f"{path}: missing config header")
        config = json.loads(first[len("# config: "):])
        rows = list(csv.DictReader(handle))
    return config, rows


def _cli_op(q, argv, check_file, name, size_class) -> Op:
    def run():
        # The search reports its progress on stderr; keep the run's stderr for failures.
        with contextlib.redirect_stderr(io.StringIO()):
            return q.cli.main(list(argv))

    def check(code):
        out = Outcome()
        if code != 0:
            out.fail(f"{name}: exit code {code}")
            return out
        check_file(out)
        return out

    return Op(name, run, check, size_class)


def _check_compare_rows(q, refs, rows, out: Outcome) -> None:
    """Sampled values (nonzero stderr) against the Monte Carlo reference,
    exact ones against the closed form or the order-2 series that
    qttf_auto takes for them."""
    for row in rows:
        label = row["label"]
        if label in ANCHORS:
            anchor = getattr(q.transfer.reference_values(int(label[3:])), label[:3])
            out.exact(f"{label} aqttf", row["aqttf"], anchor)
        else:
            check_series(out, refs, label, 2, row["aqttf"])
        if row["qttf_stderr"] > 0:
            check_mc(out, refs, label, row["qttf"], row["qttf_stderr"])
        elif label in ANCHORS:
            anchor = getattr(q.transfer.reference_values(int(label[3:])), label[:3])
            out.exact(f"{label} qttf ({row['qttf_method']})", row["qttf"], anchor)
        else:
            check_series(out, refs, label, 2, row["qttf"])


def _check_fig2_rows(refs, rows, out: Outcome) -> None:
    for row in rows:
        label = row["label"]
        check_series(out, refs, label, 2, float(row["aqttf"]))
        check_mc(out, refs, label, float(row["qttf_mc"]), float(row["qttf_mc_stderr"]))
        check_mse(
            out, refs, label, FIG2_ARGS["purity"], FIG2_ARGS["states"], float(row["scaled_mse"])
        )


def _kappa_c_tilde(path) -> float:
    """Condition number of C-tilde, recomputed from the file with numpy alone:
    the nonzero singular values of C-tilde are the square roots of the
    nonzero eigenvalues of the Gram matrix Tr(Pi_a Pi_b)."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    arr = np.asarray(data["outcomes"], dtype=float)
    outcomes = arr[..., 0] + 1j * arr[..., 1]
    gram = np.einsum("aij,bji->ab", outcomes, outcomes).real
    evals = np.linalg.eigvalsh(gram)[::-1][: data["dim"] ** 2]
    return float(np.sqrt(evals[0] / evals[-1]))


def prepare_cli(q, seed, workdir, refs) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    files = {name: _save(q, anchor_pom(q, name), workdir, name) for name in ANCHORS}
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    counter = iter(range(10**6))

    def out_path(ext):
        return os.path.join(out_dir, f"op{next(counter)}.{ext}")

    def compare_op(dim, sq_index, wide_index, samples, op_seed):
        paths = [
            files[f"sic{dim}"],
            files[f"mub{dim}"],
            _save(q, pool_pom(q, dim, 2 * dim * dim, sq_index), workdir, f"sq{dim}_{sq_index}"),
            _save(q, pool_pom(q, dim, WIDE_M[dim], wide_index), workdir, f"wide{dim}_{wide_index}"),
        ]
        target = out_path("json")
        argv = ["compare", *paths, "--samples", str(samples), "--seed", str(op_seed),
                "--format", "json", "--out", target]

        def check_file(out):
            with open(target, encoding="utf-8") as handle:
                payload = json.load(handle)
            _check_compare_rows(q, refs, payload["rows"], out)
            for row in payload["rows"]:
                if row["qttf_stderr"] > 0:
                    out.sampled(row["qttf"], row["qttf_stderr"])

        return _cli_op(q, argv, check_file, f"compare D{dim} seed={op_seed}", f"compare-D{dim}")

    def fig1_op(fig1_seed):
        target = out_path("csv")
        argv = ["fig1", "--dims", str(FIG1_ARGS["dims"]),
                "--mus", ",".join(f"{mu:g}" for mu in FIG1_MUS),
                "--ranks", str(FIG1_ARGS["rank"]), "--epsilon", f"{FIG1_ARGS['epsilon']:g}",
                "--n-poms", str(FIG1_ARGS["n_poms"]), "--n-haar", str(FIG1_ARGS["n_haar"]),
                "--seed", str(fig1_seed), "--out", target]

        def check_file(out):
            _, rows = _read_csv(target)
            cell_refs = refs["fig1"][str(fig1_seed)]
            for row in rows:
                terms = np.asarray(cell_refs[f"{float(row['mu']):g}"])  # (aq, mc, sd, n_ref)
                aq, mc, sd, n_ref = terms.T
                want = float(np.mean((aq - mc) / (2 * mc)))
                slope = aq / (2 * mc**2)
                var = (slope * sd) ** 2 * (1.0 / FIG1_ARGS["n_haar"] + 1.0 / n_ref)
                sigma = float(np.sqrt(var.sum())) / len(aq)
                out.statistical(
                    f"fig1 seed={fig1_seed} mu={row['mu']}", float(row["halved_rel_err"]),
                    want, sigma,
                )

        return _cli_op(q, argv, check_file, f"fig1 seed={fig1_seed}", "fig1")

    def fig2_args(op_seed):
        return ["--purity", f"{FIG2_ARGS['purity']:g}", "--states", str(FIG2_ARGS["states"]),
                "--shots", str(FIG2_ARGS["shots"]), "--trials", str(FIG2_ARGS["trials"]),
                "--samples", str(FIG2_ARGS["samples"]), "--seed", str(op_seed)]

    def fig2_op(first, second, op_seed):
        paths = [_save(q, pool_pom(q, 2, 8, i), workdir, f"sq2_{i}") for i in (first, second)]
        target = out_path("csv")
        argv = ["fig2", *paths, *fig2_args(op_seed), "--out", target]

        def check_file(out):
            _, rows = _read_csv(target)
            _check_fig2_rows(refs, rows, out)
            for row in rows:
                out.sampled(float(row["qttf_mc"]), float(row["qttf_mc_stderr"]))

        return _cli_op(q, argv, check_file, f"fig2 pair seed={op_seed}", "fig2")

    def search_op(search_seed):
        pair = [os.path.join(workdir, f"found{k}_{search_seed}.json") for k in (1, 2)]
        target = out_path("csv")
        argv = ["fig2", *pair, "--search", "--dim", str(SEARCH_ARGS["dim"]),
                "--m", SEARCH_ARGS["m"], "--rank", str(SEARCH_ARGS["rank"]),
                "--attempts", str(SEARCH_ARGS["attempts"]),
                *fig2_args(search_seed)[:-4], "--samples", str(SEARCH_ARGS["samples"]),
                "--seed", str(search_seed), "--out", target]

        def check_file(out):
            config, rows = _read_csv(target)
            info = config["search_info"]
            kappas = [_kappa_c_tilde(path) for path in pair]
            for k, kappa in enumerate(kappas, start=1):
                out.exact(f"search kappa_{k}", info[f"kappa_{k}"], kappa)
            if not kappas[0] < kappas[1]:
                out.fail(f"search pair is not ordered by conditioning: {kappas}")
            if not info["qttf_gap"] >= N_SIGMA * info["combined_stderr"]:
                out.fail(f"search pair gap {info['qttf_gap']} is below 5 combined sigma")
            if all(row["label"] in refs["poms"] for row in rows):
                _check_fig2_rows(refs, rows, out)
            for row in rows:
                out.sampled(float(row["qttf_mc"]), float(row["qttf_mc_stderr"]))

        return _cli_op(q, argv, check_file, f"fig2 --search seed={search_seed}", "search")

    for dim, count, samples in COMPARE_MIX:
        sq = _pick(rng, POOL_SIZES[dim], count)
        wide = _pick(rng, WIDE_POOL, count)
        for sq_index, wide_index in zip(sq, wide):
            ops.append(compare_op(dim, sq_index, wide_index, samples, _op_seed(rng)))
    for fig1_seed in _pick(rng, FIG1_SEEDS, FIG1_PER_PASS):
        ops.append(fig1_op(fig1_seed))
    members = [int(i) for i in rng.permutation(MSE_POOL)[: 2 * FIG2_PAIRS_PER_PASS]]
    for k in range(FIG2_PAIRS_PER_PASS):
        ops.append(fig2_op(members[2 * k], members[2 * k + 1], _op_seed(rng)))
    for index in _pick(rng, len(SEARCH_SEEDS), SEARCHES_PER_PASS):
        ops.append(search_op(SEARCH_SEEDS[index]))
    return ops


PREPARE = {
    "series": prepare_series,
    "monte_carlo": prepare_monte_carlo,
    "mse_sweep": prepare_mse_sweep,
    "cli": prepare_cli,
}


def prepare(q, name: str, seed: int, workdir: str, refs: dict) -> list[Op]:
    """Build the workload's inputs (measurements, bases, files) and its ops."""
    os.makedirs(workdir, exist_ok=True)
    return PREPARE[name](q, seed, workdir, refs)
