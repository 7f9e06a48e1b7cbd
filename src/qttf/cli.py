"""Command-line front end: measurement files, transfer values, comparisons, sweeps.

Exit codes: 0 success, 1 usage or input problems, 2 measurement not
informationally complete, 3 one d-value of the order-4 series term does not
fit in transfer.DEFAULT_MEMORY_BUDGET, which takes thousands of outcomes.
Every emitted file embeds the run configuration (JSON field, or a leading
``# config:`` comment line in CSV): every parsed argument except ``--out``,
the seed included, so runs can be reproduced exactly.  Execution is sequential and single
threaded; results depend only on the seed and the cell or sample index,
never on scheduling.

main() may be called repeatedly in one process: the argument parser is built
on the first call and reused, since parsing keeps no state between calls, and
each command builds the measurement model of each measurement it evaluates
once, for its condition numbers and all of its transfer values.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import (
    BudgetExceededError,
    NotInformationallyCompleteError,
    NotMinimalBasesError,
    NotMinimallyCompleteError,
    PomSchemaError,
    QttfError,
    SearchTimeoutError,
)
from .estimation import _sweep, mixing_weight_for_purity
from .fisher import measurement_matrices
from .operators import HermitianBasis, _require_count, build_basis
from .pom import (
    Pom,
    _pom_text,
    _random_pom_shape,
    admix_white_noise,
    duplicate_outcome,
    load_pom,
    mub_povm,
    random_pom,
    save_pom,
    sic_povm,
)
from .transfer import _auto, _closed_form, _controlled_mean, _monte_carlo, _series, reference_values

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_IC = 2
EXIT_BUDGET = 3

OUTCOME_COUNT_TOL = 1e-9  # largest distance of fig1's mu dim**2 from an integer outcome count
# a kappa(C-tilde) gap at or below this is a tie, which orders no pair: compare
# notes no inversion for it and the search takes no pair
KAPPA_TIE_TOL = 1e-9
# the least qttf gap that a pair's rule reads as a difference, however small the
# bars; exact values (bars of 0) this close are equal
COMPARE_SIGMA_FLOOR = 1e-6

BUILTINS = {
    "sic2": lambda: sic_povm(2),
    "sic3": lambda: sic_povm(3),
    "mub2": lambda: mub_povm(2),
    "mub3": lambda: mub_povm(3),
}


class _UsageError(Exception):
    pass


class _AtLeast(argparse.Action):
    """Store a flag's value, refusing one below `low` at parse time, before any command runs."""

    def __init__(self, option_strings, dest, low, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.low = low

    def __call__(self, parser, namespace, value, option_string=None):
        if not value >= self.low:  # NaN fails it too
            raise _UsageError(f"{option_string} must be >= {self.low}, got {value}")
        setattr(namespace, self.dest, value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _argument_errors():
    """Report a plain ValueError, the library's refusal of an argument value,
    as a usage error; the library's own error types keep their exit codes."""
    try:
        yield
    except QttfError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _config(args) -> dict:
    """The run configuration a result file embeds: every parsed argument except out."""
    return {key: value for key, value in vars(args).items() if key != "out"}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_text(text: str, out_path=None) -> None:
    """Write text to out_path as given, or to stdout when out_path is empty."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows, columns, config, out_path=None) -> None:
    buffer = io.StringIO()
    buffer.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in columns])
    _write_text(buffer.getvalue(), out_path)


def _emit_json(payload, out_path=None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _number_list(text: str, kind: type) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        noun = "integer" if kind is int else "number"
        raise _UsageError(f"expected a comma-separated {noun} list, got {text!r}")
    return values


def _require_writable(*paths) -> None:
    """Refuse, before any work, an output path that is a directory or lies in no directory."""
    for path in filter(None, paths):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise _UsageError(f"cannot write {path!r}: not a file in an existing directory")


def _cell_rng(*key_parts) -> np.random.Generator:
    return np.random.default_rng([int(part) for part in key_parts])


def run_fig1(
    dims,
    mus,
    ranks,
    epsilon: float,
    n_poms: int,
    n_haar: int,
    seed: int,
) -> list[dict]:
    """Halved relative error of the order-2 series against Monte Carlo.

    One row per (dim, mu, rank) cell at the given noise admixture; its limit
    is the order-2 ceiling reference_values(dim).limit_rel_error halved.  The
    cell's halved_rel_err and halved_rel_err_stderr are the mean of its
    n_poms per-measurement values and that mean's bar, from the estimator of
    every sampled mean, transfer._controlled_mean, without controls: the
    sample standard deviation over sqrt(n_poms).  Base measurements and
    Monte-Carlo states are keyed by (seed, dim, mu, rank, index) only, so
    runs at different epsilon are paired draw for draw.
    A mean of one value has no bar, so n_poms must be an integer of at least
    2, and n_haar one of at least 2.  A count that is not, a non-finite mu,
    or one whose mu dim**2 is no outcome count, is refused with ValueError,
    and a cell that random_pom would refuse (a rank outside [1, dim]) with
    its error, all before the first cell runs.
    """
    _require_count("n_poms", n_poms, 2)
    _require_count("n_haar", n_haar, 2)
    for mu in mus:
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
    cells = []
    for dim in dims:
        for mu in mus:
            m_float = mu * dim * dim
            n_outcomes = int(round(m_float))
            if abs(m_float - n_outcomes) > OUTCOME_COUNT_TOL:
                raise ValueError(
                    f"mu={mu} gives non-integral outcome count for dim={dim} "
                    f"(mu dim**2 is more than {OUTCOME_COUNT_TOL:g} from an integer)"
                )
            for rank in ranks:
                _random_pom_shape(dim, n_outcomes, rank)
                cells.append((dim, mu, n_outcomes, rank))
    rows = []
    for dim, mu, n_outcomes, rank in cells:
        mu_key = int(round(mu * 1000))
        values = np.empty(n_poms)
        for index in range(n_poms):
            base = random_pom(dim, n_outcomes, rank, _cell_rng(seed, dim, mu_key, rank, index))
            model = measurement_matrices(admix_white_noise(base, epsilon), build_basis(dim))
            aq = _series(model, alpha=1.0, max_order=2).value
            mc = _monte_carlo(model, n_haar, _cell_rng(seed, dim, mu_key, rank, index, 1))
            values[index] = (aq - mc.value) / (2.0 * mc.value)
        mean, stderr, _ = _controlled_mean(values, np.empty((n_poms, 0)), design=1)
        rows.append(
            {
                "D": dim,
                "mu": float(mu),
                "rank": rank,
                "epsilon": float(epsilon),
                "limit": reference_values(dim).limit_rel_error / 2,
                # Per-measurement samples, for paired analyses; not a CSV column.
                "values": values.tolist(),
                "halved_rel_err": mean,
                "halved_rel_err_stderr": stderr,
            }
        )
    return rows


def _qttf_gap(better: dict, worse: dict):
    """The pair rule's reading of two rows' qttf: (gap, sigma, resolved).

    gap is worse's qttf minus better's and sigma the hypot of their
    qttf_stderr; resolved says the gap is a difference, one beyond
    max(5 sigma, COMPARE_SIGMA_FLOOR), so better is the better measurement.
    """
    gap = worse["qttf"] - better["qttf"]
    sigma = float(np.hypot(worse["qttf_stderr"], better["qttf_stderr"]))
    return gap, sigma, gap > max(5.0 * sigma, COMPARE_SIGMA_FLOOR)


def _by_conditioning(first: dict, second: dict):
    """The one rule of compare and the search for a pair of rows:
    (verdict, better conditioned row, worse conditioned row, gap, sigma).

    The rows are ordered by kappa_c_tilde; gap is the better conditioned
    row's qttf minus the other's and sigma the hypot of their bars, as
    _qttf_gap reads them.  A kappa gap of at most KAPPA_TIE_TOL is a tie,
    which orders nothing.  Past a tie the verdict is "inversion" when the
    worse conditioned row is resolved as the better measurement, and
    "equal" when both bars are 0 and |gap| is within COMPARE_SIGMA_FLOOR; a
    tie and any other pair get None.
    """
    low, high = sorted((first, second), key=lambda row: row["kappa_c_tilde"])
    gap, sigma, inverted = _qttf_gap(high, low)
    verdict = None
    if high["kappa_c_tilde"] - low["kappa_c_tilde"] > KAPPA_TIE_TOL:
        if inverted:
            verdict = "inversion"
        elif sigma == 0.0 and abs(gap) <= COMPARE_SIGMA_FLOOR:
            verdict = "equal"
    return verdict, low, high, gap, sigma


def _common_basis(poms) -> HermitianBasis:
    """The basis of the measurements' one dimension; mixed dimensions are a usage error."""
    dims = sorted({pom.dim for pom in poms})
    if len(dims) != 1:
        raise _UsageError(f"measurements have mixed dimensions {dims}")
    return build_basis(dims[0])


def search_counterexample_pair(
    dim: int,
    m_choices,
    rank: int,
    attempts: int,
    n_samples: int,
    seed: int,
):
    """Random search for measurements where conditioning and accuracy disagree.

    Returns (pom_low_kappa, pom_high_kappa, info) with
    kappa(first) < kappa(second) while qttf(first) - qttf(second) exceeds
    five combined standard errors: the better-conditioned measurement is
    tomographically worse.  Each pair is checked once, under the pair rule
    of compare (_by_conditioning).
    An empty m_choices, an outcome count below dim**2, which no
    informationally complete measurement has, attempts below 1 or n_samples
    below 2 are refused with ValueError before the first attempt.
    """
    _require_count("attempts", attempts, 1)
    _require_count("n_samples", n_samples, 2)
    basis = build_basis(dim)
    m_choices = list(m_choices)
    if not m_choices:
        raise ValueError("the search needs at least one outcome count")
    too_few = [m for m in m_choices if m < dim * dim]
    if too_few:
        raise ValueError(
            f"outcome counts {too_few} are below dim**2 = {dim * dim}: "
            "no such measurement is informationally complete"
        )
    candidates = []
    for index in range(attempts):
        n_outcomes = m_choices[index % len(m_choices)]
        pom = random_pom(
            dim,
            n_outcomes,
            rank,
            _cell_rng(seed, index),
            label=f"search(dim={dim},m={n_outcomes},rank={rank},seed={seed},index={index})",
        )
        model = measurement_matrices(pom, basis)
        estimate = _monte_carlo(model, n_samples, _cell_rng(seed, index, 1))
        current = {
            "pom": pom,
            "kappa_c_tilde": model.kappa_c_tilde,
            "qttf": estimate.value,
            "qttf_stderr": estimate.std_error,
        }
        for other in candidates:
            verdict, low, high, gap, sigma = _by_conditioning(current, other)
            if verdict == "inversion":
                info = {
                    "kappa_1": low["kappa_c_tilde"],
                    "kappa_2": high["kappa_c_tilde"],
                    "qttf_1": low["qttf"],
                    "qttf_2": high["qttf"],
                    "qttf_gap": gap,
                    "combined_stderr": sigma,
                    "attempts_used": index + 1,
                }
                return low["pom"], high["pom"], info
        candidates.append(current)
    raise SearchTimeoutError(
        f"no conditioning/accuracy counterexample found in {attempts} attempts"
    )


def run_fig2_rows(
    poms,
    basis,
    purity: float,
    n_states: int,
    n_shots: int,
    n_trials: int,
    n_samples: int,
    seed: int,
) -> list[dict]:
    rows = []
    for index, pom in enumerate(poms):
        matrices = measurement_matrices(pom, basis)
        sweep = _sweep(
            matrices,
            purity,
            n_states,
            n_shots,
            n_trials,
            _cell_rng(seed, 71, index),
            n_qttf_samples=n_samples,
        )
        rows.append(
            {
                "label": pom.label,
                "m": pom.n_outcomes,
                "kappa_c_tilde": matrices.kappa_c_tilde,
                "qttf_mc": sweep.qttf_mc.value,
                "qttf_mc_stderr": sweep.qttf_mc.std_error,
                "aqttf": sweep.qttf_series2.value,
                "scaled_mse": sweep.mean_scaled_mse,
                "scaled_mse_stderr": sweep.scaled_mse_stderr,
            }
        )
    return rows


def _cmd_pom(args) -> int:
    if args.pom_command == "builtin":
        pom = BUILTINS[args.name]()
    elif args.pom_command == "random":
        with _argument_errors():
            pom = random_pom(args.dim, args.m, args.rank, args.seed)
    else:
        pom = _transformed(args)
    if args.out:
        save_pom(pom, args.out)
    else:
        sys.stdout.write(_pom_text(pom))
    return EXIT_OK


def _transformed(args) -> Pom:
    """The input measurement of pom transform with its outcome split and noise applied."""
    pom = load_pom(args.input)
    if args.duplicate is None and args.epsilon is None:
        raise _UsageError("transform needs --duplicate and/or --epsilon")
    if args.duplicate is not None:
        if args.weights is None:
            raise _UsageError("--duplicate requires --weights")
        if not 1 <= args.duplicate <= pom.n_outcomes:
            raise _UsageError(
                f"--duplicate outcome number must be in [1, {pom.n_outcomes}] (1-based)"
            )
        weights = _number_list(args.weights, float)
        with _argument_errors():
            pom = duplicate_outcome(pom, args.duplicate - 1, weights)
    if args.epsilon is not None:
        pom = admix_white_noise(pom, args.epsilon)
    return pom


def _cmd_qttf(args) -> int:
    pom = load_pom(args.pom)
    model = measurement_matrices(pom, build_basis(pom.dim))
    if args.method == "auto":
        estimate = _auto(model, n_samples=args.samples, rng=args.seed)
    elif args.method == "closed":
        try:
            estimate = _closed_form(model)
        except (NotMinimallyCompleteError, NotMinimalBasesError) as exc:
            raise _UsageError(f"no closed form applies: {exc}") from exc
    elif args.method == "series":
        with _argument_errors():
            estimate = _series(model, alpha=args.alpha, max_order=args.order)
    else:
        estimate = _monte_carlo(model, args.samples, args.seed)
    payload = asdict(estimate)
    payload["config"] = _config(args)
    payload["seed"] = args.seed
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if len(args.poms) < 2:
        raise _UsageError("compare needs at least two measurement files")
    poms = [load_pom(path) for path in args.poms]
    basis = _common_basis(poms)
    rows = []
    for pom in poms:
        matrices = measurement_matrices(pom, basis)
        estimate = _auto(matrices, n_samples=args.samples, rng=args.seed)
        aq = _series(matrices, alpha=1.0, max_order=2)
        rows.append(
            {
                "label": pom.label,
                "m": pom.n_outcomes,
                "kappa_c": matrices.kappa_c,
                "kappa_c_tilde": matrices.kappa_c_tilde,
                "tr_fbar_inv": matrices.tr_fbar_inv,
                "qttf": estimate.value,
                "qttf_stderr": estimate.std_error,
                "qttf_method": estimate.method,
                "aqttf": aq.value,
            }
        )
    # the least qttf is the best only when the pair rule resolves it from every other row
    best = min(rows, key=lambda row: row["qttf"])
    tied = [row for row in rows if row is not best and not _qttf_gap(best, row)[2]]
    if tied:
        notes = ["best not resolved: " + ", ".join(
            f"{row['label']} ({row['qttf']:.4f} +/- {row['qttf_stderr']:.4f})"
            for row in [best, *tied]
        )]
    else:
        notes = [f"best by qttf: {best['label']} ({best['qttf']:.4f})"]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            verdict, a, b, _, _ = _by_conditioning(rows[i], rows[j])  # a: the smaller kappa
            if verdict == "inversion":
                notes.append(
                    f"inversion: {a['label']} (kappa={a['kappa_c_tilde']:.4f}) is better "
                    f"conditioned than {b['label']} (kappa={b['kappa_c_tilde']:.4f}) but "
                    f"tomographically worse (qttf {a['qttf']:.4f} vs {b['qttf']:.4f})"
                )
            elif verdict == "equal":
                notes.append(
                    f"equal: {a['label']} and {b['label']} have equal qttf "
                    f"({a['qttf']:.4f} vs {b['qttf']:.4f}) despite kappa "
                    f"{a['kappa_c_tilde']:.4f} vs {b['kappa_c_tilde']:.4f}; conditioning "
                    "is not a tomographic ranking"
                )
    config = _config(args)
    columns = list(rows[0])
    if args.format == "json":
        _emit_json({"rows": rows, "notes": notes, "config": config}, args.out)
    elif args.format == "csv":
        _write_csv(rows, columns, config, args.out)
    else:
        widths = {col: max(len(col), *(len(_table_cell(row[col])) for row in rows)) for col in columns}
        lines = ["  ".join(col.ljust(widths[col]) for col in columns)]
        for row in rows:
            lines.append("  ".join(_table_cell(row[col]).ljust(widths[col]) for col in columns))
        lines.extend(notes)
        _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _table_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_fig1(args) -> int:
    with _argument_errors():
        rows = run_fig1(
            dims=_number_list(args.dims, int),
            mus=_number_list(args.mus, float),
            ranks=_number_list(args.ranks, int),
            epsilon=args.epsilon,
            n_poms=args.n_poms,
            n_haar=args.n_haar,
            seed=args.seed,
        )
    columns = ["D", "mu", "rank", "epsilon", "halved_rel_err", "halved_rel_err_stderr", "limit"]
    _write_csv(rows, columns, _config(args), args.out)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    config = _config(args)
    if args.search:
        if args.dim is None:
            raise _UsageError("--search requires --dim")
        _require_writable(args.pom1, args.pom2)
        with _argument_errors():  # the purity before the search, which writes the pair files
            mixing_weight_for_purity(args.purity, args.dim)
            pom1, pom2, info = search_counterexample_pair(
                dim=args.dim,
                m_choices=_number_list(args.m, int),
                rank=args.rank,
                attempts=args.attempts,
                n_samples=args.samples,
                seed=args.seed,
            )
        save_pom(pom1, args.pom1)
        save_pom(pom2, args.pom2)
        config["search_info"] = info
        print(
            f"found pair after {info['attempts_used']} attempts: "
            f"kappa {info['kappa_1']:.4f} < {info['kappa_2']:.4f} while "
            f"qttf {info['qttf_1']:.4f} > {info['qttf_2']:.4f} "
            f"(gap {info['qttf_gap']:.4f}, combined stderr {info['combined_stderr']:.4f})",
            file=sys.stderr,
        )
    else:
        pom1, pom2 = load_pom(args.pom1), load_pom(args.pom2)
    with _argument_errors():
        rows = run_fig2_rows(
            [pom1, pom2],
            _common_basis([pom1, pom2]),
            purity=args.purity,
            n_states=args.states,
            n_shots=args.shots,
            n_trials=args.trials,
            n_samples=args.samples,
            seed=args.seed,
        )
    _write_csv(rows, list(rows[0]), config, args.out)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qttf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the flags that several commands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0, action=_AtLeast, low=0)

    pom_parser = sub.add_parser("pom", help="create or transform measurement files")
    pom_sub = pom_parser.add_subparsers(dest="pom_command", required=True, parser_class=_Parser)
    builtin = pom_sub.add_parser("builtin", help="emit a builtin measurement", parents=[out])
    builtin.add_argument("name", choices=sorted(BUILTINS))
    rand = pom_sub.add_parser("random", help="draw a random measurement", parents=[seeded])
    rand.add_argument("--dim", type=int, required=True)
    rand.add_argument("--m", type=int, required=True, help="number of outcomes")
    rand.add_argument("--rank", type=int, default=1)
    trans = pom_sub.add_parser(
        "transform", help="duplicate outcomes or admix white noise", parents=[out]
    )
    trans.add_argument("input")
    trans.add_argument("--duplicate", type=int, default=None, help="outcome number (1-based)")
    trans.add_argument("--weights", default=None, help="comma-separated split weights")
    trans.add_argument(
        "--epsilon", type=float, default=None, action=_AtLeast, low=0, help="white-noise admixture"
    )

    qttf_parser = sub.add_parser("qttf", help="evaluate the transfer function", parents=[seeded])
    qttf_parser.add_argument("pom")
    qttf_parser.add_argument("--method", choices=["auto", "closed", "series", "mc"], default="auto")
    qttf_parser.add_argument("--alpha", type=float, default=1.0)
    qttf_parser.add_argument("--order", type=int, default=2)
    qttf_parser.add_argument("--samples", type=int, default=10000, action=_AtLeast, low=2)

    cmp_parser = sub.add_parser(
        "compare", help="tabulate conditioning against accuracy", parents=[seeded]
    )
    cmp_parser.add_argument("poms", nargs="+")
    cmp_parser.add_argument("--samples", type=int, default=10000, action=_AtLeast, low=2)
    cmp_parser.add_argument("--format", choices=["table", "json", "csv"], default="table")

    fig1_parser = sub.add_parser(
        "fig1", help="series error sweep over random measurements", parents=[seeded]
    )
    fig1_parser.add_argument("--dims", default="2", help="dims whose mu*dim**2 are all integral")
    fig1_parser.add_argument("--mus", default="1.25,1.5,2,3", help="outcome counts as mu*dim**2")
    fig1_parser.add_argument("--ranks", default="1")
    fig1_parser.add_argument("--epsilon", type=float, default=0.0, action=_AtLeast, low=0)
    fig1_parser.add_argument("--n-poms", type=int, default=50, action=_AtLeast, low=2)
    fig1_parser.add_argument("--n-haar", type=int, default=500, action=_AtLeast, low=2)

    fig2_parser = sub.add_parser(
        "fig2", help="finite-sample MSE against transfer values", parents=[seeded]
    )
    fig2_parser.add_argument("pom1")
    fig2_parser.add_argument("pom2")
    fig2_parser.add_argument("--search", action="store_true", help="search for a pair and persist it")
    fig2_parser.add_argument("--dim", type=int, default=None)
    fig2_parser.add_argument("--m", default="6,8", help="outcome counts tried by --search")
    fig2_parser.add_argument("--rank", type=int, default=1)
    fig2_parser.add_argument("--attempts", type=int, default=200, action=_AtLeast, low=1)
    fig2_parser.add_argument("--purity", type=float, default=0.99)
    fig2_parser.add_argument("--states", type=int, default=10, action=_AtLeast, low=2)
    fig2_parser.add_argument("--shots", type=int, default=10000, action=_AtLeast, low=1)
    fig2_parser.add_argument("--trials", type=int, default=50, action=_AtLeast, low=2)
    fig2_parser.add_argument("--samples", type=int, default=4000, action=_AtLeast, low=2)

    return parser


_COMMANDS = {
    "pom": _cmd_pom,
    "qttf": _cmd_qttf,
    "compare": _cmd_compare,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _require_writable(args.out)
        return _COMMANDS[args.command](args)
    except PomSchemaError as exc:
        print(f"error: invalid measurement file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotInformationallyCompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IC
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (_UsageError, QttfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
