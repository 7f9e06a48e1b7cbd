"""The names the benchmark's tracer hooks, and the call shapes its workloads
use, must exist in the library.

bench/tracing.py wraps library functions and class validations by name, and
bench/workloads.py calls library functions and the CLI with fixed argument
shapes.  Their own tests are not part of this suite, so a rename or removal
that breaks `bench/run.py` would otherwise pass here.  The tracer module is
loaded from its file and only read.
"""

import importlib.util
import inspect
import pathlib

import pytest

import qttf
import qttf.cli
import qttf.estimation
import qttf.fisher
import qttf.transfer

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, name, param",
    [(module, name, param) for module, name, _hook, param in tracing.FUNCTIONS],
    ids=[f"{module}.{name}" for module, name, _hook, _param in tracing.FUNCTIONS],
)
def test_traced_function_resolves_with_its_hooked_parameter(module, name, param):
    function = getattr(getattr(qttf, module), name)
    assert callable(function)
    if param is not None:
        assert param in inspect.signature(function).parameters


@pytest.mark.parametrize(
    "module, name", tracing.CLASSES, ids=[f"{m}.{n}" for m, n in tracing.CLASSES]
)
def test_traced_class_has_its_own_validation(module, name):
    assert "__post_init__" in getattr(getattr(qttf, module), name).__dict__


def test_cli_binds_measurement_matrices():
    assert qttf.cli.measurement_matrices is qttf.fisher.measurement_matrices


# The call shapes of bench/workloads.py: a removed parameter or flag that one
# of them uses should fail here, not only in a benchmark run.


def test_series_takes_order_and_budget_as_keywords():
    parameters = inspect.signature(qttf.transfer.qttf_series).parameters
    for name in ("max_order", "memory_budget"):
        assert parameters[name].kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )


def test_monte_carlo_takes_its_arguments_by_position():
    parameters = list(inspect.signature(qttf.transfer.qttf_monte_carlo).parameters)
    assert parameters == ["pom", "basis", "n_samples", "rng"]


def test_mse_sweep_keeps_its_positional_order():
    parameters = list(inspect.signature(qttf.estimation.haar_mse_sweep).parameters)
    assert parameters[:7] == [
        "pom", "basis", "purity_mix", "n_states", "n_shots", "n_trials", "rng"
    ]
    assert "n_qttf_samples" in parameters


_FIG2_FLAGS = ["--purity", "0.8", "--states", "12", "--shots", "1000", "--trials", "50"]
_CLI_ARGVS = {
    "compare": [
        "compare", "sic2.json", "mub2.json", "sq.json", "wide.json",
        "--samples", "2000", "--seed", "1", "--format", "json", "--out", "op.json",
    ],
    "fig1": [
        "fig1", "--dims", "2", "--mus", "1.5,2", "--ranks", "1", "--epsilon", "0.05",
        "--n-poms", "3", "--n-haar", "200", "--seed", "1", "--out", "op.csv",
    ],
    "fig2": [
        "fig2", "a.json", "b.json", *_FIG2_FLAGS,
        "--samples", "500", "--seed", "1", "--out", "op.csv",
    ],
    "fig2 --search": [
        "fig2", "a.json", "b.json", "--search", "--dim", "2", "--m", "6,8", "--rank", "1",
        "--attempts", "60", *_FIG2_FLAGS, "--samples", "500", "--seed", "1", "--out", "op.csv",
    ],
}


@pytest.mark.parametrize("kind", sorted(_CLI_ARGVS))
def test_cli_parses_the_workload_argv(kind):
    args = qttf.cli._build_parser().parse_args(_CLI_ARGVS[kind])
    assert args.command == kind.split()[0]
