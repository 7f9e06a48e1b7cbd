"""The names the benchmark's tracer hooks must exist in the library.

bench/tracing.py wraps library functions and class validations by name, and
its own tests are not part of this suite, so a rename that breaks
`bench/run.py --trace 1` would otherwise pass here.  The tracer module is
loaded from its file and only read.
"""

import importlib.util
import inspect
import pathlib

import pytest

import qttf
import qttf.cli
import qttf.fisher

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
