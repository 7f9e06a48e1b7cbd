"""The public surface: every callable in qttf.__all__ documents itself, every
tolerance and work size is defined once and read, and every error class is
raised where its name says."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qttf
from qttf import errors

TOLERANCE = re.compile(r"^([A-Z_]*(?:TOL|FLOOR|SLACK|RTOL)) =", re.MULTILINE)
WORK_SIZE = re.compile(r"^([A-Z_]*(?:BLOCK|BATCH|BYTES|GROUPS|BUDGET)) =", re.MULTILINE)


def _library_sources():
    return [
        path.read_text(encoding="utf-8")
        for path in sorted(Path(qttf.__file__).parent.glob("*.py"))
    ]


def _assignments(pattern):
    """How many modules of the library assign each name that pattern matches."""
    return Counter(name for source in _library_sources() for name in pattern.findall(source))


def _unread(pattern):
    """Names that pattern matches which no module of the library reads."""
    sources = _library_sources()
    read = {
        node.id
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(_assignments(pattern)) - read)


def test_every_public_callable_has_its_own_docstring():
    # a class's docstring is not inherited, and a dataclass without one gets
    # its signature instead, which documents nothing
    missing = []
    for name in qttf.__all__:
        obj = getattr(qttf, name)
        doc = (obj.__doc__ or "").strip()
        if callable(obj) and (not doc or doc.startswith(f"{obj.__name__}(")):
            missing.append(name)
    assert not missing


def test_only_qttf_series_takes_a_memory_budget():
    # the one place to set the order-4 budget; haar_moment_term runs at the default
    takers = [
        name
        for name in qttf.__all__
        if inspect.isfunction(getattr(qttf, name))
        and "memory_budget" in inspect.signature(getattr(qttf, name)).parameters
    ]
    assert takers == ["qttf_series"]


# each used to get past the library's checks and end in a numpy error, a
# wrong value, or a boolean count taken as 0 or 1
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: qttf.random_pom(2, 4.0, 1), ValueError, "n_outcomes must be an integer, got 4.0"),
        (
            lambda: qttf.random_pom(2, True, 2),
            ValueError,
            "n_outcomes must be an integer, got True",
        ),
        (lambda: qttf.random_pom(2, 4, 1.0), ValueError, "rank must be an integer, got 1.0"),
        (
            lambda: qttf.duplicate_outcome(qttf.sic_povm(2), True, [0.5, 0.5]),
            errors.PomValidationError,
            "outcome index must be an integer, got True",
        ),
        (
            lambda: qttf.duplicate_outcome(qttf.sic_povm(2), 1.0, [0.5, 0.5]),
            errors.PomValidationError,
            "outcome index must be an integer, got 1.0",
        ),
        (
            lambda: qttf.mixing_weight_for_purity(0.9, 2.5),
            errors.InvalidDimensionError,
            "dimension must be an integer, got 2.5",
        ),
        (
            lambda: qttf.ClickRecord(np.array([True, False, True, True])),
            ValueError,
            "counts must be integers, got booleans",
        ),
    ],
    ids=[
        "random_pom-float-outcomes",
        "random_pom-bool-outcomes",
        "random_pom-float-rank",
        "duplicate_outcome-bool-index",
        "duplicate_outcome-float-index",
        "mixing_weight-float-dim",
        "ClickRecord-bool-counts",
    ],
)
def test_integer_arguments_are_checked_by_the_library(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message


def test_every_tolerance_is_assigned_in_one_module_only():
    # a module-level NAME = ... whose name ends in TOL, FLOOR, SLACK or RTOL
    # is a tolerance; other modules import it instead of restating it
    assignments = _assignments(TOLERANCE)
    required = {
        "RANK_RTOL",
        "CHOLESKY_RTOL",
        "STRUCTURE_TOL",
        "WEIGHT_FLOOR",
        "SPLIT_WEIGHT_TOL",
        "FREQUENCY_SLACK",
        "FREQUENCY_SUM_TOL",
        "SPREAD_RTOL",
        "OUTCOME_COUNT_TOL",
        "KAPPA_TIE_TOL",
        "COMPARE_SIGMA_FLOOR",
    }
    assert required <= set(assignments)
    assert [name for name, count in assignments.items() if count > 1] == []


def test_every_tolerance_is_read_in_the_library():
    # a tolerance that only its assignment names is dead: a refactor that
    # drops its last check must drop the constant too
    assert _unread(TOLERANCE) == []


def test_every_work_size_is_assigned_in_one_module_and_read():
    # a module-level NAME = ... whose name ends in BLOCK, BATCH, BYTES, GROUPS
    # or BUDGET sizes a batch or bounds memory; like a tolerance it is set in
    # one module, imported elsewhere, and dropped with its last reader
    assignments = _assignments(WORK_SIZE)
    required = {
        "CHOLESKY_BLOCK",
        "MC_BATCH",
        "MSE_BLOCK",
        "DESIGN_MIN_GROUPS",
        "DEFAULT_MEMORY_BUDGET",
        "QUARTIC_CHUNK_BYTES",
    }
    assert required <= set(assignments)
    assert [name for name, count in assignments.items() if count > 1] == []
    assert _unread(WORK_SIZE) == []


def _function_nodes():
    """(module, enclosing function, node) of every node inside a function in
    src/qttf; a node in a nested function counts for every function around it
    too."""
    for path in sorted(Path(qttf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    yield path.stem, function.name, node


def _calls_of(name):
    """(module, enclosing function) of every call x.name(...) in src/qttf."""
    return {
        (module, function)
        for module, function, node in _function_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    }


def _raises():
    """(module, enclosing function, exception name) of every raise of a bare
    name or a call of one in src/qttf."""
    found = []
    for module, function, node in _function_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name):
                found.append((module, function, target.id))
    return found


def test_incompleteness_is_refused_only_where_the_model_is_built():
    # every model is complete by construction, so no reader of one can meet an
    # incomplete measurement; a raise in a nested function counts for every
    # function around it too
    places = {
        (module, function)
        for module, function, name in _raises()
        if name == "NotInformationallyCompleteError"
    }
    assert places == {("fisher", "measurement_matrices")}


def test_haar_states_are_drawn_only_by_the_one_sampler():
    # every sampled state comes from a rule rotated by Haar unitaries, so the
    # Gaussian draws behind them are made in one function; random_pom draws
    # its own for the outcome operators, which are no states
    places = _calls_of("standard_normal")
    assert places == {("operators", "rotated_vectors"), ("pom", "random_pom")}


def test_a_sampled_mean_and_its_bar_have_one_estimator():
    # the control fit and the cluster bar over groups live in one function,
    # which Monte Carlo and the MSE sweep both call; no module takes a
    # standard deviation of its own
    estimator = {("transfer", "_controlled_mean")}
    assert _calls_of("lstsq") == estimator
    assert _calls_of("reduceat") == estimator
    assert not any(".std(" in source for source in _library_sources())


def test_only_the_model_reads_its_born_table():
    # the layout [p | t] of born_table and the mixing towards identity/dim
    # live in TomographyMatrices.born, which Monte Carlo and the MSE sweep
    # call; no other module slices a Born row into probabilities and coordinates
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(Path(qttf.__file__).parent.glob("*.py"))
    }
    assert {name for name, source in sources.items() if "born_table" in source} == {"fisher"}
    born_slice = re.compile(r"\[:, *(?::m|m:)\]")
    assert [name for name, source in sources.items() if born_slice.search(source)] == ["fisher"]
    assert _calls_of("born") == {("transfer", "_monte_carlo"), ("estimation", "_sweep")}


def test_every_leaf_error_class_is_raised_in_the_library():
    # a class that no module raises is dead surface; a base class such as
    # QttfError is caught, not raised, so only the classes without a subclass
    # in qttf.errors must be
    classes = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    leaves = {
        cls.__name__
        for cls in classes
        if not any(other is not cls and issubclass(other, cls) for other in classes)
    }
    raised = {name for _, _, name in _raises()}
    assert len(leaves) == len(classes) - 1
    assert sorted(leaves - raised) == []
