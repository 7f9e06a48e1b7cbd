"""The public surface: every callable in qttf.__all__ documents itself, and
every tolerance is defined once and read."""

import ast
import re
from collections import Counter
from pathlib import Path

import qttf

TOLERANCE = re.compile(r"^([A-Z_]*(?:TOL|FLOOR|SLACK|RTOL)) =", re.MULTILINE)


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


def test_every_tolerance_is_assigned_in_one_module_only():
    # a module-level NAME = ... whose name ends in TOL, FLOOR, SLACK or RTOL
    # is a tolerance; other modules import it instead of restating it
    assignments = Counter(
        name
        for path in sorted(Path(qttf.__file__).parent.glob("*.py"))
        for name in TOLERANCE.findall(path.read_text(encoding="utf-8"))
    )
    required = {
        "P_FLOOR",
        "RANK_RTOL",
        "CHOLESKY_RTOL",
        "STRUCTURE_TOL",
        "WEIGHT_FLOOR",
        "SPLIT_WEIGHT_TOL",
        "FREQUENCY_SLACK",
        "FREQUENCY_SUM_TOL",
        "BORN_IMAG_TOL",
        "SPREAD_RTOL",
    }
    assert required <= set(assignments)
    assert [name for name, count in assignments.items() if count > 1] == []


def test_every_tolerance_is_read_in_the_library():
    # a tolerance that only its assignment names is dead: a refactor that
    # drops its last check must drop the constant too
    modules = sorted(Path(qttf.__file__).parent.glob("*.py"))
    sources = [path.read_text(encoding="utf-8") for path in modules]
    assigned = {name for source in sources for name in TOLERANCE.findall(source)}
    read = {
        node.id
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(assigned - read) == []
