"""Suite-wide set-up.

pyproject.toml turns every warning into an error, so that the library cannot
warn unnoticed.  When a property test fails, hypothesis's pytest plugin
imports hypothesis.extra._patching to suggest an explicit example; that
import pulls in libcst, whose use of mypy_extensions.TypedDict raises a
DeprecationWarning, and the plugin catches only ImportError, so the session
would end in an internal error and the remaining tests would not run.
Importing the module once here, with that one third-party warning ignored,
leaves it cached for the plugin and every other warning an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis without its optional libcst support
        pass
