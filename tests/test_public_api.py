"""The public surface: every callable in qttf.__all__ documents itself."""

import qttf


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
