"""Every annotation in the package resolves at run time."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import sjb

# sjb.__main__ runs the CLI when imported, and defines nothing.
MODULES = [m.name for m in pkgutil.iter_modules(sjb.__path__) if m.name != "__main__"]


def _defined(module):
    """The functions, classes and methods (properties included) module defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(func):
                    yield func


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(f"sjb.{name}")
    defined = list(_defined(module))
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)
