"""Every typed error of the package is raised somewhere in it."""

import ast
import pathlib

import wpcurv
from wpcurv import errors

SRC = pathlib.Path(wpcurv.__file__).parent


def _raised_names():
    """Names raised (`raise Name(...)` or `raise Name`) outside errors.py."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_typed_error_has_a_raise_site():
    typed = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.WpcurvError)
             and obj is not errors.WpcurvError}
    assert typed
    assert typed - _raised_names() == set()
