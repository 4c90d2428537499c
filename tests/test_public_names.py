"""Every public name the package defines has a caller inside the package."""

import ast
import pathlib

import e2qes

PACKAGE = pathlib.Path(e2qes.__file__).parent


def _module_bodies():
    """Top-level statements of every module but __init__."""
    return [stmt for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def _names_read_in_modules():
    """Names loaded or attributes read anywhere in the modules but __init__.

    Reads inside a function or class body do not count for its own name.
    """
    names = set()
    for stmt in _module_bodies():
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        names |= read - {getattr(stmt, "name", None)}
    return names


def test_every_public_name_is_used_inside_the_package():
    # a definition is not a use, so a name only tests call shows up here
    unused = sorted(set(e2qes.__all__) - _names_read_in_modules())
    assert unused == []


def test_every_public_definition_is_used_inside_the_package():
    # module-level functions and classes without a leading underscore,
    # exported or not
    defined = {stmt.name for stmt in _module_bodies()
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")}
    assert sorted(defined - _names_read_in_modules()) == []


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(e2qes)
    for name in e2qes.__all__:
        assert getattr(e2qes, name) is not None
        assert name in listed
    namespace = {}
    exec("from e2qes import *", namespace)
    assert set(e2qes.__all__) <= set(namespace)
