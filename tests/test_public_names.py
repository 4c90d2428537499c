"""Every public name the package defines has a caller inside the package."""

import ast
import pathlib

import e2qes

PACKAGE = pathlib.Path(e2qes.__file__).parent


def _module_bodies():
    """Module stem -> top-level statements, for every module but __init__."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
            for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}


def _names_read_in_modules():
    """Module stem -> names loaded or attributes read in it.

    Reads inside a function or class body do not count for its own name.
    """
    reads = {}
    for module, body in _module_bodies().items():
        names = reads[module] = set()
        for stmt in body:
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
            names |= read - {getattr(stmt, "name", None)}
    return reads


def test_every_public_name_is_used_inside_the_package():
    # an exported name must be read in a module other than its home: a
    # definition is not a use, and a name only its own module and the
    # tests read need not be exported
    reads = _names_read_in_modules()
    unused = sorted(name for name in e2qes.__all__
                    if not any(name in read for module, read in reads.items()
                               if module != getattr(e2qes, name).__module__.split(".")[-1]))
    assert unused == []


def test_every_public_definition_is_used_inside_the_package():
    # module-level functions and classes without a leading underscore,
    # exported or not
    defined = {stmt.name for body in _module_bodies().values() for stmt in body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")}
    assert sorted(defined - set().union(*_names_read_in_modules().values())) == []


def test_every_public_member_is_read_outside_its_class():
    # a public method or property of a public class must be read as an
    # attribute somewhere in the package outside that class's body
    bodies = _module_bodies()
    classes = [stmt for body in bodies.values() for stmt in body
               if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")]
    everywhere = [node for body in bodies.values() for stmt in body for node in ast.walk(stmt)]
    unread = []
    for cls in classes:
        own = {id(node) for node in ast.walk(cls)}
        read = {node.attr for node in everywhere if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load) and id(node) not in own}
        unread += [f"{cls.name}.{stmt.name}" for stmt in cls.body
                   if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
                   and stmt.name not in read]
    assert unread == []


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(e2qes)
    for name in e2qes.__all__:
        assert getattr(e2qes, name) is not None
        assert name in listed
    namespace = {}
    exec("from e2qes import *", namespace)
    assert set(e2qes.__all__) <= set(namespace)
