"""Every name the package exports has a caller inside the package."""

import ast
import pathlib

import e2qes

PACKAGE = pathlib.Path(e2qes.__file__).parent


def _names_read_in_modules():
    """Names loaded or attributes read anywhere in the modules but __init__."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_inside_the_package():
    # a definition is not a use, so a name only tests call shows up here
    unused = sorted(set(e2qes.__all__) - _names_read_in_modules())
    assert unused == []
