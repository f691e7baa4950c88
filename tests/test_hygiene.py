"""Leftovers of a deletion: a public name that is exported but no longer
imported (or the reverse), and an import that no code of its module reads."""

import ast
import pathlib

import pytest

import csemigroups

PACKAGE = pathlib.Path(csemigroups.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names an import statement binds in the module, except the
    ``annotations`` future flag."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names - {"annotations"}


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert set(csemigroups.__all__) == imported_names(tree)
    assert len(csemigroups.__all__) == len(set(csemigroups.__all__))
    for name in csemigroups.__all__:
        assert getattr(csemigroups, name) is not None, name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - read) == []
