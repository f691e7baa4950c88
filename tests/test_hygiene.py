"""Leftovers of a deletion: a public name that is exported but no longer
imported (or the reverse), an import that no code of its module reads, and
a record constructor that only forwards its fields. Also the csg grammar
table: an option the plain reader would misread instead of leaving it to
argparse."""

import ast
import pathlib

import pytest

import csemigroups
from csemigroups import cli

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


def forwarding_inits(tree):
    """The ``_Record`` subclasses whose ``__init__`` only passes its own
    parameters, in order and with no defaults, to ``super().__init__``: the
    base binds the fields already."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
            isinstance(b, ast.Name) and b.id == "_Record" for b in cls.bases
        ):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name != "__init__":
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args][1:]
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Expr) else None
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "__init__"
                and isinstance(call.func.value, ast.Call)
                and isinstance(call.func.value.func, ast.Name)
                and call.func.value.func.id == "super"
                and not call.keywords
                and not fn.args.defaults
                and [a.id if isinstance(a, ast.Name) else None for a in call.args] == params
            ):
                found.append(cls.name)
    return found


def test_forwarding_init_is_found():
    source = '''
class Forward(_Record):
    _fields = ("a", "b")

    def __init__(self, a, b):
        super().__init__(a, b)


class Checks(_Record):
    _fields = ("a",)

    def __init__(self, a):
        super().__init__(tuple(a))


class Defaults(_Record):
    _fields = ("a",)

    def __init__(self, a=1):
        super().__init__(a)
'''
    assert forwarding_inits(ast.parse(source)) == ["Forward"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_record_forwards_its_fields(path):
    assert forwarding_inits(ast.parse(path.read_text(encoding="utf-8"))) == []


# the add_argument keywords cli._plain_args reads; type only as int and
# action only as "store_true"
PLAIN_KEYWORDS = {"help", "required", "default", "choices", "type", "action"}


def table_options(table):
    """(flag, keywords) of every option of a csg command table, its
    subcommand tables included."""
    for _, handler, _, _, options in table.values():
        yield from options.items()
        if isinstance(handler, dict):
            yield from table_options(handler)


def unplain(options):
    """The flags among (flag, keywords) pairs that the plain reader would
    read otherwise than argparse does."""
    return [
        flag
        for flag, kwargs in options
        if set(kwargs) - PLAIN_KEYWORDS
        or kwargs.get("type", int) is not int
        or kwargs.get("action", "store_true") != "store_true"
        # argparse passes a str default through the type
        or "type" in kwargs and isinstance(kwargs.get("default"), str)
    ]


def test_unplain_option_is_found():
    options = {
        "--list": {"nargs": "+"},
        "--many": {"action": "append"},
        "--ratio": {"type": float},
        "--count": {"type": int, "default": "3"},
        "--n": {"type": int, "required": True, "help": "n"},
        "--on": {"action": "store_true", "help": "on"},
        "--pick": {"choices": ("x", "y"), "default": "x"},
    }
    table = {"c": ("", {"s": ("", None, (), False, options)}, (), False, {})}
    assert unplain(table_options(table)) == ["--list", "--many", "--ratio", "--count"]


def test_grammar_table_uses_only_plain_keywords():
    options = [*cli._SHARED.items(), *cli._INPUT.items(), *table_options(cli._COMMANDS)]
    assert {"--json", "--gens", "--point", "--order", "-a", "--verify", "--s"} <= dict(options).keys()
    assert unplain(options) == []
