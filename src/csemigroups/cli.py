"""Command-line front end.

Every subcommand reads one input source (inline generators, inline gaps, or
a JSON file), runs one library operation, and prints either a human-readable
report or exactly one JSON document. Output point lists are sorted by the
graded-lex order, so identical inputs produce byte-identical output. Domain
errors exit with code 1 and carry the error class name; usage errors exit
with code 2.

The grammar is declared once, in one table (``_COMMANDS``, with the shared
options ``_SHARED`` and the input options ``_INPUT``): a row per command
gives its help, handler, positional choices, whether it reads an input and
its other options as ``add_argument`` keywords. ``build_parser`` builds the
argparse parser from the table. ``main`` walks an argv in the plain form
that real calls use, ``[--json] [--budget N] command [sub] [positional]
(--opt value | --flag)...`` (the shared flags also between family and its
subcommand), against the same table (``_plain_args``) into a namespace
with the attributes argparse would set. Every other argv, help and every
usage error among them, goes through ``parse_args`` itself, so their output
is argparse's own. argparse is imported only where the parser is built, so
a plain argv never loads it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import types

from . import arf as arf_mod
from . import constructions as cons
from .conjectures import buchsbaum_report, wilf_report
from .errors import SemigroupError
from .frobenius import (
    apery,
    cardinality_identity,
    classify,
    frobenius_element,
    omega_extra,
    pseudo_frobenius,
)
from .gapsemigroup import Budget, GapSemigroup, _from_columns, from_gaps, from_generators
from .lattice import TermOrder, grlex_sorted
from .membership import AffineSemigroup

# the one --json writer: every payload is a tree of lists, tuples, ints,
# strs and bools, so the cycle check would find nothing
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def parse_point(text: str):
    """One point: "(1,3)", "[1,3]", or a bare integer for dimension one."""
    text = text.strip()
    if text.startswith("["):
        data = json.loads(text)
        if type(data) is not list or not all(type(v) is int for v in data):
            raise ValueError(f"not an integer point: {text!r}")
        return tuple(data)
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts:
        raise ValueError("empty point")
    return tuple(int(s) for s in parts)


# deleting these leaves nothing of a canonical point list; JSON reads
# the same whitespace
_CANONICAL = str.maketrans("", "", "0123456789-(),; \t\n\r")
_AS_JSON = str.maketrans("();", "[],")


def _bulk_items(text: str):
    """The items of a canonical list, read by one ``json.loads``: integers
    in dimension one, else lists of one length; None for any other text
    and for the canonical lists that JSON refuses (a leading zero, a form
    feed, an integer past the digit limit).

    A canonical list is ";"-separated chunks, each a parenthesized tuple of
    integers or, in dimension one, a bare integer, with whitespace around
    any token. With "(", ")" and ";" turned into "[", "]" and "," it is a
    JSON array, and JSON reads an integer as ``int`` does. Other texts of
    the same characters can parse too ("1,2;3,4", "((1))", "(1;2),(3,4)"),
    so the array counts only if it has one item per ";"-separated chunk,
    and either the text has no "(" (then every item is an integer) or the
    items are lists of one nonzero length, one per "(" (so none nests), and
    ");(" stands, whitespace removed, at every ";".
    """
    if text.translate(_CANONICAL):
        return None
    try:
        items = json.loads("[" + text.translate(_AS_JSON) + "]")
    except (ValueError, RecursionError):
        return None
    n = text.count(";") + 1
    if len(items) != n:
        return None
    if "(" not in text:
        return items
    groups = text.count("(") == n == "".join(text.split()).count(");(") + 1
    if groups and set(map(type, items)) == {list} and len(set(map(len, items))) == 1 <= len(items[0]):
        return items


def parse_point_list(text: str):
    """Semicolon-separated points, e.g. "(0,1);(3,0)" or "4;6;9".

    A canonical list is read in bulk (``_bulk_items``) and its items made
    tuples. Any other text goes chunk by chunk through ``parse_point``,
    which reads a canonical list the same way and also takes the lenient
    forms ("+5", blank parts, JSON chunks) and names what is wrong.
    """
    if (items := _bulk_items(text)) is not None:
        return list(zip(items) if type(items[0]) is int else map(tuple, items))
    points = [parse_point(chunk) for chunk in text.split(";") if chunk.strip()]
    if not points:
        raise ValueError("empty point list")
    dims = {len(p) for p in points}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions in point list: {sorted(dims)}")
    return points


def _gap_columns(text: str):
    """The coordinate columns of a --gaps list, one per dimension.

    A canonical list's items go on as the columns, so no point tuple is
    made: in dimension one the array itself is the one column, else its
    lists are zipped once. Any other text is read by ``parse_point_list``,
    which refuses it in bulk again and reads it chunk by chunk.
    """
    items = _bulk_items(text)
    if items is None:
        return list(zip(*parse_point_list(text)))
    return [items] if type(items[0]) is int else list(zip(*items))


def _load_file(path: str, kinds=("gens", "gaps")):
    """(kind, points, d) from a JSON file, the points as its JSON lists.

    The file must hold an object with an integer "d" and, under the first of
    ``kinds`` it has, a list of integer points; anything else is a
    ValueError, which ``main`` reports as a usage error. JSON arrays load
    as plain lists, so the types are checked as two sets: of the points,
    and of all their coordinates.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or type(data.get("d")) is not int:
        raise ValueError(f"{path}: expected an object with an integer 'd'")
    for kind in kinds:
        if kind in data:
            pts = data[kind]
            if (
                type(pts) is not list
                or not set(map(type, pts)) <= {list}
                or not set(map(type, itertools.chain.from_iterable(pts))) <= {int}
            ):
                raise ValueError(f"{path}: '{kind}' must be a list of integer points")
            return kind, pts, data["d"]
    raise ValueError(f"{path}: expected a " + " or ".join(f"'{k}'" for k in kinds) + " key")


def _semigroup(args):
    """The input as given, from its one source (--gens, --gaps or --file):
    an AffineSemigroup from generators, a validated GapSemigroup from gaps;
    no gap set is built from generators.

    Gaps are built under --budget with no point tuple made: inline ones
    reach ``_from_columns`` as coordinate columns, and a file's lists go
    to ``from_gaps``, which checks their lengths against "d" and zips
    them once.
    """
    if args.gens is not None:
        pts = parse_point_list(args.gens)
        return AffineSemigroup(len(pts[0]), pts)
    # no --budget passes None, the library's default budget
    budget = args.budget and Budget(args.budget)
    if args.gaps is None:
        kind, pts, d = _load_file(args.file)
        if kind == "gens":
            return AffineSemigroup(d, pts)
        return from_gaps(d, pts, budget)
    columns = _gap_columns(args.gaps)
    return _from_columns(len(columns), columns, budget)


def _gap_semigroup(args) -> GapSemigroup:
    """The input as a GapSemigroup; generators are scanned under --budget."""
    sem = _semigroup(args)
    if isinstance(sem, AffineSemigroup):
        return from_generators(sem, budget=args.budget and Budget(args.budget))
    return sem


# ---------------------------------------------------------------------------
# Handlers; each returns a JSON-ready dict
# ---------------------------------------------------------------------------


def _run_member(args):
    sem = _semigroup(args)
    point = parse_point(args.point)
    return {"point": point, "member": len(point) == sem.dimension and point in sem}


def _run_gaps(args):
    gs = _gap_semigroup(args)
    out = gs.to_json()
    out["conductor"] = gs.conductor
    out["genus"] = gs.genus
    out["hilbert_basis"] = gs.hilbert_basis
    return out


def _run_pf(args):
    pf = pseudo_frobenius(_gap_semigroup(args))
    return {"pf": pf, "betti_type": len(pf)}


def _run_frobenius(args):
    order = TermOrder(args.order)
    return {
        "frobenius": frobenius_element(_gap_semigroup(args), order),
        "order": order.to_json(),
    }


def _run_classify(args):
    return classify(_gap_semigroup(args), TermOrder(args.order)).to_json()


def _run_omega(args):
    gs = _gap_semigroup(args)
    order = TermOrder(args.order)
    return {
        "omega_extra": omega_extra(gs, order),
        "frobenius": frobenius_element(gs, order),
    }


def _run_apery(args):
    elements = parse_point_list(args.elements)
    return {
        "elements": grlex_sorted(elements),
        "apery": apery(_gap_semigroup(args), elements),
    }


def _run_wilf(args):
    return wilf_report(_gap_semigroup(args), TermOrder(args.order)).to_json()


def _run_buchsbaum(args):
    return buchsbaum_report(_gap_semigroup(args)).to_json()


def _run_glue(args):
    _, pts1, d1 = _load_file(args.s1, ("gens",))
    _, pts2, d2 = _load_file(args.s2, ("gens",))
    s1, s2 = AffineSemigroup(d1, pts1), AffineSemigroup(d2, pts2)
    s = parse_point(args.s)
    glued = cons.glue(cons.GluingSpec(s1, s2, s))
    return {"d": glued.dimension, "generators": glued.generators, "s": s}


def _run_family_sap(args):
    sem = cons.family_sap(args.a, args.p)
    out = {
        "generators": sem.generators,
        "delta": grlex_sorted(cons.delta_set(args.a, args.p)),
    }
    if args.verify:
        verification = cons.verify_delta_pf(args.a, args.p)
        out["delta_verified"] = verification.ok
        out["delta_size"] = len(verification.witnesses)
        if args.window:
            out["apery_window"] = cons.apery_sap_window(args.a, args.p, parse_point(args.window)).to_json()
    return out


def _run_family_saps(args):
    gens = [p[0] for p in parse_point_list(args.numerical)]
    fam = cons.family_saps(args.a, args.p, gens)
    return {
        "generators": fam.semigroup.generators,
        "embedding_dimension": len(fam.semigroup.generators),
        "pf_lower_bound": fam.pf_lower_bound,
        "mu": fam.mu,
        "nu": fam.nu,
        "gluing_element": fam.gluing_element,
    }


def _run_arf(args):
    gs = _gap_semigroup(args)
    if args.action == "check":
        return {"is_arf": arf_mod.is_arf(gs)}
    if args.action == "derived":
        return arf_mod.arf_derived(gs).to_json()
    closure, steps = arf_mod.arf_closure(gs)
    out = closure.to_json()
    out["steps"] = steps
    return out


def _run_pi(args):
    sem = _semigroup(args)
    if args.action == "check":
        return arf_mod.is_pi(sem).to_json()
    return arf_mod.pi_decompose(sem).to_json()


def _run_identity(args):
    gs = _gap_semigroup(args)
    if args.action == "pf-ideal":
        # (S - S*) minus S is PF: z + g in S for each basis element g is PF's test
        return {"pf": pseudo_frobenius(gs), "matches_direct": True}
    lhs, rhs = cardinality_identity(gs, TermOrder(args.order))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

# Options as add_argument keywords. ``_plain_args`` reads only help,
# required, default, choices, type=int and action="store_true"
# (tests/test_hygiene.py holds the table to that).
_SHARED = {
    "--json": {"action": "store_true", "help": "emit one JSON document"},
    "--budget": {"type": int, "help": "gap-set box budget: at most N points per box"},
}
_INPUT = {
    "--gens": {"help": 'generators, e.g. "(0,1);(3,0)" or "4;6;9"'},
    "--gaps": {"help": "gap set, same point syntax"},
    "--file": {"help": "JSON file with d and gens or gaps"},
}
_ORDER = {"--order": {"choices": ("lex", "grlex"), "default": "grlex"}}
_A_P = {"-a": {"type": int, "required": True}, "-p": {"type": int, "required": True}}

# command: (help, handler, choices of its positional, whether it reads one
# of _INPUT, its other options); family's handler is its table of subcommands
_COMMANDS = {
    "member": ("decide membership of a point", _run_member, (), True,
               {"--point": {"required": True, "help": 'point, e.g. "(7,4)"'}}),
    "gaps": ("gap set, conductor, Hilbert basis", _run_gaps, (), True, {}),
    "pf": ("pseudo-Frobenius elements and Betti-type", _run_pf, (), True, {}),
    "frobenius": ("order-maximum gap", _run_frobenius, (), True, _ORDER),
    "classify": ("symmetry classification report", _run_classify, (), True, _ORDER),
    "omega": ("non-member part of the Frobenius ideal", _run_omega, (), True, _ORDER),
    "apery": ("Apery set of a finite witness set", _run_apery, (), True,
              {"--elements": {"required": True, "help": 'witness points, e.g. "(1,0);(0,3)"'}}),
    "wilf": ("extended Wilf report", _run_wilf, (), True, _ORDER),
    "buchsbaum": ("doubled-ray gap test", _run_buchsbaum, (), True, {}),
    "glue": ("validate a gluing and emit the result", _run_glue, (), False, {
        "--s1": {"required": True, "help": "JSON file for the first factor"},
        "--s2": {"required": True, "help": "JSON file for the second factor"},
        "--s": {"required": True, "help": 'gluing element, e.g. "[14]"'},
    }),
    "family": ("parametric families", {
        "sap": ("four-generator plane family", _run_family_sap, (), False, {
            **_A_P,
            "--verify": {"action": "store_true", "help": "verify the certified PF subset"},
            "--window": {"help": 'Apery window, e.g. "(60,60)" (with --verify)'},
        }),
        "saps": ("glued family of embedding dimension s+4", _run_family_saps, (), False, {
            **_A_P, "--numerical": {"required": True, "help": 'numerical generators, e.g. "2;3"'},
        }),
    }, (), False, {}),
    "arf": ("Arf property, derived monoid, closure", _run_arf,
            ("check", "derived", "closure"), True, {}),
    "pi": ("offset-plus-monoid property", _run_pi, ("check", "decompose"), True, {}),
    "identity": ("cross-checked identities", _run_identity,
                 ("pf-ideal", "cardinality"), True, _ORDER),
}


def _add_commands(parser, table, dest, common):
    """One subparser of ``parser`` per row of ``table``, named into ``dest``."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, handler, choices, reads_input, options) in table.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if isinstance(handler, dict):
            _add_commands(sp, handler, name, common)
            continue
        if choices:
            sp.add_argument("action", choices=choices)
        if reads_input:
            group = sp.add_mutually_exclusive_group(required=True)
            for flag, kwargs in _INPUT.items():
                group.add_argument(flag, **kwargs)
        for flag, kwargs in options.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=handler)


def build_parser():
    """A new argparse parser for the ``csg`` command line; ``main`` shares
    one. argparse is imported here, so a plain argv never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="csg",
        description="Exact invariants of finite-gap semigroups in N^d.",
    )
    # the shared flags are accepted both before and after the subcommand;
    # SUPPRESS keeps a subparser from clobbering a value parsed up front
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _SHARED.items():
        parser.add_argument(flag, **kwargs)
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    _add_commands(parser, _COMMANDS, "command", common)
    return parser


def _render_text(payload, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, (list, tuple)) and not value:
            lines.append(f"{pad}{key}: []")
        elif isinstance(value, (list, tuple)) and isinstance(value[0], (list, tuple)):
            pts = " ".join("(" + ",".join(str(v) for v in p) + ")" for p in value)
            lines.append(f"{pad}{key}: {pts}")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}: " + "(" + ",".join(str(v) for v in value) + ")")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser ``main`` hands every argv that is not plain, built the
    first time one comes, not on import and not for a plain argv.

    Parsing leaves the parser as it was, and argparse looks up sys.stdout,
    sys.stderr and the terminal width only when it prints, so one parser
    serves every call of the process.
    """
    return build_parser()


def _plain_value(kwargs, token: str):
    """What argparse stores for ``token`` as the value of an argument
    declared by ``kwargs``, or None where it would fail or read the token
    otherwise."""
    if token.startswith("-"):
        return None
    try:
        value = kwargs.get("type", str)(token)
    except ValueError:
        return None
    return value if value in kwargs.get("choices", (value,)) else None


def _read_options(argv, i: int, options, read: dict):
    """Reads ``options`` from argv[i] on into ``read``, up to the first
    token that does not start with "-"; returns that token's index, or None
    at an unknown or repeated option or a value that is not plain."""
    while i < len(argv) and argv[i].startswith("-"):
        kwargs, dest = options.get(argv[i]), argv[i].lstrip("-")
        if kwargs is None or dest in read:
            return None
        if kwargs.get("action") == "store_true":
            read[dest], i = True, i + 1
        elif i + 1 < len(argv) and (value := _plain_value(kwargs, argv[i + 1])) is not None:
            read[dest], i = value, i + 2
        else:
            return None
    return i


def _plain_args(argv):
    """The attributes of the Namespace ``_parser().parse_args(argv)``
    returns, in a SimpleNamespace, read off the grammar table when argv has
    the plain form: shared options, the command; for family, shared options
    and the subcommand; the positional, if the command has one; then the
    command's options. An option is an exact option string and, unless it
    is a flag, one value that does not start with "-".

    Returns None for any other argv, and wherever argparse would print or
    fail: help, an abbreviation, ``--opt=value``, a token starting with "-"
    where a value or positional belongs, an option given twice (or on both
    sides of the command), a bad type or choice, a missing required
    argument or input option, or two input options. ``main`` hands those
    to argparse, so help and every error stay argparse's own.
    """
    read, i, table, dest, options = {}, 0, _COMMANDS, "command", _SHARED
    while isinstance(table, dict):
        i = _read_options(argv, i, options, read)
        if i is None or i == len(argv) or argv[i] not in table:
            return None
        # the command goes under dest, its own subcommand under its name
        read[dest] = dest = argv[i]
        _, table, choices, reads_input, own = table[dest]
        options = {**_SHARED, **(_INPUT if reads_input else {}), **own}
        i += 1
        if choices:
            if i == len(argv) or (value := _plain_value({"choices": choices}, argv[i])) is None:
                return None
            read["action"], i = value, i + 1
    if _read_options(argv, i, options, read) != len(argv):
        return None
    # a command that reads an input takes exactly one input option
    if reads_input and sum(flag.lstrip("-") in read for flag in _INPUT) != 1:
        return None
    for flag, kwargs in options.items():
        name = flag.lstrip("-")
        if name not in read:
            if kwargs.get("required"):
                return None
            switch = kwargs.get("action") == "store_true"
            read[name] = kwargs.get("default", False if switch else None)
    return types.SimpleNamespace(handler=table, **read)


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed its message
            return int(exc.code or 0)
    if args.budget is not None and args.budget < 1:
        print("usage error: --budget must be positive", file=sys.stderr)
        return 2
    try:
        payload = args.handler(args)
    except SemigroupError as exc:
        if args.json:
            print(_JSON.encode({"error": exc.name, "detail": str(exc)}))
        else:
            print(f"error {exc.name}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_JSON.encode(payload))
    else:
        print("\n".join(_render_text(payload)))
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
