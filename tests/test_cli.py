import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import box_points, finite_gap_sets
from csemigroups import cli
from csemigroups.cli import main, parse_point, parse_point_list
from csemigroups.errors import DimensionMismatch, NotNatural
from csemigroups.frobenius import apery, omega_extra, pseudo_frobenius
from csemigroups.gapsemigroup import Budget, GapSemigroup, from_gaps
from csemigroups.lattice import TermOrder, _Box, grlex_sorted
from csemigroups.membership import AffineSemigroup

S2 = "(0,1);(3,0);(4,0);(1,4);(5,0);(2,7)"
S5 = "(0,1);(4,0);(5,0);(6,0);(7,0);(1,4);(2,7);(3,10)"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out) if out.strip() else None


class TestParsing:
    def test_point_forms(self):
        assert parse_point("(1,3)") == (1, 3)
        assert parse_point("[1,3]") == (1, 3)
        assert parse_point("7") == (7,)
        assert parse_point(" ( 2 , 8 ) ") == (2, 8)

    def test_point_list(self):
        assert parse_point_list("4;6;9") == [(4,), (6,), (9,)]
        assert parse_point_list("(0,1);(3,0)") == [(0, 1), (3, 0)]

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            parse_point_list("(0,1);(3,0,0)")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_point_list_matches_per_chunk_parser(self, data):
        text = data.draw(point_list_texts())
        assert _outcome(parse_point_list, text) == _outcome(_per_chunk_point_list, text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bulk_read_matches_per_chunk_parser(self, data):
        # a canonical list in JSON's whitespace takes the one json.loads
        text = data.draw(canonical_list_texts())
        assert cli._bulk_items(text) is not None
        assert parse_point_list(text) == _per_chunk_point_list(text)

    @pytest.mark.parametrize("text, expected", [
        ("1,2;3,4", [(1, 2), (3, 4)]),
        ("(1);2", [(1,), (2,)]),
        ("007", [(7,)]),
        ("(1,2),(3,4)", "invalid literal for int() with base 10: '2)'"),
        ("((1,2))", "invalid literal for int() with base 10: '(1'"),
        ("()", "empty point"),
        ("(1,2);(3)", "mixed dimensions in point list: [1, 2]"),
        (" ", "empty point list"),
        ("1;2;", [(1,), (2,)]),
        ("\f1", [(1,)]),
        ("-0", [(0,)]),
        ("[1,2];[3,4]", [(1, 2), (3, 4)]),
        # a ";" inside a tuple and a "," between two: the counts alone agree
        ("(1;2),(3,4)", "invalid literal for int() with base 10: '(1'"),
    ], ids=repr)
    def test_edge_texts(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                parse_point_list(text)
            assert str(err.value) == expected
        else:
            assert parse_point_list(text) == expected

    @pytest.mark.parametrize("text, chunk", [
        ("9" * 5000, "9" * 5000),
        (f"({'9' * 5000},1);(2,3)", "9" * 5000),
        (f"1;{'9' * 5000}", "9" * 5000),
        # nested deeper than json.loads recurses
        ("(" * 3000 + ";" * 3000, "(" * 3000),
    ], ids=["digits", "digits-in-tuple", "digits-second", "nesting"])
    def test_texts_past_the_json_limits(self, text, chunk):
        # the ValueError that int() gives for the first bad chunk
        assert _outcome(parse_point_list, text) == _outcome(int, chunk)


def _per_chunk_point_list(text):
    """The point-list grammar chunk by chunk: every ";" part that is not
    blank through ``parse_point``, then one dimension for all."""
    points = [parse_point(chunk) for chunk in text.split(";") if chunk.strip()]
    if not points:
        raise ValueError("empty point list")
    dims = {len(p) for p in points}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions in point list: {sorted(dims)}")
    return points


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the same class and text, whatever it is
        return "error", type(exc), str(exc)


_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", " \r\n", "\xa0", "\u2003"])
_VALUE = st.one_of(
    st.integers(-20, 60), st.integers(0, 10**6), st.integers(-(10**40), 10**40)
).map(str)
# spellings the per-chunk parser reads that are not canonical, and some
# it rejects
_ODD_CHUNK = st.sampled_from([
    "+5", "(+1,2)", "(1,,2)", "(,3)", "[1,2]", "[7]", "[true]", "[1.5]", "[1,",
    "007", "(007,08)", "-0", "1_000", "(5)", "( 5 )", "()", "(1,2", "1,2)", "(1;2)",
    "abc", "1.5", "(a,b)", ")(", "", " ", "\u0663", "((1,2))", "(1 2)", "-", "--1",
])


@st.composite
def point_list_texts(draw):
    """Canonical lists (bare integers in d = 1, parenthesized tuples in any
    d), with whitespace around every token; some get odd chunks, stray
    separators or a changed dimension spliced in, and some are noise."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.text(alphabet="0123456789-+(),;[] \t_.ae", max_size=30))
    d = draw(st.integers(1, 4))
    bare = d == 1 and draw(st.booleans())
    chunks = []
    for _ in range(draw(st.integers(1, 6))):
        dim = d if draw(st.integers(0, 9)) else draw(st.integers(1, 4))
        values = [draw(_SPACE) + draw(_VALUE) + draw(_SPACE) for _ in range(dim)]
        if bare and dim == 1 and draw(st.integers(0, 4)):
            chunk = values[0]
        else:
            chunk = "(" + ",".join(values) + ")"
        chunks.append(draw(_SPACE) + chunk + draw(_SPACE))
    for _ in range(draw(st.integers(0, 2))):
        chunks.insert(draw(st.integers(0, len(chunks))), draw(_ODD_CHUNK))
    return ";".join(chunks)


@st.composite
def canonical_list_texts(draw):
    """Canonical lists in d = 1..3 (bare integers or tuples in d = 1), with
    JSON whitespace around any token."""
    space = st.sampled_from(["", "", " ", "\t", "\n", " \r\n"])
    d = draw(st.integers(1, 3))
    bare = d == 1 and draw(st.booleans())
    chunks = []
    for _ in range(draw(st.integers(1, 6))):
        values = [draw(space) + str(draw(st.integers(-(10**30), 10**30))) + draw(space) for _ in range(d)]
        chunk = values[0] if bare else "(" + ",".join(values) + ")"
        chunks.append(draw(space) + chunk + draw(space))
    return ";".join(chunks)


class TestGoldenOutputs:
    def test_pf_json(self, capsys):
        code, data = run_json(capsys, "pf", "--gens", S2)
        assert code == 0
        assert data == {"pf": [[1, 3], [2, 6]], "betti_type": 2}

    def test_json_flag_after_subcommand(self, capsys):
        code = main(["pf", "--gens", S2, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == {"pf": [[1, 3], [2, 6]], "betti_type": 2}

    def test_wilf_numbers(self, capsys):
        code, data = run_json(capsys, "wilf", "--gens", S5, "--order", "grlex")
        assert code == 0
        assert data["holds"] is True
        assert data["n_frobenius"] == 82
        assert data["sporadic"] == 61
        assert data["embedding_dimension"] == 8

    def test_gaps_listing(self, capsys):
        code, data = run_json(capsys, "gaps", "--gens", "4;6;9")
        assert code == 0
        assert data["gaps"] == [[1], [2], [3], [5], [7], [11]]
        assert data["conductor"] == [12]
        assert data["genus"] == 6

    def test_member(self, capsys):
        code, data = run_json(capsys, "member", "--gens", S2, "--point", "(2,6)")
        assert code == 0 and data["member"] is False
        code, data = run_json(capsys, "member", "--gens", S2, "--point", "(2,7)")
        assert code == 0 and data["member"] is True

    def test_member_far_from_origin(self, capsys):
        # far from the origin: the answer must not walk the points below it
        sap = "(3,0);(0,3);(5,2);(2,5)"
        code, out = run(capsys, "--json", "member", "--gens", sap, "--point", "(3000,3001)")
        assert code == 0 and out == '{"member":false,"point":[3000,3001]}\n'
        code, out = run(capsys, "--json", "member", "--gens", sap, "--point", "(3000,3003)")
        assert code == 0 and out == '{"member":true,"point":[3000,3003]}\n'

    @pytest.mark.parametrize("source", [["--gens", S2], ["--gaps", "(1,0);(1,1)"]])
    @pytest.mark.parametrize("point", ["4", "(1,1,1)"])
    def test_member_point_of_another_dimension(self, capsys, source, point):
        code, out = run(capsys, "--json", "member", *source, "--point", point)
        assert code == 0
        assert json.loads(out) == {"member": False, "point": list(parse_point(point))}

    @pytest.mark.parametrize("gens", ["(6,0);(0,1);(1,2);(1,7)", "(3,0);(0,1);(1,1)"])
    def test_gap_line_along_axis_zero(self, capsys, gens):
        # row y = 0 holds only multiples of the axis generator, so the gap
        # lines run along axis 0 and the slice named lies on axis 1
        code, out = run(capsys, "--json", "gaps", "--gens", gens)
        assert code == 1
        assert out == (
            '{"detail":"gap set is infinite (axis 1, level 0): the axis-free face'
            ' already has infinitely many gaps","error":"InfiniteGaps"}\n'
        )

    def test_classify(self, capsys):
        code, data = run_json(capsys, "classify", "--gens", S2)
        assert code == 0
        assert data["classification"]["pseudo_symmetric"] is True

    def test_omega(self, capsys):
        code, data = run_json(
            capsys, "omega", "--gens", "(0,1);(3,0);(4,0);(1,5);(5,0);(2,9)"
        )
        assert code == 0
        assert data["omega_extra"] == [[1, 4]]

    def test_apery(self, capsys):
        code, data = run_json(capsys, "apery", "--gens", "4;6;9", "--elements", "4")
        assert code == 0
        assert data["apery"] == [[0], [6], [9], [15]]

    def test_family_verify_past_the_member_budget(self, capsys):
        start = time.perf_counter()
        code, data = run_json(
            capsys, "family", "sap", "-a", "11", "-p", "2", "--verify", "--window", "(10,10)"
        )
        assert time.perf_counter() - start < 2
        assert code == 1 and data["error"] == "BudgetExceeded"

    def test_buchsbaum(self, capsys):
        code, data = run_json(
            capsys, "buchsbaum", "--gens", "(1,0);(1,1);(1,2);(0,3);(0,4);(0,5)"
        )
        assert code == 0
        assert data["is_buchsbaum"] is True
        assert data["d_set"] == [[0, 1], [0, 2]]

    def test_gaps_input_form(self, capsys):
        code, data = run_json(capsys, "pf", "--gaps", "(1,0);(1,1)")
        assert code == 0
        assert data["pf"] == [[1, 1]]

    def test_family_sap_verify(self, capsys):
        code, data = run_json(
            capsys, "family", "sap", "-a", "3", "-p", "1", "--verify", "--window", "(20,20)"
        )
        assert code == 0
        assert data["delta_verified"] is True
        assert data["delta"] == [[4, 7], [7, 4]]
        assert data["apery_window"]["consistent"] is True

    def test_family_saps(self, capsys):
        code, data = run_json(capsys, "family", "saps", "-a", "3", "-p", "1", "--numerical", "2;3")
        assert code == 0
        assert data["embedding_dimension"] == 6
        assert data["pf_lower_bound"] == 2

    def test_arf_closure(self, capsys):
        code, data = run_json(
            capsys, "arf", "closure", "--gens", "(0,1);(3,0);(5,0);(1,3);(2,3)"
        )
        assert code == 0
        assert data["steps"] == 1
        assert [4, 2] in data["gaps"] and [7, 2] not in data["gaps"]

    def test_arf_derived(self, capsys):
        code, out = run(capsys, "--json", "arf", "derived", "--gens", "(0,1);(3,0);(5,0);(1,3);(2,3)")
        assert code == 0
        assert out == (
            '{"d":2,"gaps":[[1,0],[1,1],[2,0],[1,2],[2,1],[2,2],[4,0],[4,1],[4,2]]}\n'
        )

    def test_pi_decompose(self, capsys):
        code, data = run_json(
            capsys, "pi", "decompose", "--gens",
            "(6,12);(8,16);(9,18);(10,20);(11,22);(13,26)",
        )
        assert code == 0
        assert data["offset"] == [6, 12]
        assert data["base"]["gens"] == [[2, 4], [3, 6]]

    def test_identity_subcommands(self, capsys):
        code, data = run_json(capsys, "identity", "pf-ideal", "--gens", S2)
        assert code == 0 and data["matches_direct"] is True
        code, data = run_json(capsys, "identity", "cardinality", "--gens", S5)
        assert code == 0 and data == {"lhs": 19, "rhs": 19, "equal": True}

    def test_glue_with_files(self, capsys, tmp_path):
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        f1.write_text(json.dumps({"d": 1, "gens": [[6], [10], [14]]}))
        f2.write_text(json.dumps({"d": 1, "gens": [[14], [21]]}))
        code, data = run_json(capsys, "glue", "--s1", str(f1), "--s2", str(f2), "--s", "[14]")
        assert code == 0
        assert data["generators"] == [[6], [10], [14], [21]]

    def test_large_numerical_pf(self, capsys):
        # genus 510048: the conductor box holds about two million points
        code, out = run(capsys, "--json", "pf", "--gens", "1009;1013")
        assert code == 0
        assert out == '{"betti_type":1,"pf":[[1020095]]}\n'

    def test_file_input_gaps(self, capsys, tmp_path):
        f = tmp_path / "gs.json"
        f.write_text(json.dumps({"d": 2, "gaps": [[1, 0], [1, 1]]}))
        code, data = run_json(capsys, "frobenius", "--file", str(f))
        assert code == 0
        assert data["frobenius"] == [1, 1]

    def test_file_gaps_go_through_from_gaps(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(d, gaps, budget=None):
            calls.append((d, gaps, budget))
            return from_gaps(d, gaps, budget)

        monkeypatch.setattr(cli, "from_gaps", counted)
        f = tmp_path / "gs.json"
        f.write_text(json.dumps({"d": 2, "gaps": [[1, 0], [1, 1]]}))
        code, data = run_json(capsys, "--budget", "100", "pf", "--file", str(f))
        assert code == 0 and data["pf"] == [[1, 1]]
        assert calls == [(2, [[1, 0], [1, 1]], Budget(100))]


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, first = run(capsys, "--json", "classify", "--gens", S5)
        _, second = run(capsys, "--json", "classify", "--gens", S5)
        assert first == second

    def test_single_json_document(self, capsys):
        _, out = run(capsys, "--json", "gaps", "--gens", S2)
        assert len(out.strip().splitlines()) == 1
        json.loads(out)


class TestErrors:
    def test_not_full_cone_exit_one(self, capsys):
        code = main(["gaps", "--gens", "(2,0)"])
        err = capsys.readouterr().err
        assert code == 1
        assert "NotFullCone" in err

    def test_error_name_in_json(self, capsys):
        code, data = run_json(capsys, "gaps", "--gens", "(3,0);(0,3);(5,2);(2,5)")
        assert code == 1
        assert data["error"] == "InfiniteGaps"

    def test_usage_error_exit_two(self, capsys):
        assert main(["pf"]) == 2  # no input source
        capsys.readouterr()

    def test_unknown_flag_is_error(self, capsys):
        assert main(["pf", "--gens", S2, "--frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["spectralize"]) == 2
        capsys.readouterr()

    def test_two_input_sources_rejected(self, capsys):
        assert main(["pf", "--gens", S2, "--gaps", "(1,0)"]) == 2
        capsys.readouterr()

    def test_bad_point_syntax(self, capsys):
        assert main(["member", "--gens", S2, "--point", "oops"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaps", "--gaps", "[true];[2];[3]"],
            ["member", "--gens", "[true,false];[false,true]", "--point", "(1,1)"],
            ["member", "--gens", S2, "--point", "[2,false]"],
        ],
    )
    def test_json_chunk_booleans_are_usage_errors(self, capsys, argv):
        assert main(["--json", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")

    # the input is validated whatever the point's dimension
    @pytest.mark.parametrize("point", ["(1,1)", "4", "(1,1,1)", "x"])
    def test_member_rejects_gaps_not_closed(self, capsys, point):
        code, data = run_json(capsys, "member", "--gaps", "(0,0)", "--point", point)
        assert code == 1
        assert data["error"] == "NotClosed"

    @pytest.mark.parametrize("point", ["(1,1)", "1", "(1,1,1)", "x"])
    def test_member_rejects_negative_generators(self, capsys, point):
        assert main(["--json", "member", "--gens", "(-1,0);(0,1)", "--point", point]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: generator (-1, 0) has a negative coordinate\n"

    def test_family_saps_zero_generator_is_bad_params(self, capsys):
        code, out = run(capsys, "--json", "family", "saps", "-a", "3", "-p", "1", "--numerical", "0;3")
        assert code == 1
        assert out == '{"detail":"numerical generators must be positive integers","error":"BadParams"}\n'

    def test_family_saps_over_n_is_a_domain_error(self, capsys):
        code, data = run_json(capsys, "family", "saps", "-a", "3", "-p", "1", "--numerical", "1")
        assert code == 1
        assert data["error"] == "EmptyPF"

    def test_budget_flag_respected(self, capsys):
        code, data = run_json(capsys, "--budget", "2", "gaps", "--gens", S2)
        assert code == 1
        assert data["error"] == "BudgetExceeded"

    def test_budget_bounds_numerical_gaps(self, capsys):
        code, data = run_json(capsys, "--budget", "1000", "gaps", "--gens", "1009;1013")
        assert code == 1
        assert data["error"] == "BudgetExceeded"

    def test_window_boxes_capped_by_member_budget(self, capsys):
        code, data = run_json(capsys, "pi", "decompose", "--gens", "(5000,5000)")
        assert code == 1
        assert data["error"] == "BudgetExceeded"

    @pytest.mark.parametrize(
        "data",
        [
            {"gaps": [[1], [2], [3]]},
            {"d": 1, "gaps": [[1.5]]},
            {"d": 2, "gaps": [[1, "a"]]},
            {"d": "2", "gaps": [[1, 0]]},
            {"d": 2, "gens": [[1, 0], [0, True]]},
            {"d": 1, "gaps": "1;2"},
            {"d": 1, "gaps": [1, 2]},
            {"d": 1, "gaps": {"1": [1]}},
            {"d": 2, "gaps": [[1, 0], [[0], 1]]},
            {"d": 1, "gaps": [[1], None]},
        ],
    )
    def test_malformed_file_is_usage_error(self, capsys, tmp_path, data):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        assert main(["gaps", "--file", str(f)]) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize(
        "data", [{"d": 0, "gaps": []}, {"d": -1, "gaps": []}, {"d": 0, "gens": [[]]}]
    )
    def test_dimension_below_one_is_usage_error(self, capsys, tmp_path, data):
        f = tmp_path / "low.json"
        f.write_text(json.dumps(data))
        assert main(["--json", "gaps", "--file", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: dimension must be at least 1\n"

    @pytest.mark.parametrize(
        "data",
        [
            {"gens": [[6], [10]]},
            {"d": 1, "gens": [[7.5], [9]]},
            {"d": 1, "gaps": [[1]]},
        ],
    )
    def test_malformed_glue_factor_is_usage_error(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"d": 1, "gens": [[14], [21]]}))
        for s1, s2 in ((bad, good), (good, bad)):
            assert main(["glue", "--s1", str(s1), "--s2", str(s2), "--s", "[14]"]) == 2
            assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_is_usage_error(self, capsys, budget):
        assert main(["--budget", budget, "gaps", "--gens", S2]) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    def test_empty_gap_error(self, capsys):
        code, data = run_json(capsys, "frobenius", "--gens", "(1,0);(0,1)")
        assert code == 1
        assert data["error"] == "EmptyGapSet"

    @pytest.mark.parametrize("argv, detail", [
        # (30, 30) answers NotClosed under a budget of 3 844 points or more
        (["--budget", "1000", "gaps", "--gaps", "(30,30)"], "(62, 62)"),
        # 1.6e9 points under the default budget: no mask is built
        (["gaps", "--gaps", "(20000,20000)"], "(40002, 40002)"),
        (["--budget", "15", "member", "--gaps", "(1,0);(1,1)", "--point", "(1,1)"], "(4, 4)"),
        (["--budget", "15", "pi", "check", "--gaps", "(1,0);(1,1)"], "(4, 4)"),
    ], ids=["small-budget", "default-budget", "member", "pi"])
    def test_gap_input_honours_the_budget(self, capsys, argv, detail):
        code, out = run(capsys, "--json", *argv)
        assert code == 1
        detail = f"the conductor box {detail} passes the budget"
        assert out == json.dumps({"detail": detail, "error": "BudgetExceeded"}, separators=(",", ":")) + "\n"

    def test_gap_budget_counts_the_conductor_box(self, capsys, tmp_path):
        f = tmp_path / "gs.json"
        f.write_text(json.dumps({"d": 2, "gaps": [[1, 0], [1, 1]]}))
        for source in (["--gaps", "(1,0);(1,1)"], ["--file", str(f)]):
            # the conductor box [0, 4) x [0, 4) holds 16 points
            assert run_json(capsys, "--budget", "15", "gaps", *source)[1]["error"] == "BudgetExceeded"
            assert run_json(capsys, "--budget", "16", "gaps", *source)[1]["genus"] == 2


def _input(**source):
    """The namespace ``cli._semigroup`` reads, with one input source."""
    return argparse.Namespace(**{"gens": None, "gaps": None, "file": None, "budget": None, **source})


def _per_point_gap_set(d, points):
    """``from_gaps`` point by point: the set of the points walked in its
    order to name a bad one, then one bit set per point in the conductor
    box."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    for g in frozenset(map(tuple, points)):
        if len(g) != d:
            raise DimensionMismatch(f"gap {g} in dimension {d}")
        if any(v < 0 for v in g):
            raise NotNatural(g)
    box = _Box([2 + 2 * max(col) for col in zip(*points)] or [2] * d)
    mask = 0
    for p in points:
        mask |= 1 << box.index(p)
    return GapSemigroup(box, mask)


def _built(build, *args):
    """(conductor, gap_mask, low_basis) of what ``build`` returns, or the
    class and text of what it raises."""
    try:
        gs = build(*args)
    except Exception as exc:  # the same class and text, whatever it is
        return type(exc), str(exc)
    return gs.conductor, gs.gap_mask, gs.low_basis


@st.composite
def gap_lists(draw):
    """(d, gaps as lists): a valid gap set, or points of length d mixed with
    ones of any length and sign, and the empty list; with duplicates, in a
    drawn order."""
    if draw(st.booleans()):
        gs = draw(finite_gap_sets())
        d, gaps = gs.dimension, [list(g) for g in gs.gaps]
    else:
        d = draw(st.integers(1, 3))
        point = st.one_of(
            st.lists(st.integers(0, 4), min_size=d, max_size=d),
            st.lists(st.integers(0, 4), min_size=d, max_size=d),
            st.lists(st.integers(-2, 4), max_size=4),
        )
        gaps = draw(st.lists(point, max_size=8))
    if gaps:
        gaps += draw(st.lists(st.sampled_from(gaps), max_size=3))
    return d, draw(st.permutations(gaps))


def _canonical_text(gaps, bare):
    if bare:
        return ";".join(str(g) for g, in gaps)
    return ";".join("(" + ",".join(map(str, g)) + ")" for g in gaps)


class TestGapColumns:
    """Gap input reaches the mask as coordinate columns, inline and from a
    file, and builds what a point-by-point construction builds."""

    def test_columns(self):
        assert cli._gap_columns("1;2;5") == [[1, 2, 5]]
        assert cli._gap_columns("(1,0);(1,1)") == [(1, 1), (0, 1)]
        assert cli._gap_columns("+1; 2") == [(1, 2)]

    @settings(max_examples=300, deadline=None)
    @given(gap_lists())
    def test_routes_match_the_per_point_build(self, tmp_path_factory, drawn):
        d, gaps = drawn
        expected = _built(_per_point_gap_set, d, gaps)
        assert _built(from_gaps, d, [tuple(g) for g in gaps]) == expected
        assert _built(from_gaps, d, gaps) == expected
        path = tmp_path_factory.getbasetemp() / "gap-columns.json"
        path.write_text(json.dumps({"d": d, "gaps": gaps}))
        assert _built(cli._semigroup, _input(file=str(path))) == expected
        if gaps and {len(g) for g in gaps} == {d}:
            for bare in {False, d == 1}:
                assert _built(cli._semigroup, _input(gaps=_canonical_text(gaps, bare))) == expected

    @settings(max_examples=60, deadline=None)
    @given(gap_lists(), st.sampled_from(["gaps", "pf", "wilf", "buchsbaum", "arf check"]), st.booleans())
    def test_file_and_inline_print_the_same(self, tmp_path_factory, drawn, command, as_json):
        d, gaps = drawn
        assume(gaps and {len(g) for g in gaps} == {d})
        path = tmp_path_factory.getbasetemp() / "gap-print.json"
        path.write_text(json.dumps({"d": d, "gaps": gaps}))
        printed = []
        for source in (["--gaps", _canonical_text(gaps, False)], ["--file", str(path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--json"] * as_json + command.split() + source)
            printed.append((code, out.getvalue(), err.getvalue()))
        assert printed[0] == printed[1]


class TestTextMode:
    def test_wilf_text(self, capsys):
        code, out = run(capsys, "wilf", "--gens", S5)
        assert code == 0
        assert "holds: True" in out
        assert "sporadic: 61" in out

    def test_point_rendering(self, capsys):
        code, out = run(capsys, "pf", "--gens", S2)
        assert code == 0
        assert "(1,3) (2,6)" in out


class TestSharedParser:
    # one interleaved sequence: JSON and text, the shared flags on both
    # sides of the subcommand, usage errors, help and domain errors
    SEQUENCE = [
        (["--json", "pf", "--gens", S2], 0),
        (["pf", "--gens", S2], 0),
        (["--budget", "2", "gaps", "--gens", S2], 1),
        (["gaps", "--gens", "4;6;9", "--budget", "1000", "--json"], 0),
        (["gaps", "--gens", "4;6;9"], 0),
        (["pf", "--gens", S2, "--frobnicate"], 2),
        (["--help"], 0),
        (["identity", "pf-ideal", "--gens", S2, "--json"], 0),
        (["classify", "--help"], 0),
        (["--json", "gaps", "--gens", "(2,0)"], 1),
        (["member", "--gens", S2, "--point", "(2,7)"], 0),
        (["--budget", "0", "pf", "--gens", S2], 2),
        (["gaps", "--gens", "(2,0)"], 1),
        (["--json", "member", "--gens", S2, "--point", "(2,6)"], 0),
    ]

    def run_sequence(self, capsys):
        results = []
        for argv, _ in self.SEQUENCE:
            code = main(list(argv))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        shared = self.run_sequence(capsys)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.run_sequence(capsys)
        assert [code for code, _, _ in shared] == [code for _, code in self.SEQUENCE]
        for argv_code, a, b in zip(self.SEQUENCE, shared, fresh):
            assert a == b, argv_code[0]

    def test_import_builds_no_parser(self):
        script = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import csemigroups.cli\n"
            "counts = [len(built)]\n"
            "for argv in (['pf', '--gens', '4;6;9'], ['pf', '--gens', '4;6;9'], ['pf'], ['pf']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        csemigroups.cli.main(argv)\n"
            "    counts.append(len(built))\n"
            "print(counts)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # plain argvs build no parser; the first usage error builds the one
        # every later call shares
        before, plain, plain_again, usage, usage_again = json.loads(proc.stdout)
        assert before == plain == plain_again == 0
        assert usage == usage_again > 0

    def test_plain_argv_builds_no_parser(self, capsys):
        cli._parser.cache_clear()
        assert main(["--json", "pf", "--gens", "4;6;9"]) == 0
        assert main(["family", "sap", "-a", "3", "-p", "1"]) == 0
        assert cli._parser.cache_info().currsize == 0
        assert main(["pf", "--gens", "4;6;9", "--frobnicate"]) == 2
        assert cli._parser.cache_info().currsize == 1


class TestImportCost:
    def test_import_loads_no_dataclasses(self):
        # only what the import itself loads counts, not what start-up did
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import csemigroups.cli\n"
            "print('dataclasses' in set(sys.modules) - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_plain_call_loads_no_argparse(self):
        script = (
            "import contextlib, io, sys\n"
            "import csemigroups.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = csemigroups.cli.main(['--json', 'pf', '--gens', '4;6;9'])\n"
            "print(code, 'argparse' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]


# The csg grammar written out by hand, apart from build_parser: the command
# tokens, the positional's choices, the required and the optional options
# with the kind of value each takes (None: a flag), and whether one of the
# input options is required.
INPUT_OPTIONS = {"--gens": "list", "--gaps": "list", "--file": "file"}
CSG_GRAMMAR = [
    (("member",), (), {"--point": "point"}, {}, True),
    (("gaps",), (), {}, {}, True),
    (("pf",), (), {}, {}, True),
    (("frobenius",), (), {}, {"--order": "order"}, True),
    (("classify",), (), {}, {"--order": "order"}, True),
    (("omega",), (), {}, {"--order": "order"}, True),
    (("apery",), (), {"--elements": "list"}, {}, True),
    (("wilf",), (), {}, {"--order": "order"}, True),
    (("buchsbaum",), (), {}, {}, True),
    (("glue",), (), {"--s1": "file", "--s2": "file", "--s": "point"}, {}, False),
    (("family", "sap"), (), {"-a": "a", "-p": "p"}, {"--verify": None, "--window": "point"}, False),
    (("family", "saps"), (), {"-a": "a", "-p": "p", "--numerical": "numerical"}, {}, False),
    (("arf",), ("check", "derived", "closure"), {}, {}, True),
    (("pi",), ("check", "decompose"), {}, {}, True),
    (("identity",), ("pf-ideal", "cardinality"), {}, {"--order": "order"}, True),
]
SHARED_OPTIONS = {"--json": None, "--budget": "budget"}
GRAMMAR_OPTIONS = {
    *SHARED_OPTIONS, *INPUT_OPTIONS, *(f for _, _, req, opt, _ in CSG_GRAMMAR for f in {**req, **opt})
}


@st.composite
def csg_argvs(draw, values):
    """An argv of the grammar in an order argparse takes: each shared flag
    before the command, between family and its subcommand, or after them,
    the options shuffled. ``values`` maps a kind of value to a strategy."""
    path, choices, required, optional, needs_input = draw(st.sampled_from(CSG_GRAMMAR))
    positional = [draw(st.sampled_from(choices))] if choices else []
    options = [[flag, draw(values[kind])] for flag, kind in required.items()]
    if needs_input:
        flag = draw(st.sampled_from(sorted(INPUT_OPTIONS)))
        options.append([flag, draw(values[INPUT_OPTIONS[flag]])])
    for flag, kind in {**optional, **SHARED_OPTIONS}.items():
        if draw(st.booleans()):
            options.append([flag] if kind is None else [flag, draw(values[kind])])
    # the shared flags that go in front of path[k]; len(path): after them
    spot = {o[0]: draw(st.integers(0, len(path))) for o in options if o[0] in SHARED_OPTIONS}
    after = draw(st.permutations([o for o in options if spot.get(o[0], len(path)) == len(path)]))
    argv = []
    for k, token in enumerate(path):
        argv += itertools.chain(*(o for o in options if spot.get(o[0]) == k), [token])
    return argv + positional + list(itertools.chain(*after))


@st.composite
def mutated(draw, argvs, tokens):
    """(argv, mutated): a drawn argv with up to three tokens inserted,
    deleted, replaced by a drawn one or repeated."""
    argv = draw(argvs)
    steps = draw(st.integers(0, 3))
    for _ in range(steps):
        i = draw(st.integers(0, len(argv)))
        step = draw(st.sampled_from(["insert", "delete", "replace", "repeat"]))
        if step == "insert" or not argv:
            argv.insert(i, draw(tokens))
        elif step == "delete":
            del argv[min(i, len(argv) - 1)]
        elif step == "replace":
            argv[min(i, len(argv) - 1)] = draw(tokens)
        else:
            argv.insert(i, draw(st.sampled_from(argv)))
    return argv, steps > 0


# tokens argparse reads but the plain form does not, and tokens it rejects
ODD_TOKENS = st.sampled_from([
    "--gen", "--gens=4;6;9", "--gaps=(1,0)", "-a3", "-p1", "--", "-5", "-", "--bud",
    "--json", "--budget", "--order", "--verify", "--point", "--window", "--file",
    "lexx", "grlex", "check", "derived", "family", "sap", "pf", "member", "(1,1)",
    "4;6;9", "x", "",
])
INTS = st.sampled_from(["3", "0", "12", " 7", "+4", "1_000", "٣", "-1", "x", "3.5", ""])
PARSE_VALUES = {
    "point": st.sampled_from(["(1,2)", "4", "[1,3]", " ( 2 , 8 ) ", "(0,0)", "", "-3", "(-1,2)"]),
    "list": st.sampled_from(["4;6;9", S2, "(1,0);(1,1)", "[1,2];[2,1]", " 4 ; 6 ", "-4;6", "x"]),
    "numerical": st.sampled_from(["2;3", "1", "(2);(3)", "-2;3"]),
    "file": st.sampled_from(["s1.json", "dir/s2.json", "-f.json", ""]),
    "a": INTS,
    "p": INTS,
    "order": st.sampled_from(["lex", "grlex", "lexx", "GRLEX", "-lex"]),
    "budget": st.sampled_from(["5", "4096", "0", " 9", "-5", "five"]),
}


def argparse_outcome(argv):
    """vars() of the Namespace argparse builds, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


class TestPlainReader:
    @settings(max_examples=1500, deadline=None)
    @given(mutated(csg_argvs(PARSE_VALUES), st.one_of(ODD_TOKENS, st.sampled_from(["-h", "--help"]))))
    def test_matches_argparse(self, drawn):
        argv, was_mutated = drawn
        read = cli._plain_args(argv)
        expected = argparse_outcome(argv)
        if read is not None:
            assert vars(read) == expected
        elif not was_mutated and isinstance(expected, dict):
            # a built argv that argparse takes is plain unless a value
            # starts with "-"
            assert any(t.startswith("-") and t not in GRAMMAR_OPTIONS for t in argv)

    def test_readme_forms_skip_argparse(self, capsys, monkeypatch, tmp_path):
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def counted(self, *args, **kwargs):
            calls.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s1.json").write_text(json.dumps({"d": 1, "gens": [[6], [10], [14]]}))
        (tmp_path / "s2.json").write_text(json.dumps({"d": 1, "gens": [[14], [21]]}))
        with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
            block = fh.read().split("\n## CLI\n")[1].split("```")[1]
        forms = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("csg ")]
        assert len(forms) == 13
        for argv in forms:
            assert main(argv) == 0, argv
        # the console script passes no argv
        monkeypatch.setattr(sys, "argv", ["csg", "--json", "member", "--gens", "4;6;9", "--point", "11"])
        assert main() == 0
        assert capsys.readouterr().out.endswith('{"member":false,"point":[11]}\n')
        assert calls == []
        # the other forms do reach argparse
        assert main(["pf", "--gens=4;6;9"]) == 0
        monkeypatch.setattr(sys, "argv", ["csg", "pf"])
        assert main() == 2
        assert capsys.readouterr().err.startswith("usage:")
        assert calls == [(["pf", "--gens=4;6;9"],), (None,)]


class TestGrlexSources:
    """The point lists csg prints unsorted come out of the library in
    graded-lex order."""

    @settings(max_examples=100, deadline=None)
    @given(finite_gap_sets(), st.sampled_from(["lex", "grlex"]), st.data())
    def test_gap_set_lists(self, gs, order, data):
        assume(gs.genus)
        d, c = gs.dimension, gs.conductor
        members = [p for p in box_points(tuple(2 * v for v in c)) if any(p) and gs.contains(p)]
        witnesses = [tuple(c[i] * (i == j) for j in range(d)) for i in range(d)]
        witnesses += data.draw(st.lists(st.sampled_from(members), max_size=3))
        for points in (
            gs.hilbert_basis,
            pseudo_frobenius(gs),
            omega_extra(gs, TermOrder(order)),
            apery(gs, witnesses),
        ):
            assert list(points) == grlex_sorted(points)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(0, 9)] * d).filter(any), min_size=1, max_size=8)
        )
    )
    def test_generators(self, gens):
        assert list(AffineSemigroup(len(gens[0]), gens).generators) == grlex_sorted(set(gens))


class JsonFile:
    """A ``--file`` value: the document written to a file before the call."""

    def __init__(self, doc):
        self.doc = doc

    def __repr__(self):
        return f"JsonFile({self.doc!r})"


def _text_point(coords, bare):
    return str(coords[0]) if bare and len(coords) == 1 else "(" + ",".join(map(str, coords)) + ")"


@st.composite
def small_point_texts(draw):
    d = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(-1, 6), min_size=d, max_size=d))
    if draw(st.integers(0, 4)) == 0:
        return json.dumps(coords)
    return _text_point(coords, draw(st.booleans()))


@st.composite
def small_list_texts(draw):
    d = draw(st.integers(1, 3))
    bare = draw(st.booleans())
    points = draw(
        st.lists(st.lists(st.integers(0, 6), min_size=d, max_size=d), min_size=1, max_size=5)
    )
    if draw(st.integers(0, 5)) == 0:
        points.append(draw(st.lists(st.integers(-1, 6), min_size=1, max_size=3)))
    return ";".join(_text_point(p, bare) for p in points)


_POINT_LISTS = st.lists(st.lists(st.integers(-1, 6), min_size=1, max_size=3), max_size=5)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.sampled_from(["", "2", "d"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["d", "gens", "gaps", "x"]), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def json_docs(draw):
    """Documents for --file: well formed with small points, the same with a
    key dropped or a value of the wrong type, or any JSON at all."""
    doc = {"d": draw(st.integers(0, 4)), draw(st.sampled_from(["gens", "gaps"])): draw(_POINT_LISTS)}
    shape = draw(st.integers(0, 3))
    if shape == 1:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif shape == 2:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_ANY_JSON)
    elif shape == 3:
        doc = draw(_ANY_JSON)
    return JsonFile(doc)


FUZZ_VALUES = {
    "point": small_point_texts(),
    "list": small_list_texts(),
    "numerical": st.lists(st.integers(0, 7), min_size=1, max_size=4).map(lambda v: ";".join(map(str, v))),
    "file": json_docs(),
    "a": st.integers(-1, 5).map(str),
    "p": st.integers(-1, 2).map(str),
    "order": st.sampled_from(["lex", "grlex"]),
    "budget": st.integers(0, 4096).map(str),
}


class TestExitCodes:
    """Random argv and --file documents: main returns 0, 1 or 2 and lets no
    exception escape; with --json, exit 0 or 1 prints one JSON line."""

    @settings(max_examples=400, deadline=None)
    @given(mutated(csg_argvs(FUZZ_VALUES), ODD_TOKENS))
    def test_exit_code(self, tmp_path_factory, drawn):
        argv, _ = drawn
        folder = tmp_path_factory.getbasetemp() / "exit-code-docs"
        folder.mkdir(exist_ok=True)
        for i, token in enumerate(argv):
            if isinstance(token, JsonFile):
                path = folder / f"doc{i}.json"
                path.write_text(json.dumps(token.doc), encoding="utf-8")
                argv[i] = str(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        parsed = argparse_outcome(argv)
        if code in (0, 1) and parsed["json"]:
            line, end = out.getvalue().split("\n")
            assert end == ""
            json.loads(line)


def degree_band(d, k):
    """Generators of D_d(k): N^d minus every point of degree below k."""
    return [p for p in itertools.product(range(2 * k), repeat=d) if k <= sum(p) <= 2 * k - 1]


GOLDEN_GENS = {
    **{f"D2({k})": degree_band(2, k) for k in range(2, 15)},
    **{f"D3({k})": degree_band(3, k) for k in range(2, 6)},
    "s2": [(0, 1), (3, 0), (4, 0), (1, 4), (5, 0), (2, 7)],
    "s3": [(1, 0), (1, 1), (1, 2), (0, 3), (0, 4), (0, 5)],
    "s4": [(0, 1), (3, 0), (4, 0), (1, 5), (5, 0), (2, 9)],
    "s5": [(0, 1), (4, 0), (5, 0), (6, 0), (7, 0), (1, 4), (2, 7), (3, 10)],
    "arf77": [(0, 1), (3, 0), (5, 0), (1, 3), (2, 3)],
    # the InfiniteGaps witness lists of tests/test_gapsemigroup.py
    "witness0": [(0, 5), (1, 0), (7, 0)],
    "witness1": [(6, 0), (0, 1), (1, 2), (1, 7)],
    "witness2": [(0, 0, 2), (0, 0, 3), (0, 1, 0), (7, 0, 0)],
    "witness3": [(0, 1), (4, 0)],
    "witness4": [(3000, 0), (0, 1), (2, 5)],
    "witness5": [(2000, 0), (0, 2000), (1, 1), (1, 2)],
    "witness6": [(3000, 0, 0), (0, 3000, 0), (0, 0, 3000), (1, 1, 1)],
    "witness7": [(0, 0, 1), (0, 1, 0), (1, 1, 0), (2, 0, 2), (3, 0, 0), (4, 0, 0)],
    "witness8": [(0, 0, 3), (0, 0, 4), (0, 1, 0), (0, 4, 0), (0, 4, 1)]
    + [(1, 0, 2), (1, 3, 2), (2, 0, 1), (3, 0, 0), (4, 0, 0), (4, 0, 3)],
    # the far-generator lists of tests/test_gapsemigroup.py
    "far0": [(2,), (3,), (200001,)],
    "far1": [(2, 0), (3, 0), (0, 1), (1, 1), (400001, 0)],
    "far2": [(2, 0), (3, 0), (0, 1), (1, 1), (1, 400001)],
    "far3": [(2,), (200001,)],
    "far4": [(2, 0), (0, 1), (1, 1), (200001, 0)],
}

# (exit code, sha256 of stdout) of ``csg --json gaps --gens <list>``
GOLDEN_GAPS = {
    "D2(2)": (0, "047868200a67bd5e19cc6d70d82782eb2d279e64da30ca089454aa5d0ad2feb8"),
    "D2(3)": (0, "06deb4e8d2d7d77ce57efb0db30029ee167cfacd225f32f43da5d9dbf68cdeb7"),
    "D2(4)": (0, "209066c88aea87f06e1519306870e65e312c579847788b8a7873deaa76345a64"),
    "D2(5)": (0, "d95983c8a11328042ec9ed9f163d5beda88d170b6e5ba3628effa7212c3a4515"),
    "D2(6)": (0, "67254cda26c829eb5790098a987c5c4fe5fd25d33579e146ada32f565a5b31f4"),
    "D2(7)": (0, "4be8be53ccb97318cecb56148443a2d1c0a732b1d67b385a7a1f147ae2d10403"),
    "D2(8)": (0, "8f82203c5877238af12f97b615acb3e866fbeb0ca1144a9a40692f7d0af66dd8"),
    "D2(9)": (0, "b210a5b3fa295d17b9c5aad1871d2dce18e6fc81cdee4dac1c74783aa09da75d"),
    "D2(10)": (0, "326bb0881262728084bc014f81c8a0daf0cc35d151857e76c9141eb374dd7f46"),
    "D2(11)": (0, "1c69b72601038f5379b1341751d22a1806341b024052e158247e40e1bc0ef975"),
    "D2(12)": (0, "c9ee71f1272624e514fe43c8db1bd15cc93db2dba53ca901b524ef4a30fb8fe4"),
    "D2(13)": (0, "93e802d8bcb50aba118cfac9aef5da9fa236dbda33d61a3a26bdd07f3017bfbe"),
    "D2(14)": (0, "8d2e50e685d9bf2877a78a346aa08fa5d95e31902101e8275342cc81d0d74722"),
    "D3(2)": (0, "4fc575150837db7975cff79a24a85ad1f6f8e2436b867486da5e2b20582344e7"),
    "D3(3)": (0, "5a2e24f5993ff30f4bc4a2c6ab6bbf2a4a50488625632682a68291e545ab9b9d"),
    "D3(4)": (0, "f2355938d8869e6258e85f576e40a684ed9ec5dc09bc63616b32b10936248692"),
    "D3(5)": (0, "2761f35d76b3fa3793294514c030d71b10feae2cb62eb8696b4a50e7856ec03e"),
    "s2": (0, "1d525c9a6cf859c338b6b702d13950a3ef8b096931ebcb75c6f4886ebd18fc11"),
    "s3": (0, "e4460cc45888f4bfaffbf763e0797f8650b9c98283445985c9b3b7da14487528"),
    "s4": (0, "9ea862f94a7e75e5b0f004c939f27af9a5e3e4eb5f7819ac30ef8191c24eb2ff"),
    "s5": (0, "e94d5182dbc241073d2913599875bacfa47a5279bcbb5ad5d68143e02e1f94dc"),
    "arf77": (0, "4718c2023c16cd311605334a5a7ff05ef5d7d6fb7c04045c9078153c81c4cb54"),
    "witness0": (1, "240ccab3b1db9e6b97f85ff0351d8f3537d1747c0bab441444e60c2afd427ed3"),
    "witness1": (1, "4ec85542d94a106d355917c2f0f14768623fa7931cf0b864b608367c285273cd"),
    "witness2": (1, "240ccab3b1db9e6b97f85ff0351d8f3537d1747c0bab441444e60c2afd427ed3"),
    "witness3": (1, "c432591988f6dd485700b8d089a237490cb7d301aed15af895455087b723b9d6"),
    "witness4": (1, "c432591988f6dd485700b8d089a237490cb7d301aed15af895455087b723b9d6"),
    "witness5": (1, "240ccab3b1db9e6b97f85ff0351d8f3537d1747c0bab441444e60c2afd427ed3"),
    "witness6": (1, "240ccab3b1db9e6b97f85ff0351d8f3537d1747c0bab441444e60c2afd427ed3"),
    "witness7": (1, "61296be7c0586516e89ca4032f7bab2a7d15617bd2380dd0ea6313b610014479"),
    "witness8": (1, "608895b640f2c9f2636abca37ecde164a426fd67b46d69f8318504592e7092a6"),
    "far0": (0, "86db08dc964a8c097404ab54b008d1345799d2b7bd916ce54610f018225959ab"),
    "far1": (0, "ffa3302de0b56a0e1b53681812d0646c8c5733c7c1799a978771a999f8f42e04"),
    "far2": (0, "ffa3302de0b56a0e1b53681812d0646c8c5733c7c1799a978771a999f8f42e04"),
    "far3": (0, "6c5875f70fb07a9437a3f7bc72a0cd7e068e447fcc260e40bc7e4c7eaebeed29"),
    "far4": (0, "997b69d2b1423c0971d8a4776d0e4a5362fc369d1908083ded8c250f8ce9101c"),
}


class TestGoldenGaps:
    """``csg --json gaps`` stdout and exit code, pinned byte for byte, on
    the degree bands, the paper corpus, every InfiniteGaps witness list
    (the line along axis 0, ``(6,0);(0,1);(1,2);(1,7)``, among them) and
    every far-generator list."""

    @pytest.mark.parametrize("label", GOLDEN_GAPS)
    def test_stdout_bytes(self, capsys, label):
        gens = ";".join("(" + ",".join(map(str, g)) + ")" for g in GOLDEN_GENS[label])
        code, out = run(capsys, "--json", "gaps", "--gens", gens)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_GAPS[label]


def _down_set(corners):
    """The nonzero points at or below one of the corners: a gap set, since
    the rest of N^d is 0 and an up-set."""
    pts = set()
    for c in corners:
        pts.update(itertools.product(*(range(v + 1) for v in c)))
    pts.discard((0,) * len(corners[0]))
    return sorted(pts)


# label -> (d, gaps, separator of the inline form); every set is
# complement-closed except "open", whose NotClosed answer is pinned too
GOLDEN_BOX_SETS = {
    "num469": (1, [(g,) for g in (1, 2, 3, 5, 7, 11)], ";"),
    "num7911": (1, [(g,) for g in (1, 2, 3, 4, 5, 6, 8, 10, 12, 13, 15, 17, 19, 24, 26)], ";"),
    "pi5": (1, [(g,) for g in (1, 2, 3, 4, 6)], " ; "),
    "s2": (2, [(1, 0), (1, 1), (2, 0), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6)], ";"),
    "arf77": (2, [(1, 0), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2), (7, 0), (7, 1), (7, 2)], ";"),
    "stair2": (2, _down_set([(5, 1), (3, 3), (1, 6)]), "; "),
    "open": (2, [(1, 0), (0, 1)], ";"),
    "d3": (3, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)], ";"),
    "stair3": (3, _down_set([(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)]), ";"),
}

GOLDEN_BOX_COMMANDS = {
    "gaps": ["gaps"],
    "pf": ["pf"],
    "classify": ["classify"],
    "classify-lex": ["classify", "--order", "lex"],
    "wilf": ["wilf"],
    "buchsbaum": ["buchsbaum"],
    "apery": ["apery"],
    "pf-ideal": ["identity", "pf-ideal"],
    "cardinality": ["identity", "cardinality"],
    "arf-check": ["arf", "check"],
    "arf-closure": ["arf", "closure"],
    "pi-check": ["pi", "check"],
    "pi-decompose": ["pi", "decompose"],
}

# (exit code, sha256 of stdout) of ``csg --json <command> --gaps <set>``;
# the same set given by ``--file`` must print the same bytes
GOLDEN_BOX = {
    "num469 gaps": (0, "c75be32f78b989e02d42da57a99859cc496bc7c335d7537959e454089ba535a4"),
    "num469 pf": (0, "31d71bd7738ab8f5ea7121931c5e4bcb1e76a3028973bb910eb0841db966e212"),
    "num469 classify": (0, "c481017f37314e7a8c8efee9f24265fee4170040e8804b962e92126d43134bb9"),
    "num469 classify-lex": (0, "c481017f37314e7a8c8efee9f24265fee4170040e8804b962e92126d43134bb9"),
    "num469 wilf": (0, "25f29679b6c100422360d28a1d814d5b26eb81c7020899dca420541f49899c89"),
    "num469 buchsbaum": (1, "22fc071f8ec56a5d095bce16de046749c80b5b40a41c34adeb939f69a78aed26"),
    "num469 apery": (0, "fbb1942b84133d98c11a0809f9fd807eee89d4d271f7b27af513a86bf0ff66f2"),
    "num469 pf-ideal": (0, "9af4fef4e750ce4c882e673f26c949cd0e205b1b58e9c24284c58b7a5b360ece"),
    "num469 cardinality": (0, "9fd31daa1197a2089fd3929099ee38a294c6f1b291b8c6d75710ad5c4e474a18"),
    "num469 arf-check": (0, "5793d342030eb652b225fa759aae55e0ca00a4593578fde77fc8429cf81c68d8"),
    "num469 arf-closure": (0, "27c147b4b4d700b8f9ca7409fc8af526090184a33b23e01bc7c2eaf4d740fa9d"),
    "num469 pi-check": (0, "9ced13656715169a9bf059cb4dec7428b22e01d454e08a18f5e8965e2b9a70d5"),
    "num469 pi-decompose": (1, "567a3c48f75d56b8fbf893a7002b13082edf3304176276ec7f448b6c51598545"),
    "num7911 gaps": (0, "44686b00aac678b2e36c5bfc82c6d9c88a541d5682ed9859e40b37c26ee16e5c"),
    "num7911 pf": (0, "64936392682c4980823a81cd8f0300143117ed6a4cf2cf04d8d3fadd78a82197"),
    "num7911 classify": (0, "3a8cc5a4b758d5b7b7503e21809fd0ba62cc52f964bb2a9456f3e9b2d150021a"),
    "num7911 classify-lex": (0, "3a8cc5a4b758d5b7b7503e21809fd0ba62cc52f964bb2a9456f3e9b2d150021a"),
    "num7911 wilf": (0, "a0dd7778c553ccba6dc4bf7d065753001f6f13430671e575bf806a4e1e93e41c"),
    "num7911 buchsbaum": (1, "22fc071f8ec56a5d095bce16de046749c80b5b40a41c34adeb939f69a78aed26"),
    "num7911 apery": (0, "2dc37bfd1c17dd7b5e45fa1e93861e71bdd863b42db1d2981e77440c6ad7668d"),
    "num7911 pf-ideal": (0, "15fe8fd68911153dfd306465f9bbfffae325252211c88dc18767351601f47501"),
    "num7911 cardinality": (0, "487bcce06b3bcc977ee723575a6b96a4854954907ad0679ae322c4c29d655d85"),
    "num7911 arf-check": (0, "5793d342030eb652b225fa759aae55e0ca00a4593578fde77fc8429cf81c68d8"),
    "num7911 arf-closure": (0, "0d8c7400d4e7300ff83ca683507cbde66432ffe573089125352a6d95cea28b85"),
    "num7911 pi-check": (0, "3d14b6385a67eefcd12c8293022993f2753d65c656f0fb1fc81b2cbb8dbeab50"),
    "num7911 pi-decompose": (1, "a399e1190f0419fa8c3a431a6f8c85edc9aaa07bfd6ff821673f4380f5890068"),
    "pi5 gaps": (0, "ab7b0a498d52708d0da2e2bbf0cc1ad687b5d5c268e850c8ad2467621638ad1f"),
    "pi5 pf": (0, "c70d0dfff9ed271e06f9a1b58faba184fbae1d94f7a950769161c34e1d10143a"),
    "pi5 classify": (0, "636f6dd1aa2b37977997bbe55c7d419bf9cd55652a722799553bc37b51f898bc"),
    "pi5 classify-lex": (0, "636f6dd1aa2b37977997bbe55c7d419bf9cd55652a722799553bc37b51f898bc"),
    "pi5 wilf": (0, "33ddffc7d7979417f57e6dc65177caa34647115c852e292bfc1239d1acb7e338"),
    "pi5 buchsbaum": (1, "22fc071f8ec56a5d095bce16de046749c80b5b40a41c34adeb939f69a78aed26"),
    "pi5 apery": (0, "46125450ec5306978bcd100060ec178b9ae000c44a21f6636ad52e49d71abdd6"),
    "pi5 pf-ideal": (0, "107fded6c8e0dfe449423f11303f1abb30b6a8d6afd5343de821839c3e0cffd5"),
    "pi5 cardinality": (0, "2a7b21dc67512ef075dee4e157f787219a512e8f04ec990558760882ff7ae8cf"),
    "pi5 arf-check": (0, "ebfe7b871eb1edaecb4038321676fec7183efe69ce36802e4f509606b1d678a6"),
    "pi5 arf-closure": (0, "3326591c15aa67c2750dac4e9f5f16303bc6e6a36fe6eb6836f33cf82240ddfd"),
    "pi5 pi-check": (0, "ec6a4a195964437e0154d0edeab8e2b4a1610191446a34d4e1a6e9b3ac396fff"),
    "pi5 pi-decompose": (0, "30b3ea40432dce564feea21d022b4b48d841f88cfbdaabea79217267b47c41c8"),
    "s2 gaps": (0, "1d525c9a6cf859c338b6b702d13950a3ef8b096931ebcb75c6f4886ebd18fc11"),
    "s2 pf": (0, "a52dacbcf1c0db1ebc62b9d58aa01990e6f1801b06debf040ab6878539f8dec1"),
    "s2 classify": (0, "9ae28f12e08b12d54270bc2e3d9cda063045c85cca4e00c76ebc9e2c50518058"),
    "s2 classify-lex": (0, "9ae28f12e08b12d54270bc2e3d9cda063045c85cca4e00c76ebc9e2c50518058"),
    "s2 wilf": (0, "c0eac6267567547c647d6feccbfc600d3792743edc51a7a522a71907d33deb1c"),
    "s2 buchsbaum": (0, "f5da429139954def719d95712982dc00b072b809f048d0f2775abbbb9cc89468"),
    "s2 apery": (0, "0530a12f01d5fc4364c64f4c56d21409383fb3bed11246cc6e629ea517f944a0"),
    "s2 pf-ideal": (0, "0a7a9fab3bbdca61aef7d7e9ae49eed98ccb1c1adc2307d8954f9775fb8a55c9"),
    "s2 cardinality": (0, "ad13b51937b96255aae5a3ecdf5fdd17a5f71de2f8f223808df5f08254a6c3d6"),
    "s2 arf-check": (0, "5793d342030eb652b225fa759aae55e0ca00a4593578fde77fc8429cf81c68d8"),
    "s2 arf-closure": (0, "e43533a3464cb20d510c6794b63e996075b9833be2a1f76a8916fd404c651bb4"),
    "s2 pi-check": (0, "8fb7798d776e404e95a82cab9659a3291d3a9217a0a2bb567898142516264db9"),
    "s2 pi-decompose": (1, "34801f80b2e0f27fa34ef9643ebbeb2388ec34e1c3e64bcc4c32b7902596c557"),
    "arf77 gaps": (0, "4718c2023c16cd311605334a5a7ff05ef5d7d6fb7c04045c9078153c81c4cb54"),
    "arf77 pf": (0, "c56adb3d07f16da166f904f84e3a25ad2728741acd5b91688faf1f590379076f"),
    "arf77 classify": (0, "c7895e6458bee10e3e0bde6644f4cb01656fb3ec123572ecfe7c0ea7599f7ad2"),
    "arf77 classify-lex": (0, "c7895e6458bee10e3e0bde6644f4cb01656fb3ec123572ecfe7c0ea7599f7ad2"),
    "arf77 wilf": (0, "ba39fbb1cd7bf1b9fce6ab3ee386ce337b1eb83507cb51ed84bdbf6e916e3c9b"),
    "arf77 buchsbaum": (0, "e6bc8b0a63cbb41b48da377271561a42f3f9a4f233b7cfc1a5caddb6c3a8a371"),
    "arf77 apery": (0, "744adc77aeb3abe13a33ea07780c12fae6b6d758fe0fd7b9d41cede29c068ee7"),
    "arf77 pf-ideal": (0, "6fd097deb7acf2e9ab4ba5cc67d58b5ed874566a7a4f0dd2c2a22ac362a72e21"),
    "arf77 cardinality": (0, "358abddfe654aa84322ad494ffdaf60caec6e79d79836bbdb1971b1d27c5c289"),
    "arf77 arf-check": (0, "5793d342030eb652b225fa759aae55e0ca00a4593578fde77fc8429cf81c68d8"),
    "arf77 arf-closure": (0, "777063953ad8a17af919dc356aa3ef4b6929f8778334998bb86911d03401555e"),
    "arf77 pi-check": (0, "8fb7798d776e404e95a82cab9659a3291d3a9217a0a2bb567898142516264db9"),
    "arf77 pi-decompose": (1, "34801f80b2e0f27fa34ef9643ebbeb2388ec34e1c3e64bcc4c32b7902596c557"),
    "stair2 gaps": (0, "5ea103eed2e41ffe8da88b7ba72ec8e8fedd63353128e76c79deaa5c723eaed4"),
    "stair2 pf": (0, "9fe67943b89d3f979e30c58e8fdbc15d84434ee607b6bb509c3199d27647c7fe"),
    "stair2 classify": (0, "939850ae5d03f79b71cdcb9aaffc5ee3718fe23f2e52b1a1b6baa326717c2fb8"),
    "stair2 classify-lex": (0, "76af10c9aa3938f56486adda68d080448d56de3ca2836c04012a00d8dd4d28ba"),
    "stair2 wilf": (0, "3d41fd84684e37ec68992d49e9ad0308f5bc4b3cabc55fdb18239cc3378feffc"),
    "stair2 buchsbaum": (0, "026169238b67267d7c655b4cc8451216ebed14bda24029d7722aa3fb251031ac"),
    "stair2 apery": (0, "5f3ef905c53f2b0dd521e48592121a69aba0d3db286a576a5bef80f9bb212188"),
    "stair2 pf-ideal": (0, "4a72fe2340aa3c99b366fecf402e786cddeec8d78f38e6550d80f5478e190e64"),
    "stair2 cardinality": (0, "daa61900d7fc37d893fa1f0d41baa44c172f1adadab715222a5841f04f646edd"),
    "stair2 arf-check": (0, "ebfe7b871eb1edaecb4038321676fec7183efe69ce36802e4f509606b1d678a6"),
    "stair2 arf-closure": (0, "57ef6a52f829dc5c3f691ed413a567705a29a0b3bfb880070b622fc8dd3d2ac8"),
    "stair2 pi-check": (0, "8fb7798d776e404e95a82cab9659a3291d3a9217a0a2bb567898142516264db9"),
    "stair2 pi-decompose": (1, "34801f80b2e0f27fa34ef9643ebbeb2388ec34e1c3e64bcc4c32b7902596c557"),
    "open gaps": (0, "047868200a67bd5e19cc6d70d82782eb2d279e64da30ca089454aa5d0ad2feb8"),
    "open pf": (0, "710ee50e76fb0c9fcf3539d8cb275f704f60618f40d513a17863fb62428c674c"),
    "open classify": (0, "d417c968132f9ea01e0a299380ef9d72b32874f92b5091cfd21c9fa3e40165fc"),
    "open classify-lex": (0, "d417c968132f9ea01e0a299380ef9d72b32874f92b5091cfd21c9fa3e40165fc"),
    "open wilf": (0, "c2dd48788b405e9f6d5803d3d04ef83459ea4efc6de5601e1ac0b939136d0326"),
    "open buchsbaum": (0, "af309e6f4ba665533e1e520df2dbaf0b7404a28ed33418aa5aafd7292081b618"),
    "open apery": (0, "2caa9368167c2a54c91c24dd8e0d8a07ffe07376e5d820089f64b2bedc078212"),
    "open pf-ideal": (0, "cd47e5e465c552abfb229949ecb45f5ab6602e42e9a925b383d2a663928aa031"),
    "open cardinality": (0, "daa61900d7fc37d893fa1f0d41baa44c172f1adadab715222a5841f04f646edd"),
    "open arf-check": (0, "ebfe7b871eb1edaecb4038321676fec7183efe69ce36802e4f509606b1d678a6"),
    "open arf-closure": (0, "d8ff97be9604d517d3b56175a3cbd73f36384cb8b1591aa9c0073f0712fe3b36"),
    "open pi-check": (0, "8fb7798d776e404e95a82cab9659a3291d3a9217a0a2bb567898142516264db9"),
    "open pi-decompose": (1, "34801f80b2e0f27fa34ef9643ebbeb2388ec34e1c3e64bcc4c32b7902596c557"),
    "d3 gaps": (0, "e50e0bece36973418c02de014c3e12778494e56195e5b88a13404e7415af3056"),
    "d3 pf": (0, "e9112aa596892ad844a06358788b3a949bcfbe72d2fd780462c5b8a6a79a5aa1"),
    "d3 classify": (0, "a11cf4e70f1f92c8c27fed8c235a342e15152982d5d89889dbfa99f112e51a12"),
    "d3 classify-lex": (0, "a11cf4e70f1f92c8c27fed8c235a342e15152982d5d89889dbfa99f112e51a12"),
    "d3 wilf": (0, "b8b28c10249def478dea80630eeaf46d16c4a2e04756fe17450a968ac337b264"),
    "d3 buchsbaum": (0, "bcc7ab89f81fab41536f8bd73ca94219dcfc67cad7db7933a5718426efced2f4"),
    "d3 apery": (0, "425b567c30edf805c372ef5152c4a7e87596cc8cb76020ecb1112396e8c724eb"),
    "d3 pf-ideal": (0, "2e94285d5f9dce599df94e5c88fcb0f224d02bead454ee33babf29dabc501264"),
    "d3 cardinality": (0, "8bd22eb0b97bf347d320913784d037bf29b9d7bc9c1836a461a216632e0c843f"),
    "d3 arf-check": (0, "ebfe7b871eb1edaecb4038321676fec7183efe69ce36802e4f509606b1d678a6"),
    "d3 arf-closure": (0, "95d91e8e0552869dd152875c07fd438d9dfc37875f251492301b37bf76eeff70"),
    "d3 pi-check": (0, "fb7f38cb6a3973db48d697978abd0d7e14f0950411c83d6bd0c709ba3c392c58"),
    "d3 pi-decompose": (1, "78990bd2f0f0b9c4bc507c557bfe24cc706e90ae811ce1a3e05dfcdd565e2253"),
    "stair3 gaps": (0, "abdca6b0c0f3a395d7f68c723210b50cb8ba5eb8649bcf8bf38a8edbd6a84d43"),
    "stair3 pf": (0, "b9b6659d5be9740693e4707caf1b8327ed1c68508eba42f3cec706a2fc6aed62"),
    "stair3 classify": (0, "bd96596cc81b7a06c22870e320a054a8ed7a2b90aee504624d433090d48eafc5"),
    "stair3 classify-lex": (0, "bd96596cc81b7a06c22870e320a054a8ed7a2b90aee504624d433090d48eafc5"),
    "stair3 wilf": (0, "31608a4a89af3425421a37c2ebdc639f92ddf508256aac6be61b5501e39b0e64"),
    "stair3 buchsbaum": (0, "b99f69db6c0d00ab52e09b370a619dd396330aa2ba94943672aa42ecc9f6f844"),
    "stair3 apery": (0, "4af29364e336a354f28c98b62bf4ee8ae77ba6c1ffe10e9021a46c1193490187"),
    "stair3 pf-ideal": (0, "ef593c7564c737599f43efca66b6f04494372a00289656d8a54b44eb084ebc9f"),
    "stair3 cardinality": (0, "daa61900d7fc37d893fa1f0d41baa44c172f1adadab715222a5841f04f646edd"),
    "stair3 arf-check": (0, "ebfe7b871eb1edaecb4038321676fec7183efe69ce36802e4f509606b1d678a6"),
    "stair3 arf-closure": (0, "af9a530e96ebb3b68fe81e8133ba773b1b99dc87730784d1aa422b3cd58412a3"),
    "stair3 pi-check": (0, "fb7f38cb6a3973db48d697978abd0d7e14f0950411c83d6bd0c709ba3c392c58"),
    "stair3 pi-decompose": (1, "78990bd2f0f0b9c4bc507c557bfe24cc706e90ae811ce1a3e05dfcdd565e2253"),
}


class TestGoldenBox:
    """``csg --json`` stdout and exit code of every gap-set query, pinned
    byte for byte on fixed gap sets in d = 1, 2 and 3, inline and from a
    file. ``apery`` asks for the axis points at the conductor."""

    @staticmethod
    def _argv(label, command, source):
        d, gaps, _ = GOLDEN_BOX_SETS[label]
        argv = ["--json"] + GOLDEN_BOX_COMMANDS[command] + source
        if command == "apery":
            c = [1 + max(g[i] for g in gaps) for i in range(d)]
            axes = [tuple(v if j == i else 0 for j in range(d)) for i, v in enumerate(c)]
            argv += ["--elements", ";".join("(" + ",".join(map(str, a)) + ")" for a in axes)]
        return argv

    @staticmethod
    def _inline(label):
        d, gaps, sep = GOLDEN_BOX_SETS[label]
        if d == 1:
            return sep.join(str(g) for g, in gaps)
        return sep.join("(" + ",".join(map(str, g)) + ")" for g in gaps)

    @pytest.mark.parametrize("label", GOLDEN_BOX_SETS)
    @pytest.mark.parametrize("command", GOLDEN_BOX_COMMANDS)
    def test_stdout_bytes(self, capsys, tmp_path, label, command):
        d, gaps, _ = GOLDEN_BOX_SETS[label]
        path = tmp_path / "gaps.json"
        path.write_text(json.dumps({"d": d, "gaps": [list(g) for g in gaps]}))
        for source in (["--gaps", self._inline(label)], ["--file", str(path)]):
            code, out = run(capsys, *self._argv(label, command, source))
            got = (code, hashlib.sha256(out.encode()).hexdigest())
            assert got == GOLDEN_BOX[f"{label} {command}"], source[0]
