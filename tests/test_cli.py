import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

from csemigroups import cli
from csemigroups.cli import main, parse_point, parse_point_list

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
        ],
    )
    def test_malformed_file_is_usage_error(self, capsys, tmp_path, data):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        assert main(["gaps", "--file", str(f)]) == 2
        assert capsys.readouterr().err.startswith("usage error:")

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
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        csemigroups.cli.main(['pf', '--gens', '4;6;9'])\n"
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
        before, first, second = json.loads(proc.stdout)
        assert before == 0
        assert first == second > 0


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
