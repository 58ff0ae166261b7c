import argparse
import contextlib
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinecrystal._kernel_py as _kernel_py
import affinecrystal.cli as cli
import affinecrystal.graphs as graphs
import affinecrystal.isomorphism as isomorphism
from affinecrystal import Monomial, Partition, format_partition, graph_from_json
from affinecrystal.arms import _ARM_FILE_BYTES, MAX_ARM_HORIZON, horizontal_value
from affinecrystal.cli import main
from affinecrystal.monomial_crystal import MAX_MONOMIAL_NUMBER
from affinecrystal.partitions import MAX_PARTITION_SIZE
from helpers import oracle_arm, oracle_cells, oracle_hook, oracle_regular_counts

BIG = "[11,7,4,2,1,1,1,1,1,1]"
BIG_IMAGE = "Y(2,12)^-1*Y(2,10)*Y(1,9)^-1*Y(2,8)*Y(1,7)^-1*Y(1,5)*Y(3,5)"
# intertwining at n = 5: one word lowers [] and Y(0,0) to images of each
# other under the corner map, and the reversed raising word undoes it
N5_WORD = "f0,f4,f1,f3,f0,f2,f4"
N5_IMAGE = "Y(2,5)^-1*Y(4,5)^-1*Y(1,4)*Y(3,4)*Y(2,2)"

# (model, arm, format, sha256) of `--n 4 graph --depth 10`
GOLDEN = [
    ("partition", None, "json",
     "ec2d6237d465f192b3baa15bbbcb50b64c58805681cf464ec6568406259ed65e"),
    ("partition", None, "dot",
     "d588fb6c3e50cb8583f2b16f7c710b23e5d2109339175e5cbea19789c1fe1de7"),
    ("monomial", None, "json",
     "e01180f6f6187a9754f3ef79872410f088c511fa40e0d11eb37b14587a81b78d"),
    ("monomial", None, "dot",
     "56bf96ad5534d5409471f9226ce877d852e84fdc17141585c013be44d8e479fd"),
    ("partition", "random:1:40", "json",
     "4a5f5918bef15cc550d9ebc956118c1b735b2aa31814d85f3d65fd7cf92cfbd1"),
    ("partition", "random:1:40", "dot",
     "a6b0f90681b407e75bedc7348b838655fc1ab9a5b2faa26effee3dab5a7947f5"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApply:
    def test_lowering_partition(self, capsys):
        code, out, _ = run(capsys, "--n", "4", "apply", BIG, "f2")
        assert code == 0
        assert out.strip() == "[11,7,4,2,1,1,1,1,1,1,1]"

    def test_annihilated(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "apply", "[]", "e0")
        assert code == 0
        assert out.strip() == "0"

    def test_monomial_word(self, capsys):
        # the parser's cancelling pair Y(1,2), Y(1,2)^-1 is summed by the builder
        for obj in ("Y(0,0)", "Y(1,2)*Y(0,0)*Y(1,2)^-1"):
            code, out, _ = run(capsys, "--n", "3", "apply", obj, "f0")
            assert (code, out) == (0, "Y(0,2)^-1*Y(1,1)*Y(2,1)\n")

    def test_word_applies_left_to_right(self, capsys):
        for n, obj, word, want in (("3", "[]", "f0,f1,e1,f1", "[2]"),
                                   ("5", "[]", N5_WORD, "[2,2,2,1]"),
                                   ("5", "Y(0,0)", N5_WORD, N5_IMAGE),
                                   ("5", N5_IMAGE, "e4,e2,e0,e3,e1,e4,e0", "Y(0,0)")):
            code, out, _ = run(capsys, "--n", n, "apply", obj, word)
            assert (code, out) == (0, want + "\n")

    def test_residues_reduce_mod_n(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "apply", "[]", "f3")
        assert code == 0
        assert out.strip() == "[1]"

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "--n", "3", "apply", "[]", "g0")
        assert code == 2
        assert "error" in err

    def test_bad_partition(self, capsys):
        code, _, err = run(capsys, "--n", "3", "apply", "[3,4]", "f0")
        assert code == 2
        assert "error" in err


class TestPsi:
    def test_big(self, capsys):
        code, out, _ = run(capsys, "--n", "4", "psi", BIG)
        assert code == 0
        assert out.strip() == BIG_IMAGE

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "--n", "5", "psi", "[]")
        assert code == 0
        assert out.strip() == "Y(0,0)"
        # the image that N5_WORD lowers [] to
        assert run(capsys, "--n", "5", "psi", "[2,2,2,1]") == (0, N5_IMAGE + "\n", "")


class TestCheck:
    def test_irregular_witness(self, capsys):
        code, out, _ = run(capsys, "--n", "4", "check", "[7,6,5,5,5,3,3,1]")
        assert code == 1
        assert "illegal at (row 3, col 2): hook 8, arm 3, t 2" in out

    def test_regular(self, capsys):
        code, out, _ = run(capsys, "--n", "4", "check", "[]")
        assert code == 0
        assert out.strip() == "regular"

    def test_staircase(self, capsys):
        for text, line in (("[2,1]", "illegal at (row 1, col 1): hook 3, arm 1, t 1"),
                           ("[3,3,3]", "illegal at (row 2, col 2): hook 3, arm 1, t 1")):
            assert run(capsys, "--n", "3", "check", text) == (1, line + "\n", "")


    def test_output_matches_per_box_oracle(self, capsys):
        # one line per illegal box in reading order, with hook and arm
        # counted cell by cell
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(3, 6)
            parts = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 8))),
                           reverse=True)
            lines = [
                f"illegal at (row {r}, col {c}): hook {oracle_hook(parts, r, c)}, "
                f"arm {oracle_arm(parts, r, c)}, t {oracle_hook(parts, r, c) // n}"
                for r, c in oracle_cells(parts)
                if oracle_hook(parts, r, c) % n == 0
                and oracle_arm(parts, r, c) == horizontal_value(n, oracle_hook(parts, r, c) // n)
            ]
            text = "[" + ",".join(map(str, parts)) + "]"
            code, out, _ = run(capsys, "--n", str(n), "check", text)
            assert (code, out) == ((1, "\n".join(lines) + "\n") if lines else (0, "regular\n"))


class TestGraph:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "--n", "3", "--format", "json", "graph", "--depth", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert [v["label"] for v in doc["vertices"]] == ["[]", "[1]", "[2]", "[1,1]"]
        assert graph_from_json(out).n == 3

    def test_dot(self, capsys):
        code, out, _ = run(
            capsys, "--n", "3", "--format", "dot", "graph",
            "--model", "monomial", "--depth", "0",
        )
        assert code == 0
        assert 'v0 [label="Y(0,0)"];' in out

    # sha256 of the output of the implementation before the monomial
    # representation changed; factor order and formatting must not move.
    # The random-arm graph sorts its corners with the table comparator
    @pytest.mark.parametrize(
        "model, arm, fmt, digest", GOLDEN, ids=["-".join(filter(None, c)) for c in GOLDEN]
    )
    def test_golden_bytes(self, capsys, model, arm, fmt, digest):
        code, out, _ = run(
            capsys, "--n", "4", *(["--arm", arm] if arm else []), "--format", fmt,
            "graph", "--model", model, "--depth", "10",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_format_rejected(self, capsys):
        code, _, err = run(capsys, "--n", "3", "graph", "--depth", "1")
        assert code == 2
        assert "format" in err


class TestCompare:
    def test_psi_comparison(self, capsys):
        # n = 6, depth 22 is the largest compare-psi case of the benchmark;
        # at n = 6 lowering shares 3 of 6 residues
        for n, depth, vertices in (("4", "6", 26), ("6", "22", 3454)):
            assert run(
                capsys, "--n", n, "compare",
                "--model", "partition", "--model2", "monomial",
                "--depth", depth, "--use-psi",
            ) == (0, f"isomorphic ({vertices} vertices)\n", "")

    def test_two_arm_sequences(self, capsys):
        code, out, _ = run(
            capsys, "--n", "3", "--arm", "random:5:24", "compare",
            "--model", "partition", "--model2", "partition",
            "--arm2", "horizontal", "--depth", "6",
        )
        assert code == 0
        assert out.startswith("isomorphic (")

    def test_builds_no_graph(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compare built a graph")

        for owner in (cli, graphs):
            monkeypatch.setattr(owner, "generate_graph", refuse)
        monkeypatch.setattr(graphs, "CrystalGraph", refuse)
        # the last pair walks a table arm
        for arm, models in (([], ("partition", "monomial", "--use-psi")),
                            ([], ("monomial", "partition")),
                            ([], ("partition", "partition")),
                            ([], ("monomial", "monomial")),
                            (["--arm", "random:1:40"], ("partition", "monomial"))):
            code, out, _ = run(capsys, "--n", "4", *arm, "compare", "--model", models[0],
                               "--model2", models[1], *models[2:], "--depth", "10")
            assert (code, out) == (0, "isomorphic (105 vertices)\n")

    def test_corner_map_mismatch_exits_one(self, capsys, monkeypatch):
        # compare_models looks the corner map up at call time
        real = isomorphism.partition_to_monomial
        argv = ("--n", "3", "compare", "--model", "partition", "--model2", "monomial",
                "--depth", "2", "--use-psi")
        monkeypatch.setattr(isomorphism, "partition_to_monomial", lambda lam, n: Monomial(n))
        assert run(capsys, *argv) == (
            1, "mismatch: label-mismatch at v0/v0: '[]' does not correspond to "
               "'Y(0,0)'\n", "")
        monkeypatch.setattr(isomorphism, "partition_to_monomial",
                            lambda lam, n: Monomial(n) if lam.parts == (1,) else real(lam, n))
        assert run(capsys, *argv) == (
            1, "mismatch: label-mismatch at v1/v1 color 0: '[1]' does not correspond "
               "to 'Y(0,2)^-1*Y(1,1)*Y(2,1)'\n", "")

    def test_use_psi_needs_right_models(self, capsys):
        # the library's UnknownChoice, printed like every other usage error
        for models in (("monomial", "monomial"), ("monomial", "partition"),
                       ("partition", "partition")):
            code, out, err = run(
                capsys, "--n", "3", "compare",
                "--model", models[0], "--model2", models[1],
                "--depth", "2", "--use-psi",
            )
            assert (code, out) == (2, "")
            assert err.splitlines() == [
                "error: the corner-map check needs the partition model first and the "
                "monomial one second (--model partition --model2 monomial; model1, model2)"]


class TestCount:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "count", "--max", "5")
        assert code == 0
        assert out.strip() == "1 1 2 2 4 5"
        # 41 counts, the last Glaisher's coefficient of q^40
        code, out, _ = run(capsys, "--n", "6", "count", "--max", "40")
        assert (code, out.split()) == (0, list(map(str, oracle_regular_counts(6, 40))))
        assert out.split()[-1] == "21352"


class TestManyCalls:
    def test_calls_share_one_parser_and_no_options(self, capsys, monkeypatch):
        # the first call builds the parser, or finds it built by an earlier test
        code, out, _ = run(capsys, "--n", "3", "--format", "json", "graph", "--depth", "2")
        assert code == 0
        assert json.loads(out)["depth"] == 2
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        # --format json does not carry into count, which needs text
        assert run(capsys, "--n", "3", "count", "--max", "5") == (0, "1 1 2 2 4 5\n", "")
        # --use-psi refuses partition against partition, so it must not carry
        isomorphic = (0, "isomorphic (44 vertices)\n", "")
        assert run(capsys, "--n", "3", "compare", "--model2", "monomial",
                   "--depth", "8", "--use-psi") == isomorphic
        assert run(capsys, "--n", "3", "compare", "--model2", "partition",
                   "--depth", "8") == isomorphic
        # an --arm2 table too short for depth 8, then the default
        assert run(capsys, "--n", "3", "compare", "--model2", "partition",
                   "--arm2", "random:1:1", "--depth", "8") == (
            2, "", "error: A_2 requested but table only covers t <= 1\n")
        assert run(capsys, "--n", "3", "compare", "--model2", "partition",
                   "--depth", "8") == isomorphic
        # a random: arm too short for [9], then the horizontal one
        assert run(capsys, "--n", "3", "--arm", "random:1:2", "check", "[9]") == (
            2, "", "error: A_3 requested but table only covers t <= 2\n")
        assert run(capsys, "--n", "3", "check", "[9]") == (0, "regular\n", "")
        # argparse exits, in the main parser's options and in a subparser's
        for argv in (["--n", "3", "count"],
                     ["--n", "3", "--format", "json", "graph", "--depth", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        # a count that needs A_4 of a table that stops at A_3, then a longer table
        assert run(capsys, "--n", "3", "--arm", "random:1:3", "count", "--max", "20") == (
            2, "", "error: A_4 requested but table only covers t <= 3\n")
        code, out, err = run(capsys, "--n", "4", "--arm", "random:1:64", "count", "--max", "28")
        assert (code, err) == (0, "")
        assert out.split() == list(map(str, oracle_regular_counts(4, 28)))
        assert out.split()[-1] == "1539"  # Glaisher's coefficient of q^28
        code, out, _ = run(capsys, "--n", "3", "--format", "json", "graph", "--depth", "2")
        assert code == 0
        assert json.loads(out)["depth"] == 2
        assert built == []


class TestValidateArm:
    def test_horizontal_ok(self, capsys):
        code, out, _ = run(
            capsys, "--n", "4", "validate-arm", "--horizon", "100"
        )
        assert code == 0
        assert out.strip() == "ok"

    def test_random_ok(self, capsys):
        code, out, _ = run(
            capsys, "--n", "3", "--arm", "random:7:50",
            "validate-arm", "--horizon", "50",
        )
        assert code == 0
        assert out.strip() == "ok"

    def test_bad_table_lists_violations(self, capsys, tmp_path):
        path = tmp_path / "arm.txt"
        path.write_text("1 2 5\n")
        code, out, _ = run(
            capsys, "--n", "3", "--arm", f"file:{path}",
            "validate-arm", "--horizon", "3",
        )
        assert (code, out) == (1, "A_3 = 5 outside {3, 4} = {A_1+A_2, A_1+A_2+1}\n")

    def test_mixed_violations_in_order(self, capsys, tmp_path):
        path = tmp_path / "arm.txt"
        path.write_text("3 2 5 9 6\n")
        code, out, _ = run(
            capsys, "--n", "3", "--arm", f"file:{path}",
            "validate-arm", "--horizon", "5",
        )
        assert code == 1
        assert out.splitlines() == [
            "A_1 = 3 outside [0, 2] for n = 3",
            "A_4 = 9 outside [3, 8] for n = 3",
            "A_2 = 2 outside {6, 7} = {A_1+A_1, A_1+A_1+1}",
            "A_5 = 6 outside {12, 13} = {A_1+A_4, A_1+A_4+1}",
            "A_4 = 9 outside {4, 5} = {A_2+A_2, A_2+A_2+1}",
            "A_5 = 6 outside {7, 8} = {A_2+A_3, A_2+A_3+1}",
        ]
        # check refuses the same table with the first of those lines
        assert run(capsys, "--n", "3", "--arm", f"file:{path}", "check", "[1]") == (
            2, "", f"error: {out.splitlines()[0]}\n")

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "--n", "3", "--arm", "file:/does/not/exist",
            "validate-arm", "--horizon", "2",
        )
        assert code == 2
        assert "error" in err


class TestUsage:
    def test_rank_too_small(self, capsys):
        assert run(capsys, "--n", "2", "count", "--max", "1") == (
            2, "", "error: rank must be an int >= 3, got 2\n")

    @pytest.mark.parametrize(
        "command",
        [["compare", "--model2", "monomial", "--depth", "1"], ["psi", "[1]"],
         ["apply", "Y(0,0)", "f0"]],
        ids=["compare", "psi", "apply"],
    )
    def test_huge_rank(self, capsys, command):
        # refused before any per-residue list is allocated
        code, out, err = run(capsys, "--n", str(10**19), *command)
        assert code == 2 and out == ""
        assert err == "error: rank 10000000000000000000 is above the ceiling of 100\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "3", "--format", "json", "graph", "--depth", "-1"],
             "depth must be an integer >= 0, got -1"),
            (["--n", "3", "count", "--max", "-1"],
             "max_size must be an int in 0..100, got -1"),
            (["--n", "3", "--arm", "random:5:0", "count", "--max", "3"],
             "horizon must be an int in 1..1000, got 0"),
            (["--n", "3", "validate-arm", "--horizon", "0"],
             "horizon must be an int in 1..1000, got 0"),
            (["--n", "3", "--arm", "random:5:2", "count", "--max", "9"],
             "A_3 requested but table only covers t <= 2"),
            (["--n", "3", "count", "--max", "101"],
             "max_size must be an int in 0..100, got 101"),
            (["--n", "3", "count", "--max", "100000000"],
             "max_size must be an int in 0..100, got 100000000"),
            (["--n", "3", "--arm", "random:1:99999999999", "count", "--max", "3"],
             "horizon must be an int in 1..1000, got 99999999999"),
            (["--n", "3", "validate-arm", "--horizon", "1000000000"],
             "horizon must be an int in 1..1000, got 1000000000"),
            (["--n", "3", "--arm", "file:{long_arm}", "count", "--max", "3"],
             "horizon must be an int in 1..1000, got 1001"),
            # refused before any of the file is parsed
            (["--n", "3", "--arm", "file:{long_file}", "count", "--max", "3"],
             "arm file {long_file} is longer than 32000 bytes"),
        ],
        ids=[
            "negative-depth", "negative-max", "zero-arm-horizon", "zero-horizon",
            "count-past-arm-horizon", "max-past-ceiling", "huge-max",
            "huge-arm-horizon", "huge-horizon", "arm-file-past-ceiling",
            "arm-file-past-byte-ceiling",
        ],
    )
    def test_out_of_range_bound(self, capsys, tmp_path, argv, message):
        # a horizontal table one entry longer than the ceiling, and a file
        # of short values past the byte ceiling
        long_arm = tmp_path / "long.txt"
        long_arm.write_text(" ".join(
            str(horizontal_value(3, t)) for t in range(1, MAX_ARM_HORIZON + 2)
        ))
        long_file = tmp_path / "long_file.txt"
        long_file.write_text("1 " * 20000)
        paths = {"long_arm": long_arm, "long_file": long_file}
        argv = [arg.format(**paths) for arg in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message.format(**paths)}\n")

    def test_non_integer_arm_token(self, capsys, tmp_path):
        path = tmp_path / "arm.txt"
        path.write_text("1 x 2\n")
        code, _, err = run(
            capsys, "--n", "3", "--arm", f"file:{path}",
            "validate-arm", "--horizon", "3",
        )
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["count", "--max", "3"], ["validate-arm", "--horizon", "2"]],
        ids=["count", "validate-arm"],
    )
    def test_undecodable_arm_file(self, capsys, tmp_path, command):
        path = tmp_path / "arm.bin"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "--n", "3", "--arm", f"file:{path}", *command)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("obj", ["[1]", "Y(0,0)"])
    def test_huge_color(self, capsys, obj):
        # refused before int() reads it, so no operator runs and a color
        # too long for int() leaves no traceback
        for color in ("9" * 5000, str(MAX_MONOMIAL_NUMBER + 1)):
            code, out, err = run(capsys, "--n", "3", "apply", obj, f"f0,f{color}")
            assert (code, out) == (2, "")
            assert err.startswith("error: color ") and err.count("\n") == 1
            assert "ceiling" in err
        # the ceiling itself is reduced mod n like any color: 10^6 + 1 = 2 mod 3
        code, out, _ = run(capsys, "--n", "3", "apply", "[]", f"f0,f{MAX_MONOMIAL_NUMBER}")
        assert (code, out) == (0, "[1,1]\n")

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--n", "3", "frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize(
        "command",
        [
            ["apply", "[3,1]", "f0"],
            ["apply", "Y(0,0)", "f0"],
            ["psi", "[3,1]"],
            ["check", "[3,1]"],
            ["compare", "--model2", "monomial", "--depth", "2"],
            ["count", "--max", "3"],
            ["validate-arm", "--horizon", "2"],
        ],
        ids=["apply-partition", "apply-monomial", "psi", "check", "compare",
             "count", "validate-arm"],
    )
    def test_format_outside_graph_rejected(self, capsys, command, fmt):
        code, out, err = run(capsys, "--n", "3", "--format", fmt, *command)
        assert code == 2
        assert out == ""
        assert err == f"error: {command[0]} output needs --format text\n"

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # every input now has a ceiling below what fills memory, so the
        # handler is reached by a command that raises MemoryError
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "check", exhausted)
        code, out, err = run(capsys, "--n", "3", "check", "[3,1]")
        assert (code, out) == (2, "")
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err


class TestCeilings:
    def test_huge_partition_refused_at_once(self, capsys, monkeypatch):
        # refused when parsed: no column list is built
        def refuse(*args):
            raise AssertionError("columns read")

        monkeypatch.setattr(_kernel_py, "columns", refuse)
        for text in ("[100000000]", "[" + "9" * 5000 + "]",
                     "[" + ",".join(["500000"] * 3) + "]"):
            code, out, err = run(capsys, "--n", "3", "check", text)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "ceiling" in err

    def test_partition_at_the_ceiling(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "psi", f"[{MAX_PARTITION_SIZE}]")
        assert code == 0 and out.startswith("Y(")
        code, _, err = run(capsys, "--n", "3", "psi", f"[{MAX_PARTITION_SIZE},1]")
        assert code == 2 and "ceiling" in err

    def test_huge_monomial_number_refused_at_once(self, capsys, monkeypatch):
        # refused when parsed, with exit 2 and no traceback, even where
        # int() would refuse the digits
        def refuse(*args):
            raise AssertionError("operator ran")

        monkeypatch.setattr(cli, "f_m", refuse)
        nines = "9" * 5000
        for text in (f"Y(0,{nines})", f"Y(0,-{nines})", f"Y(0,1)^{nines}",
                     f"Y(1,2)*Y(0,1)^-{nines}", f"Y({nines},1)",
                     f"Y(0,{MAX_MONOMIAL_NUMBER + 1})",
                     f"Y(0,0)^-{MAX_MONOMIAL_NUMBER + 1}"):
            code, out, err = run(capsys, "--n", "3", "apply", text, "f0")
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "ceiling" in err or "residue" in err

    def test_monomial_at_the_ceiling(self, capsys):
        # leading zeros do not count towards the digits
        zeros = "0" * 5000
        for text in (f"Y(0,-{MAX_MONOMIAL_NUMBER})^{MAX_MONOMIAL_NUMBER}",
                     f"Y(0,{zeros}{MAX_MONOMIAL_NUMBER})^-{zeros}1",
                     f"Y({zeros}1,-{zeros}2)"):
            code, out, err = run(capsys, "--n", "3", "apply", text, "e0")
            assert code == 0 and err == "" and out.strip()

    @pytest.mark.parametrize("start, word, printed", [
        (f"[{MAX_PARTITION_SIZE}]", "f1", None),
        (f"[{MAX_PARTITION_SIZE - 1}]", "f0", f"[{MAX_PARTITION_SIZE}]"),
        (f"[{MAX_PARTITION_SIZE}]", "f1,e1", f"[{MAX_PARTITION_SIZE}]"),
    ])
    def test_apply_prints_no_partition_past_the_ceiling(self, capsys, start, word, printed):
        # f1 adds the box that takes [MAX] past the ceiling parse_partition
        # holds input to; only the printed result is checked, and what
        # apply prints, it reads back
        code, out, err = run(capsys, "--n", "3", "apply", start, word)
        if printed is None:
            assert (code, out) == (2, "")
            assert err == (f"error: partition size {MAX_PARTITION_SIZE + 1} "
                           f"is above the ceiling of {MAX_PARTITION_SIZE}\n")
        else:
            assert (code, out, err) == (0, printed + "\n", "")
            assert run(capsys, "--n", "3", "apply", printed, "e0")[0] == 0

    @pytest.mark.parametrize("k, refused", [(MAX_MONOMIAL_NUMBER, True),
                                            (MAX_MONOMIAL_NUMBER - 2, False)])
    def test_apply_prints_no_monomial_past_the_ceiling(self, capsys, k, refused):
        # f1 on Y(1,k) gives Y(1,k+2)^-1*Y(0,k+1)*Y(2,k+1): past the ceiling
        # parse_monomial holds input to once k + 1 is
        code, out, err = run(capsys, "--n", "3", "apply", f"Y(1,{k})", "f1")
        if refused:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1 and "ceiling" in err
        else:
            assert (code, out) == (0, f"Y(1,{k + 2})^-1*Y(0,{k + 1})*Y(2,{k + 1})\n")
            assert run(capsys, "--n", "3", "apply", out.strip(), "e1")[:2] == (0, f"Y(1,{k})\n")

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_depth_just_below_and_above(self, capsys, monkeypatch, n):
        # a small ceiling, so the depth just below it runs in full
        monkeypatch.setattr(graphs, "MAX_GRAPH_VERTICES", 300)
        totals = [sum(oracle_regular_counts(n, d)) for d in range(40)]
        above = next(d for d, t in enumerate(totals) if t > 300)
        for depth, want in ((above - 1, 0), (above, 2)):
            for argv in (["--format", "json", "graph", "--model", "monomial"],
                         ["--format", "dot", "graph"],
                         ["compare", "--model2", "monomial", "--use-psi"],
                         ["--arm", "random:1:40", "compare", "--model2", "partition"]):
                code, out, err = run(capsys, "--n", str(n), *argv, "--depth", str(depth))
                assert code == want, (argv, depth, err)
                if want == 0 and argv[0] == "compare":
                    assert out == f"isomorphic ({totals[depth]} vertices)\n"
                if want == 2:
                    assert out == "" and "ceiling is 300" in err

    def test_graph_depth_refused_before_bfs(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("BFS ran")

        for name in ("_bfs", "_walk"):
            monkeypatch.setattr(graphs, name, refuse)
        for argv in (["--format", "json", "graph"],
                     ["--format", "json", "graph", "--model", "monomial"],
                     ["compare", "--model2", "monomial", "--use-psi"]):
            code, out, err = run(capsys, "--n", "3", *argv, "--depth", "100000")
            assert (code, out) == (2, "")
            assert err.startswith("error: depth 100000 at rank 3 gives more than")


# Each text is drawn half the time from well-formed tokens and half from an
# alphabet with malformed ones mixed in: signs, letters, empty tokens, a
# non-decimal digit (superscript two) and a decimal non-ASCII one.
def _text(join, good, bad, max_size):
    return st.one_of(*(st.builds(join, st.lists(st.sampled_from(alphabet),
                                                min_size=1, max_size=max_size))
                       for alphabet in (good, good + bad)))


PART_TEXT = st.one_of(
    st.lists(st.integers(1, 4), max_size=6).map(
        lambda parts: format_partition(Partition(sorted(parts, reverse=True)))),
    st.builds(
        lambda wrap, toks: wrap[0] + ",".join(toks) + wrap[1],
        st.sampled_from([("[", "]"), ("[", ""), ("", "]"), ("(", ")")]),
        st.lists(st.sampled_from(["1", "3", "0", "-1", "x", "", "\u00b2",
                                  "\u0663"]), max_size=6),
    ),
)
MONOMIAL_TEXT = _text(
    "*".join, ["Y(0,0)", "Y(1,-1)^-1", "Y(2,3)^2", "1"],
    ["Y(9,0)", "Y(0,0)^0", "Y(a,0)", "Y(0,0", "", "Y(\u0663,1)"], 4)
WORD = _text(
    ",".join, ["f0", "f1", "f2", "f3", "e0", "e1", "e5"],
    ["f", "g1", "f-1", " f1", "", "f\u00b2", "f\u0663"], 6)
ARM_TOKENS = _text(
    " ".join, ["0", "1", "2", "3", "4", "5"], ["-1", "x", "1.5", "\u00b2"], 6)
ARM = st.one_of(st.just("horizontal"), st.sampled_from(
    ["file", "random:1:12", "random:1:2", "random:x", "bogus"]))


@pytest.fixture(scope="module")
def arm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "arm.txt"


@given(
    n=st.integers(3, 6),
    command=st.sampled_from(["apply", "psi", "check", "validate-arm", "graph",
                             "compare", "count"]),
    obj=st.one_of(PART_TEXT, MONOMIAL_TEXT),
    word=WORD,
    arm=ARM,
    arm2=ARM,
    arm_tokens=ARM_TOKENS,
    horizon=st.integers(-1, 8),
    fmt=st.sampled_from(["text", "json", "dot"]),
    size=st.integers(-1, 6),
    models=st.sampled_from([("partition", "monomial"), ("monomial", "partition"),
                            ("partition", "partition")]),
)
@settings(max_examples=600, deadline=None)
def test_fuzz_exit_codes(arm_path, n, command, obj, word, arm, arm2, arm_tokens,
                         horizon, fmt, size, models):
    """Every run exits 0, 1 or 2; argparse may exit 2; nothing else escapes.
    An exit 2 from ``main`` prints nothing on stdout and one ``error: ``
    line on stderr.  graph, compare and count take a drawn ``--format``;
    compare runs with ``--use-psi`` in both model orders, and partition
    against partition under a second arm."""
    arm_path.write_text(arm_tokens)
    arm, arm2 = (f"file:{arm_path}" if a == "file" else a for a in (arm, arm2))
    argv = ["--n", str(n), "--arm", arm, command]
    if command == "apply":
        argv += [obj, word]
    elif command in ("psi", "check"):
        argv.append(obj)
    elif command == "validate-arm":
        argv = ["--n", str(n), "--arm", f"file:{arm_path}", command,
                "--horizon", str(horizon)]
    elif command == "graph":
        argv = ["--format", fmt, *argv, "--model", models[0], "--depth", str(size)]
    elif command == "compare":
        argv = ["--format", fmt, *argv, "--model", models[0], "--model2", models[1],
                "--arm2", arm2, "--depth", str(size)]
        if models[0] != models[1]:
            argv.append("--use-psi")
    else:
        argv = ["--format", fmt, *argv, "--max", str(size)]
    try:
        run_main(argv)
    except SystemExit as exc:
        assert exc.code == 2


def run_main(argv):
    """(code, stdout, stderr) of ``main``, checked as every run must be: exit
    0, 1 or 2, and an exit 2 prints nothing on stdout and one ``error: ``
    line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.split("\n")
        assert out == "", out
        assert len(lines) == 2 and lines[0].startswith("error: ") and lines[1] == "", lines
    return code, out, err


def _padded(tokens, size, pad):
    """The tokens, joined by spaces, grown to ``size`` bytes with whitespace
    after them or with zeros before the first value."""
    text = " ".join(tokens).encode()
    fill = size - len(text)
    return b"0" * fill + text if pad == "zeros" else text + pad.encode() * fill


ARM_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(_padded, st.lists(st.sampled_from(["0", "1", "2", "3", "5", "-1"]),
                                min_size=1, max_size=6),
              st.sampled_from([_ARM_FILE_BYTES - 1, _ARM_FILE_BYTES, _ARM_FILE_BYTES + 1]),
              st.sampled_from([" ", "\n", "zeros"])),
)


@given(n=st.integers(3, 5), data=ARM_BYTES)
@settings(max_examples=150, deadline=None)
def test_fuzz_arm_file(arm_path, n, data):
    """An arm file of any bytes, or of a few values padded to around the
    byte ceiling, is read or refused by check, count and validate-arm.  A
    validate-arm failure over the whole table opens with the refusal that
    check prints for the same file."""
    arm_path.write_bytes(data)
    head = ["--n", str(n), "--arm", f"file:{arm_path}"]
    check = run_main([*head, "check", "[6,5,4,3,2,1]"])
    run_main([*head, "count", "--max", "8"])
    try:
        horizon = len(data.decode().split())
    except UnicodeDecodeError:
        horizon = 1
    code, out, _ = run_main([*head, "validate-arm", "--horizon", str(horizon)])
    if code == 1:
        assert check[0] == 2 and check[2] == f"error: {out.splitlines()[0]}\n"
