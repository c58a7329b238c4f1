"""The command line surface: outputs, formats, exit codes."""

import json
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO

import pytest

from orbgraph import futility
from orbgraph.cli import run
from orbgraph.orbital import build_orbital_graph, enumerate_base_pairs
from orbgraph.perm import parse_cycles, parse_group_text

from test_golden import cases

TWO_SWAPS = "degree: 7\n(2,3)\n(4,6)\n"
TWO_TRIANGLES = "degree: 9\n(1,2)\n(1,3)\n(4,5)\n(4,6)\n(1,4)(2,5)(3,6)\n(7,8,9)\n"


@pytest.fixture
def two_swaps_file(tmp_path):
    path = tmp_path / "two_swaps.grp"
    path.write_text(TWO_SWAPS)
    return str(path)


@pytest.fixture
def two_triangles_file(tmp_path):
    path = tmp_path / "two_triangles.grp"
    path.write_text(TWO_TRIANGLES)
    return str(path)


class TestOrbits:
    def test_identity_group(self, capsys, tmp_path):
        path = tmp_path / "id.grp"
        path.write_text("degree: 3\n()\n")
        assert run(["orbits", str(path)]) == 0
        assert capsys.readouterr().out == "[1|2|3]\n"

    def test_two_swaps(self, capsys, two_swaps_file):
        assert run(["orbits", two_swaps_file]) == 0
        assert capsys.readouterr().out == "[1|2,3|4,6|5|7]\n"

    def test_inline_group_text(self, capsys):
        assert run(["orbits", TWO_SWAPS]) == 0
        assert capsys.readouterr().out == "[1|2,3|4,6|5|7]\n"


class TestGraph:
    def test_dot_output(self, capsys, two_swaps_file):
        assert run(["graph", two_swaps_file, "--pair", "3,4", "--dot"]) == 0
        assert capsys.readouterr().out == (
            "digraph orbital {\n"
            "  1;\n"
            "  5;\n"
            "  7;\n"
            "  2 -> 4;\n"
            "  2 -> 6;\n"
            "  3 -> 4;\n"
            "  3 -> 6;\n"
            "}\n"
        )

    def test_json_round_trip(self, capsys, two_triangles_file, two_triangles):
        assert run(["graph", two_triangles_file, "--pair", "1,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        g = build_orbital_graph(two_triangles, 1, 2)
        assert data["base_pair"] == [1, 2]
        assert [tuple(a) for a in data["arcs"]] == list(g.arcs)
        assert data["isolated"] == [7, 8, 9]

    def test_human_output_mentions_arcs(self, capsys, two_swaps_file):
        assert run(["graph", two_swaps_file, "--pair", "1,7"]) == 0
        out = capsys.readouterr().out
        assert "base pair: (1,7)" in out
        assert "arcs (1): (1,7)" in out
        assert "self-paired: no" in out


class TestBasePairs:
    def test_lists_pairs(self, capsys, two_swaps_file):
        assert run(["base-pairs", two_swaps_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["1,2", "1,4", "1,5", "1,7"]
        assert len(lines) == 22

    def test_dedup_keeps_the_already_distinct_enumeration(self, capsys, two_swaps_file):
        # the enumeration never repeats an arc set, so --dedup must be a no-op
        assert run(["base-pairs", two_swaps_file, "--dedup"]) == 0
        deduped = capsys.readouterr().out.splitlines()
        assert run(["base-pairs", two_swaps_file]) == 0
        assert deduped == capsys.readouterr().out.splitlines()

    def test_dedup_builds_no_graph(self, capsys, monkeypatch, two_swaps_file):
        def no_graph(*args):
            raise AssertionError("orbital graph built for base-pairs --dedup")

        monkeypatch.setattr("orbgraph.cli.build_orbital_graph", no_graph)
        monkeypatch.setattr("orbgraph.orbital.build_orbital_graph", no_graph)
        assert run(["base-pairs", two_swaps_file, "--dedup"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 22


class TestFutility:
    def test_all_methods_on_two_triangles(self, capsys, two_triangles_file):
        assert run(["futility", two_triangles_file, "--pair", "1,2"]) == 0
        out = capsys.readouterr().out
        assert out.count("not futile") == 3
        assert "witness (3,4)" in out

    def test_json_records(self, capsys, two_triangles_file):
        assert run(
            ["futility", two_triangles_file, "--pair", "1,2", "--json"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in records] == ["fast", "structural", "oracle"]
        for r in records:
            assert r["base_pair"] == [1, 2]
            assert r["futile"] is False
            assert r["shape"] == "not-futile"
            assert r["arc_count"] == 12
            assert set(r["thresholds"]) == {"threshold", "exceeds"}
        assert records[1]["witness"] == {
            "permutation_cycles": "(3,4)",
            "violated_arc": [1, 3],
        }

    def test_single_method(self, capsys, two_swaps_file):
        assert run(
            ["futility", two_swaps_file, "--pair", "1,7", "--method", "fast", "--json"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["futile"] is True

    def test_table_over_all_pairs(self, capsys, two_swaps_file):
        assert run(["futility", two_swaps_file]) == 0
        out = capsys.readouterr().out
        assert "degree 7, order 4, transitivity degree 0" in out
        assert "orbit partition [1|2,3|4,6|5|7]" in out
        assert "(1,2)" in out and "(7,5)" in out


# the worked examples and the first 20 corpus groups of the golden test
FAST_CASES = list(cases().items())[:24]


def _stdout(argv) -> str:
    out = StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


class TestFastOnly:
    @pytest.mark.parametrize("name,text", FAST_CASES)
    def test_table_matches_all_methods(self, name, text):
        # the table shows records[0], which is the fast record in both runs
        assert _stdout(["futility", text, "--method", "fast"]) == _stdout(["futility", text])

    @pytest.mark.parametrize("name,text", FAST_CASES)
    def test_pair_header_matches_all_methods(self, name, text):
        a, b = enumerate_base_pairs(parse_group_text(text))[0]
        argv = ["futility", text, "--pair", f"{a},{b}", "--method"]
        fast = _stdout(argv + ["fast"]).splitlines()
        assert fast[:4] == _stdout(argv + ["all"]).splitlines()[:4]

    def test_fast_json_builds_no_graph(self, capsys, monkeypatch):
        def no_graph(*args):
            raise AssertionError("orbital graph built on the fast JSON path")

        monkeypatch.setattr("orbgraph.cli.build_orbital_graph", no_graph)
        monkeypatch.setattr("orbgraph.futility.build_orbital_graph", no_graph)
        assert run(["futility", TWO_TRIANGLES, "--method", "fast", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records and all(r["method"] == "fast" for r in records)


class TestRefine:
    def test_orbit_partition_default(self, capsys, two_triangles_file):
        assert run(["refine", two_triangles_file, "--pair", "1,2"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "base_pair": [1, 2],
            "rounds": 1,
            "split_count": 0,
            "cells_before": 2,
            "cells_after": 2,
        }

    def test_unit_partition(self, capsys, two_swaps_file):
        assert run(
            ["refine", two_swaps_file, "--pair", "1,7", "--partition", "unit"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == {
            "base_pair": [1, 7],
            "rounds": 2,
            "split_count": 2,
            "cells_before": 1,
            "cells_after": 3,
        }


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys, two_swaps_file):
        assert run(["orbits", two_swaps_file, "--nope"]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_pair_is_usage_error(self, capsys, two_swaps_file):
        assert run(["graph", two_swaps_file]) == 1

    def test_malformed_pair_is_usage_error(self, capsys, two_swaps_file):
        assert run(["graph", two_swaps_file, "--pair", "1"]) == 1
        assert run(["graph", two_swaps_file, "--pair", "a,b"]) == 1

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        assert run(["orbits", str(tmp_path / "absent.grp")]) == 2

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("degree: 3\n(1,9)\n")
        assert run(["orbits", str(path)]) == 2

    def test_equal_pair_points_is_input_error(self, capsys, two_swaps_file):
        assert run(["graph", two_swaps_file, "--pair", "3,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: base pair points must be distinct\n"

    def test_pair_out_of_range_is_input_error(self, capsys, two_swaps_file):
        # every command rejects the pair in the library, the fast JSON run
        # too, although it builds no graph
        for argv in (
            ["graph"],
            ["refine"],
            ["futility"],
            ["futility", "--method", "fast", "--json"],
        ):
            assert run(argv + [two_swaps_file, "--pair", "1,9"]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err == "error: point 9 out of range 1..7\n", argv

    def test_help_exits_zero(self, capsys):
        # argparse formats a command's help text only when it is asked for
        for command in ([], ["orbits"], ["graph"], ["base-pairs"], ["futility"], ["refine"]):
            assert run(command + ["--help"]) == 0, command
            assert capsys.readouterr().out.startswith(
                " ".join(["usage: orbgraph"] + command)
            ), command

    def test_degree_above_cap_is_input_error(self, capsys):
        assert run(["orbits", "degree: 1000000000\n(1,2)\n"]) == 2

    @pytest.mark.parametrize("degree", [10, 12])
    def test_digit_run_at_degree_10_and_above_is_input_error(self, capsys, degree):
        with pytest.raises(ValueError, match="commas"):
            parse_cycles("(132)", degree)
        assert run(["orbits", f"degree: {degree}\n(132)"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "degree: 12\n(1_0,2)",
            "degree: 12\n(+3,4)",
            "degree: 12\n(\u0663,4)",
            "degree: \u0661\u0662\n(1,2)",
        ],
        ids=["underscore", "plus", "arabic-indic point", "arabic-indic degree"],
    )
    def test_non_ascii_decimal_group_text_is_input_error(self, capsys, text):
        assert run(["orbits", text]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "pair", ["1_0,2", "+3,4", "\u0663,4"], ids=["underscore", "plus", "arabic-indic"]
    )
    def test_non_ascii_decimal_pair_is_usage_error(self, capsys, pair):
        # rejected by the --pair parser like "a,b", not read as a point
        assert run(["futility", "degree: 12\n(1,2)", "--pair", pair]) == 1
        assert capsys.readouterr().out == ""

    def test_verdict_disagreement_exits_3(self, capsys, monkeypatch):
        real = futility._fast
        monkeypatch.setattr("orbgraph.futility._fast", lambda sizes: not real(sizes))
        assert run(["futility", TWO_TRIANGLES, "--method", "all", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "verdict disagreement for pair (1,2): fast=True, structural=False, oracle=False\n"
        )

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        # with no witness the structural test contradicts its own
        # non-futile classification
        monkeypatch.setattr("orbgraph.futility._witness", lambda graph, group: None)
        code = run(["futility", "degree: 4\n(1,2,3,4)", "--method", "all", "--json"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and err.count("\n") == 1


def test_module_entry_point(tmp_path):
    path = tmp_path / "g.grp"
    path.write_text(TWO_SWAPS)
    proc = subprocess.run(
        [sys.executable, "-m", "orbgraph", "orbits", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[1|2,3|4,6|5|7]\n"
