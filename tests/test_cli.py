"""The command line surface: outputs, formats, exit codes."""

import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import orbgraph
from orbgraph import futility
from orbgraph.cli import run
from orbgraph.futility import METHODS, is_futile_structural, verdict_records
from orbgraph.orbital import OrbitalGraph, build_orbital_graph, enumerate_base_pairs
from orbgraph.perm import parse_cycles, parse_group_text

from support import block_preserving_group, reference_records
from test_futility import FORMULA_FAMILIES
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

    def test_file_with_byte_order_mark(self, capsys, tmp_path, two_swaps_file):
        # editors on some systems save UTF-8 with a leading BOM
        path = tmp_path / "bom.grp"
        path.write_bytes(b"\xef\xbb\xbf" + TWO_SWAPS.encode())
        assert run(["orbits", str(path)]) == 0
        with_bom = capsys.readouterr()
        assert run(["orbits", two_swaps_file]) == 0
        assert with_bom == capsys.readouterr()
        assert with_bom.out == "[1|2,3|4,6|5|7]\n"


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


def _records(pair, shape, arcs):
    return [
        {
            "base_pair": list(pair),
            "futile": True,
            "shape": shape,
            "method": method,
            "witness": None,
            "arc_count": arcs,
            "thresholds": {"threshold": 0, "exceeds": True},
        }
        for method in ("fast", "structural", "oracle")
    ]


HEADER = "pair      arcs  futile  paired  shape               components"

# no golden group has degree below 4; every image table of these has two
# or three entries, the fewest an itemgetter over it is built from
SMALL_DEGREES = {
    "degree: 1": {
        "futility": ["degree 1, order 1, transitivity degree 1", "orbit partition [1]", HEADER],
        "json": [],
        "base-pairs": [],
        "orbits": "[1]",
    },
    "degree: 2": {
        "futility": [
            "degree 2, order 1, transitivity degree 0",
            "orbit partition [1|2]",
            HEADER,
            "(1,2)        1  yes     no      complete-bipartite  2",
            "(2,1)        1  yes     no      complete-bipartite  2",
        ],
        "json": _records((1, 2), "complete-bipartite", 1)
        + _records((2, 1), "complete-bipartite", 1),
        "base-pairs": ["1,2", "2,1"],
        "orbits": "[1|2]",
    },
    "degree: 2\n(1,2)": {
        "futility": [
            "degree 2, order 2, transitivity degree 2",
            "orbit partition [1,2]",
            HEADER,
            "(1,2)        2  yes     yes     complete-on-orbit   2",
        ],
        "json": _records((1, 2), "complete-on-orbit", 2),
        "base-pairs": ["1,2"],
        "orbits": "[1,2]",
    },
}


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("text", SMALL_DEGREES)
class TestSmallDegrees:
    def test_futility_table(self, text):
        assert _stdout(["futility", text]) == _lines(SMALL_DEGREES[text]["futility"])

    def test_futility_json(self, text):
        expected = json.dumps(SMALL_DEGREES[text]["json"])
        assert _stdout(["futility", text, "--json"]) == _lines([expected])

    def test_base_pairs(self, text):
        assert _stdout(["base-pairs", text]) == _lines(SMALL_DEGREES[text]["base-pairs"])

    def test_orbits(self, text):
        assert _stdout(["orbits", text]) == _lines([SMALL_DEGREES[text]["orbits"]])


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
        monkeypatch.setattr("orbgraph.cli.build_orbital_graphs", no_graph)
        monkeypatch.setattr("orbgraph.futility.build_orbital_graph", no_graph)
        assert run(["futility", TWO_TRIANGLES, "--method", "fast", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records and all(r["method"] == "fast" for r in records)


class TestBuilders:
    """All pairs are built at once from stabilizer orbits, one pair by its
    closure under the generators; the outputs agree."""

    @pytest.mark.parametrize("table", [False, True])
    def test_all_pairs_build_through_the_batch(self, monkeypatch, table):
        def no_graph(*args):
            raise AssertionError("one graph built on the all-pairs path")

        argv = ["futility", TWO_TRIANGLES] + ([] if table else ["--json"])
        expected = _stdout(argv)
        monkeypatch.setattr("orbgraph.cli.build_orbital_graph", no_graph)
        monkeypatch.setattr("orbgraph.futility.build_orbital_graph", no_graph)
        assert _stdout(argv) == expected

    def test_one_pair_builds_by_closure(self, monkeypatch):
        def no_batch(*args):
            raise AssertionError("batch builder called for one pair")

        monkeypatch.setattr("orbgraph.cli.build_orbital_graphs", no_batch)
        assert json.loads(_stdout(["futility", TWO_TRIANGLES, "--pair", "7,1", "--json"]))

    @pytest.mark.parametrize("name,text", FAST_CASES)
    def test_json_over_all_pairs_joins_the_single_pairs(self, name, text):
        joined = []
        for a, b in enumerate_base_pairs(parse_group_text(text)):
            joined += json.loads(_stdout(["futility", text, "--pair", f"{a},{b}", "--json"]))
        assert json.loads(_stdout(["futility", text, "--json"])) == joined

    @pytest.mark.parametrize("table", [False, True])
    @pytest.mark.parametrize("name,text", FAST_CASES[:8])
    def test_all_pairs_look_up_and_check_no_pair(self, monkeypatch, name, text, table):
        # the enumeration made each pair and its orbit sizes, and the batch
        # builder, which checks the pair set it is given, made each graph;
        # the verdicts check none of them again. The table's paired column
        # asks the graph whether the reversed pair is an arc
        def no_check(*args):
            raise AssertionError("per-pair lookup or check on the all-pairs path")

        argv = ["futility", text] + ([] if table else ["--json"])
        expected = _stdout(argv)
        monkeypatch.setattr("orbgraph.orbital._pair_orbit_sizes", no_check)
        monkeypatch.setattr("orbgraph.futility._pair_orbit_sizes", no_check)
        monkeypatch.setattr("orbgraph.futility.check_base_pair", no_check)
        monkeypatch.setattr("orbgraph.cli._checked_pair", no_check)
        if not table:
            monkeypatch.setattr(OrbitalGraph, "has_arc", no_check)
        assert _stdout(argv) == expected


def _group_text(group) -> str:
    return f"degree: {group.degree}\n" + "".join(g.cycle_string() + "\n" for g in group.generators)


def _seeded_groups():
    rng = random.Random(20261018)
    return [
        block_preserving_group(rng, rng.randint(20, 60), rng.randint(1, 3), rng.randint(2, 8))
        for _ in range(30)
    ]


def test_all_pairs_records_are_the_pairs_verdict_records(corpus_sample):
    # pair by pair, all-pairs futility prints the records of the pair's
    # closure, built as dicts from its verdicts, and a witness's cycles are
    # those of the structural test's permutation
    families = [param.values[0](*param.values[1]) for param in FORMULA_FAMILIES]
    swept = witnessed = 0
    for group in [*corpus_sample, *families, *_seeded_groups()]:
        records = json.loads(_stdout(["futility", _group_text(group), "--json"]))
        pairs = enumerate_base_pairs(group)
        assert len(records) == len(METHODS) * len(pairs)
        for i, (alpha, beta) in enumerate(pairs):
            graph = build_orbital_graph(group, alpha, beta)
            mine = records[i * len(METHODS) : (i + 1) * len(METHODS)]
            assert mine == reference_records(group, alpha, beta, METHODS, graph)
            verdict = is_futile_structural(graph, group)
            for r in mine:
                if r["method"] == "fast" or r["futile"]:
                    assert r["witness"] is None
                else:
                    assert r["witness"]["permutation_cycles"] == verdict.witness[0].cycle_string()
                    assert r["witness"]["violated_arc"] == list(verdict.witness[1])
                    witnessed += 1
            swept += 1
    assert swept > 2000 and witnessed > 1000


@pytest.mark.parametrize("method", [*METHODS, "all"])
def test_json_is_json_dumps_of_the_records(corpus_sample, method):
    # the CLI writes each record from one template; byte for byte that is
    # json.dumps of the pairs' records built as dicts, fast-only runs
    # included, which build no graph
    families = [param.values[0](*param.values[1]) for param in FORMULA_FAMILIES]
    methods = list(METHODS) if method == "all" else [method]
    for group in [*corpus_sample, *families, *_seeded_groups()]:
        records = []
        for alpha, beta in enumerate_base_pairs(group):
            records += reference_records(group, alpha, beta, methods)
        argv = ["futility", _group_text(group), "--method", method, "--json"]
        assert _stdout(argv) == json.dumps(records) + "\n"


def test_pair_json_is_json_dumps_of_the_records(corpus_sample):
    # a futile pair and a witnessed one of each group, under each method
    shown = set()
    for group in corpus_sample[:30]:
        text = _group_text(group)
        kinds = {}
        for alpha, beta in enumerate_base_pairs(group):
            futile = verdict_records(group, alpha, beta, ["fast"])[0]["futile"]
            kinds.setdefault(futile, (alpha, beta))
        for futile, (alpha, beta) in kinds.items():
            for method in [*METHODS, "all"]:
                methods = list(METHODS) if method == "all" else [method]
                argv = ["futility", text, "--pair", f"{alpha},{beta}", "--method", method]
                argv.append("--json")
                expected = json.dumps(reference_records(group, alpha, beta, methods))
                assert _stdout(argv) == expected + "\n"
            shown.add(futile)
    assert shown == {False, True}


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

    @pytest.mark.parametrize(
        "extra",
        [[], ["--pair", "1,2", "--json"], ["--pair", "1,2"]],
        ids=["table", "pair-json", "pair-table"],
    )
    def test_verdict_disagreement_exits_3_in_every_mode(self, capsys, monkeypatch, extra):
        # the verdicts are checked before anything is printed, by the one
        # path of all pairs and of --pair, as a table or as JSON
        real = futility._fast
        monkeypatch.setattr("orbgraph.futility._fast", lambda sizes: not real(sizes))
        assert run(["futility", TWO_TRIANGLES, *extra]) == 3
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


def test_reader_closing_the_pipe_early():
    # D_400's verdict records run to about 126 KB, more than a pipe holds,
    # so the command meets the closed pipe however the two sides are timed;
    # it exits as SIGPIPE would and prints no traceback
    n = 400
    group = "\n".join(
        [
            f"degree: {n}",
            "(" + ",".join(map(str, range(1, n + 1))) + ")",
            "".join(f"({x},{n + 1 - x})" for x in range(1, n // 2 + 1)),
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(orbgraph.__file__).parents[1]))
    argv = [sys.executable, "-m", "orbgraph", "futility", group, "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(100).startswith(b'[{"base_pair": [1, 2], ')
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize(
    "argv,code",
    [
        (["refine", TWO_SWAPS, "--pair", "1,2", "--partition", "unit"], 0),
        ([], 1),
        (["graph", TWO_SWAPS, "--pair", "1,9"], 2),
    ],
    ids=["refine", "no-subcommand", "point-out-of-range"],
)
def test_module_entry_point_matches_run(capsys, argv, code):
    # python -m orbgraph exits with run's code and prints what run prints
    assert run(argv) == code
    captured = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(orbgraph.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "orbgraph", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
