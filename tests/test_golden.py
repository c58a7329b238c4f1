"""Byte-for-byte CLI output over fixed groups, pinned so that a refactor
cannot silently move deterministic output: base pairs, witnesses, table
rows, order and transitivity degree, refined cell counts.

The cases are the four worked-example groups and the first 40 groups of
the seeded random corpus. For each, the expected exit code and stdout of
`futility` (table and --json), `base-pairs --dedup` and `refine --pair
<first enumerated pair>` with both --partition values are stored in
golden_cli.json next to this file. That file was generated at commit
0d191f4, before the stabilizer layer was rebuilt on Schreier trees, by
running

    PYTHONPATH=src python tests/test_golden.py

from the repository root. Regenerate it only for an intended output
change, and record that change in CHANGES.md.
"""

import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from orbgraph.cli import run
from orbgraph.orbital import enumerate_base_pairs
from orbgraph.perm import parse_group_text

from conftest import random_corpus

GOLDEN = Path(__file__).with_name("golden_cli.json")

WORKED_EXAMPLES = {
    "two_swaps": "degree: 7\n(2,3)\n(4,6)\n",
    "two_triangles": "degree: 9\n(1,2)\n(1,3)\n(4,5)\n(4,6)\n(1,4)(2,5)(3,6)\n(7,8,9)\n",
    "square_symmetries": "degree: 4\n(1,2,4,3)\n(1,2)(3,4)\n",
    "diagonal_triangles": "degree: 6\n(1,2,3)(4,5,6)\n(1,3)(4,5)\n",
}


def cases() -> dict[str, str]:
    named = dict(WORKED_EXAMPLES)
    for i, group in enumerate(random_corpus()[:40]):
        lines = [f"degree: {group.degree}"] + [g.cycle_string() for g in group.generators]
        named[f"corpus_{i:02d}"] = "\n".join(lines) + "\n"
    return named


def outputs(text: str) -> dict:
    """The group text and, per command, its arguments after the group,
    exit code and stdout."""
    a, b = enumerate_base_pairs(parse_group_text(text))[0]
    pair = f"{a},{b}"
    runs = []
    for command, *args in (
        ["futility"],
        ["futility", "--json"],
        ["base-pairs", "--dedup"],
        ["refine", "--pair", pair, "--partition", "unit"],
        ["refine", "--pair", pair, "--partition", "orbit"],
    ):
        out = StringIO()
        with redirect_stdout(out):
            code = run([command, text, *args])
        runs.append({"argv": [command, *args], "exit": code, "stdout": out.getvalue()})
    return {"group": text, "runs": runs}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,text", list(cases().items()))
def test_cli_output_matches_golden(golden, name, text):
    assert outputs(text) == golden[name]


if __name__ == "__main__":
    data = {name: outputs(text) for name, text in cases().items()}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
