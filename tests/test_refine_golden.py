"""refine_by_graph's exact output, pinned so that a change to the
refiner cannot silently move it: the output cells in order, `rounds`
and `split_count`.

The groups are C_n and D_n up to degree 60, S_3 wr S_4 and five seeded
block-preserving groups. Each is refined by its graphs (every base pair
up to degree 12, a seeded sample of six past it) from two partitions:
the unit partition, and the orbit partition with one seeded point
individualised. The expected traces are stored in golden_refine.json
next to this file, generated by running

    PYTHONPATH=src python tests/test_refine_golden.py

from the repository root. Regenerate it only for an intended change of
cell order or rounds, and record that change in CHANGES.md.
"""

import json
import random
from pathlib import Path

import pytest

from orbgraph.orbital import build_orbital_graph, enumerate_base_pairs
from orbgraph.perm import OrderedPartition
from orbgraph.refine import refine_by_graph

from support import (
    block_preserving_group,
    cyclic_group,
    dihedral_group,
    individualised,
    wreath_group,
)

GOLDEN = Path(__file__).with_name("golden_refine.json")
SEED = 20261019


def groups() -> dict:
    named = {}
    for n in [*range(3, 13), *range(15, 61, 5)]:
        named[f"C_{n}"] = lambda n=n: cyclic_group(n)
        named[f"D_{n}"] = lambda n=n: dihedral_group(n)
    named["S_3 wr S_4"] = lambda: wreath_group(3, 4)
    for degree in (20, 30, 40, 50, 60):
        named[f"blocks_{degree}"] = lambda degree=degree: blocks(degree)
    return named


def blocks(degree):
    rng = random.Random(SEED + degree)
    return block_preserving_group(rng, degree, rng.randint(1, 3), rng.randint(2, 8))


def traces(group, rng) -> dict:
    """Case name -> [cells, rounds, split_count] for one group."""
    pairs = enumerate_base_pairs(group)
    if group.degree > 12:
        pairs = rng.sample(pairs, min(6, len(pairs)))
    point = rng.randint(1, group.degree)
    partitions = {
        "unit": OrderedPartition.unit(group.degree),
        f"orbit+{point}": individualised(group.orbit_partition(), point),
    }
    out = {}
    for a, b in pairs:
        graph = build_orbital_graph(group, a, b)
        for kind, partition in partitions.items():
            trace = refine_by_graph(partition, graph)
            out[f"{a},{b} {kind}"] = [
                [list(cell) for cell in trace.output_partition.cells],
                trace.rounds,
                trace.split_count,
            ]
    return out


def outputs(name: str) -> dict:
    rng = random.Random(f"{SEED} {name}")
    return traces(groups()[name](), rng)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(groups()))
def test_refinement_matches_golden(golden, name):
    assert outputs(name) == golden[name]


if __name__ == "__main__":
    # one line per group keeps the file reviewable
    lines = [f"{json.dumps(name)}: {json.dumps(outputs(name))}" for name in groups()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
