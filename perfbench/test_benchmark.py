"""Tests of the benchmark's own parts: family formulas against brute-force
element closure, the reference checks, and the runner's exit contract.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import families as fam  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from orbgraph.perm import parse_group_text  # noqa: E402

SMALL = (
    [fam.symmetric(n) for n in range(2, 7)]
    + [fam.alternating(n) for n in range(4, 8)]
    + [fam.pgl2(p) for p in (5, 7, 11, 13)]
    + [fam.wreath(k, m) for k, m in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))]
    + [fam.transpositions(k) for k in range(2, 6)]
    + [fam.cyclic(n) for n in range(3, 11)]
    + [fam.dihedral(n) for n in range(4, 11)]
    + [fam.cycle_product(c) for c in ((2, 3), (3, 4, 5), (4, 6))]
)


def _transitivity_degree(elements, degree):
    k = 0
    while k < degree:
        base = tuple(range(1, k + 2))
        images = {tuple(e[p - 1] for p in base) for e in elements}
        if len(images) != factorial(degree) // factorial(degree - k - 1):
            break
        k += 1
    return k


@pytest.mark.parametrize("f", SMALL, ids=lambda f: f.name)
def test_family_formulas_match_brute_force(f):
    elements = ref.elements(f.degree, f.gens)
    assert len(elements) == f.order
    td = _transitivity_degree(elements, f.degree)
    assert td == (0 if f.td is None else f.td)
    assert ref.orbital_count(f.degree, f.gens) == f.pairs


@pytest.mark.parametrize("f", SMALL[::3], ids=lambda f: f.name)
def test_relabelling_keeps_the_order_and_repeats_per_seed(f):
    gens = fam.relabel(f.gens, f.degree, random.Random(3))
    assert gens == fam.relabel(f.gens, f.degree, random.Random(3))
    assert len(ref.elements(f.degree, gens)) == f.order


def test_primitive_root_generates_the_multiplicative_group():
    for p in range(3, 60):
        if fam.is_prime(p):
            a = fam.primitive_root(p)
            assert len({pow(a, e, p) for e in range(1, p)}) == p - 1
    with pytest.raises(ValueError):
        fam.primitive_root(15)


def test_group_text_round_trips_through_the_parser():
    f = fam.pgl2(7)
    gens = fam.relabel(f.gens, f.degree, random.Random(1))
    group = parse_group_text(fam.group_text(f.degree, gens))
    assert [g.images for g in group.generators] == gens
    assert fam.cycle_string(tuple(range(1, 5))) == "()"


def test_stabilizer_orbits_match_brute_force():
    for f in (fam.pgl2(5), fam.wreath(2, 3), fam.cycle_product((3, 4))):
        elements = ref.elements(f.degree, f.gens)
        for point in range(1, f.degree + 1):
            stab = [e for e in elements if e[point - 1] == point]
            brute = {frozenset(e[x - 1] for e in stab) for x in range(1, f.degree + 1)}
            assert set(ref.stabilizer_orbits(f.degree, f.gens, point)) == brute


def test_equitable_defect():
    cycle = [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert ref.equitable_defect([(1, 3), (2, 4)], cycle) is None
    assert ref.equitable_defect([(1,), (2, 3, 4)], cycle) is not None


@pytest.mark.parametrize("name", ["plan", "refine", "audit"])
def test_setup_parts_repeat_for_a_seed(name):
    def texts(seed):
        wl = workloads.WORKLOADS[name]()
        return [inp.subject.text for part in wl.setup_parts(seed) for inp in part()]

    assert texts(3) == texts(3) != texts(4)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_runner_prints_the_result_line():
    proc = _run(HERE.parent, "--workload", "refine", "--seed", "2", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"ops_per_s", "op_ms.p50", "op_ms.p90", "setup_s", "peak_rss_mb"}


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "plan", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
