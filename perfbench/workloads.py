"""The three workloads: inputs made from a seed, the timed operation, the
output check, and the traced replay of the operation.

A workload's setup_parts(seed) returns functions that, called in order,
return its inputs part by part; run.py times each part on its own.

plan    refiner planning on formula-built groups: order, transitive-group
        futility, select_useful_graphs. Most of the time is in perm.
refine  refine_by_graph on prebuilt useful graphs with one point
        individualised. Almost all of the time is in refine.
audit   the CLI's three-way futility check on small random groups, most
        of them intransitive, so every graph is built and tested.

A replay runs the same public calls as the operation, in the order the
library makes them, each under a span named after its module. It calls a
point stabilizer explicitly before the consumers that would build it, so
chain construction is charged to perm and not to the first consumer.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from orbgraph import cli
from orbgraph.futility import (
    METHODS,
    is_futile_fast,
    is_futile_oracle,
    is_futile_structural,
    transitive_group_futility,
    verdict_record,
)
from orbgraph.orbital import build_orbital_graph, enumerate_base_pairs
from orbgraph.perm import OrderedPartition, PermGroup, Permutation, parse_group_text
from orbgraph.refine import refine_by_graph, select_useful_graphs

import families as fam
import reference as ref



def audit_argv(text: str) -> list[str]:
    """The command the audit workload runs: `orbgraph futility TEXT
    --method all --json`."""
    return ["futility", text, "--method", "all", "--json"]


def individualised(partition: OrderedPartition, point: int) -> OrderedPartition:
    """The partition with point split off in front of the rest of its cell."""
    cells = []
    for cell in partition.cells:
        if point in cell:
            cells.append((point,))
            rest = tuple(p for p in cell if p != point)
            if rest:
                cells.append(rest)
        else:
            cells.append(cell)
    return OrderedPartition(partition.degree, cells)


@dataclass
class Subject:
    """A group as the benchmark sees it: images, text, and a seeded point."""

    degree: int
    gens: list[tuple[int, ...]]
    point: int
    text: str = field(init=False)

    def __post_init__(self):
        self.text = fam.group_text(self.degree, self.gens)


def _subject(family: fam.Family, rng: random.Random) -> Subject:
    gens = fam.relabel(family.gens, family.degree, rng)
    return Subject(family.degree, gens, rng.randint(1, family.degree))


# ---------------------------------------------------------------- plan

# Sizes are capped so that a pass takes about a second and a run repeats
# each input many times; see run.py for why repeats matter.
PLAN_FAMILIES = (
    [fam.symmetric(n) for n in range(5, 9)]
    + [fam.alternating(n) for n in range(5, 10)]
    + [fam.pgl2(p) for p in range(5, 24) if fam.is_prime(p)]
    + [fam.wreath(k, m) for k in range(2, 5) for m in range(2, 5) if k * m <= 8]
    + [fam.transpositions(k) for k in range(2, 8)]
    + [fam.cyclic(n) for n in range(5, 70, 8)]
    + [fam.dihedral(n) for n in range(6, 70, 8)]
)
# Each member is drawn under this many labellings. With the generator
# order, the labelling alone moves a member's cost by 15-35% (S_10 ranges
# over 3x), so one draw per member would make the seed, not the library,
# set the figures.
PLAN_LABELLINGS = 4


@dataclass
class PlanInput:
    family: fam.Family
    subject: Subject


class Plan:
    name = "plan"

    def setup_parts(self, seed: int):
        rng = random.Random(seed)

        def part(f):
            return lambda: [PlanInput(f, _subject(f, rng)) for _ in range(PLAN_LABELLINGS)]

        return [part(f) for f in PLAN_FAMILIES]

    def op(self, inp: PlanInput):
        s = inp.subject
        group = PermGroup(s.degree, [Permutation(g) for g in s.gens])
        order = group.order()
        futile = transitive_group_futility(group) if group.is_transitive() else None
        return group, order, futile, select_useful_graphs(group)

    def replay(self, inp: PlanInput, tr):
        s = inp.subject
        with tr.span("perm.PermGroup"):
            group = PermGroup(s.degree, [Permutation(g) for g in s.gens])
        with tr.span("perm.order"):
            order = group.order()
        tr.count("perm.strong_gens", sum(len(level.gens) for level in group.chain))
        with tr.span("perm.is_transitive"):
            transitive = group.is_transitive()
        futile = None
        if transitive:
            with tr.span("perm.transitivity_degree"):
                group.transitivity_degree()
            with tr.span("futility.transitive_group_futility"):
                futile = transitive_group_futility(group)
        with tr.span("refine.select_useful_graphs"):
            pairs = _enumerate(group, tr)
            useful = []
            for a, b in pairs:
                with tr.span("futility.is_futile_fast"):
                    skip = is_futile_fast(group, a, b)
                if not skip:
                    useful.append(((a, b), _build(group, a, b, tr)))
        return group, order, futile, useful

    def digest(self, out):
        _, order, futile, useful = out
        return order, futile, tuple(pair for pair, _ in useful)

    def check(self, inp: PlanInput, out) -> str | None:
        f = inp.family
        group, order, futile, useful = out
        if order != f.order:
            return f"{f.name}: order {order}, formula {f.order}"
        if (futile is None) != (f.td is None):
            return f"{f.name}: transitivity disagrees with the family"
        if f.td is not None:
            td = group.transitivity_degree()
            if td != f.td or futile != (f.td >= 2):
                return f"{f.name}: transitivity degree {td}, futile {futile}, known {f.td}"
        pairs = enumerate_base_pairs(group)
        if len(pairs) != f.pairs or len(useful) != f.useful:
            return (
                f"{f.name}: {len(pairs)} pairs and {len(useful)} useful graphs, "
                f"formula {f.pairs} and {f.useful}"
            )
        for pair, graph in useful:
            if pair not in pairs or not graph.has_arc(*pair):
                return f"{f.name}: useful graph {pair} is not an enumerated orbital graph"
        return None


# ---------------------------------------------------------------- refine

REFINE_FAMILIES = (
    [fam.cyclic(n) for n in (24, 36, 48, 60)]
    + [fam.dihedral(n) for n in (30, 45, 60)]
    + [fam.wreath(3, 4), fam.wreath(4, 3), fam.wreath(2, 5)]
    + [fam.cycle_product(lengths) for lengths in ((4, 6, 9), (5, 7, 8), (3, 10, 11))]
)


@dataclass
class RefineInput:
    subject: Subject
    graph: object
    point: int
    partition: OrderedPartition
    stab_orbits: list | None = None


class Refine:
    name = "refine"

    def setup_parts(self, seed: int):
        rng = random.Random(seed)

        def part(f):
            def build() -> list[RefineInput]:
                s = _subject(f, rng)
                group = PermGroup(s.degree, [Permutation(g) for g in s.gens])
                orbit_partition = group.orbit_partition()
                inputs = []
                for _, graph in select_useful_graphs(group):
                    point = rng.randint(1, s.degree)
                    partition = individualised(orbit_partition, point)
                    inputs.append(RefineInput(s, graph, point, partition))
                return inputs

            return build

        return [part(f) for f in REFINE_FAMILIES]

    def op(self, inp: RefineInput):
        return refine_by_graph(inp.partition, inp.graph)

    def replay(self, inp: RefineInput, tr):
        with tr.span("refine.refine_by_graph"):
            trace = refine_by_graph(inp.partition, inp.graph)
        _count_refine(trace, tr)
        return trace

    def digest(self, trace):
        return trace.output_partition.cells, trace.rounds, trace.split_count

    def check(self, inp: RefineInput, trace) -> str | None:
        cells = trace.output_partition.cells
        parent = {p: k for k, cell in enumerate(inp.partition.cells) for p in cell}
        if sorted(p for c in cells for p in c) != list(range(1, inp.subject.degree + 1)):
            return "output cells do not partition the points"
        if any(len({parent[p] for p in cell}) != 1 for cell in cells):
            return "output does not refine the input"
        problem = ref.equitable_defect(cells, inp.graph.arcs)
        if problem:
            return "output is not equitable: " + problem
        if inp.stab_orbits is None:
            s = inp.subject
            inp.stab_orbits = ref.stabilizer_orbits(s.degree, s.gens, inp.point)
        where = {p: k for k, cell in enumerate(cells) for p in cell}
        for orbit in inp.stab_orbits:
            if len({where[p] for p in orbit}) != 1:
                return f"a cell splits the stabilizer orbit {sorted(orbit)}"
        return None


def _count_refine(trace, tr) -> None:
    tr.count("refine.rounds", trace.rounds)
    tr.count("refine.splits", trace.split_count)


# ---------------------------------------------------------------- audit

# Degrees 11 and 12 made the slowest tenth of the corpus a few groups of
# 15-60 ms, each repeated only about 15 times in a run, and op_ms.p90's
# quartile spread over ten seeds reached 0.20-0.23; capped at 10 it was 0.12.
AUDIT_DEGREES = range(6, 11)
AUDIT_GENERATORS = (1, 2, 3)
# blocks of each of the ten groups per (degree, generators) cell; one block
# in ten gives a transitive group, the rest stay intransitive
AUDIT_BLOCKS = (1, 2, 2, 3, 3, 3, 4, 2, 3, 4)


@dataclass
class AuditInput:
    subject: Subject
    pairs: int | None = None


def _audit_group(rng: random.Random, degree: int, ngens: int, nblocks: int, turn: int):
    """ngens random permutations that each preserve the same nblocks
    blocks; block sizes are as even as possible, rotated by turn."""
    sizes = [degree // nblocks + (i < degree % nblocks) for i in range(nblocks)]
    sizes = sizes[turn % nblocks :] + sizes[: turn % nblocks]
    gens = []
    for _ in range(ngens):
        images, start = [], 1
        for size in sizes:
            block = list(range(start, start + size))
            rng.shuffle(block)
            images += block
            start += size
        gens.append(tuple(images))
    return fam.relabel(gens, degree, rng)


class Audit:
    """A corpus stratified by degree and generator count, so that a seed
    changes which groups are drawn but not the mix of sizes."""

    name = "audit"

    def setup_parts(self, seed: int):
        rng = random.Random(seed)

        def part(degree, ngens):
            def build() -> list[AuditInput]:
                inputs = []
                for turn, nblocks in enumerate(AUDIT_BLOCKS):
                    gens = _audit_group(rng, degree, ngens, nblocks, turn)
                    inputs.append(AuditInput(Subject(degree, gens, rng.randint(1, degree))))
                return inputs

            return build

        return [part(d, g) for d in AUDIT_DEGREES for g in AUDIT_GENERATORS]

    def op(self, inp: AuditInput):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(audit_argv(inp.subject.text))
        return code, buf.getvalue()

    def replay(self, inp: AuditInput, tr):
        _, _, records = _cli_library_calls(inp.subject.text, tr)
        with tr.span("cli.json_dumps"):
            text = json.dumps(records) + "\n"
        return 0, text

    def digest(self, out):
        return out

    def check(self, inp: AuditInput, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        records = json.loads(text)
        if inp.pairs is None:
            s = inp.subject
            inp.pairs = ref.orbital_count(s.degree, s.gens)
        if len(records) != 3 * inp.pairs:
            return f"{len(records)} records for {inp.pairs} base pairs"
        by_pair: dict[tuple, list] = {}
        for r in records:
            by_pair.setdefault(tuple(r["base_pair"]), []).append(r)
        for pair, rs in by_pair.items():
            if sorted(r["method"] for r in rs) != sorted(METHODS):
                return f"pair {pair}: methods {[r['method'] for r in rs]}"
            if len({r["futile"] for r in rs}) != 1:
                return f"pair {pair}: verdicts disagree"
            if len({r["arc_count"] for r in rs}) != 1:
                return f"pair {pair}: arc counts disagree"
        # the orbital graphs partition the ordered pairs of distinct points
        arcs = sum(rs[0]["arc_count"] for rs in by_pair.values())
        n = inp.subject.degree
        if len(by_pair) != inp.pairs or arcs != n * (n - 1):
            return f"{len(by_pair)} distinct pairs with {arcs} arcs, expected {n * (n - 1)}"
        return None


# ---------------------------------------------------------------- shared steps


def _enumerate(group: PermGroup, tr):
    """enumerate_base_pairs, with the point stabilizers it needs built first."""
    with tr.span("perm.orbit_partition"):
        cells = group.orbit_partition().cells
    for cell in cells:
        with tr.span("perm.point_stabilizer"):
            stab = group.point_stabilizer(cell[0])
        tr.count("perm.stabilizer_gens", len(stab.generators))
    with tr.span("orbital.enumerate_base_pairs"):
        return enumerate_base_pairs(group)


def _build(group: PermGroup, a: int, b: int, tr):
    with tr.span("orbital.build_orbital_graph"):
        graph = build_orbital_graph(group, a, b)
    tr.count("orbital.arcs_built", len(graph.arcs))
    return graph


def _cli_library_calls(text: str, tr):
    """The library calls `orbgraph futility TEXT --method all --json` makes."""
    with tr.span("perm.parse_group_text"):
        group = parse_group_text(text)
    pairs = _enumerate(group, tr)
    graphs, records = [], []
    for a, b in pairs:
        graph = _build(group, a, b, tr)
        graphs.append(graph)
        for method in METHODS:
            with tr.span("futility.verdict_record"):
                records.append(verdict_record(group, a, b, method, graph))
        if len({r["futile"] for r in records[-len(METHODS) :]}) != 1:
            raise RuntimeError(f"verdict disagreement for pair {(a, b)}")
    return group, list(zip(pairs, graphs)), records


def subjects(inputs) -> list[Subject]:
    """The distinct groups behind a workload's inputs, in input order."""
    return list({id(inp.subject): inp.subject for inp in inputs}.values())


def sweep(subject: Subject, covered: set[str], tr) -> None:
    """Measure every layer on one group, including those the workload's own
    operation does not reach. Steps whose span the operation already
    records (covered) are skipped.

    The CLI runs first on its own parse of the text; the same library calls
    are then replayed on a fresh parse, so both start cold and the
    difference is the CLI's own overhead. Per-method tests run after the
    replay, with the stabilizers warm.
    """
    buf = io.StringIO()
    with redirect_stdout(buf), tr.span("cli.run") as run:
        code = cli.run(audit_argv(subject.text))
    if code != 0:
        raise RuntimeError(f"orbgraph futility exited {code}")
    start = perf_counter()
    group, built, _ = _cli_library_calls(subject.text, tr)
    tr.count("cli.overhead_s", run.seconds - (perf_counter() - start))
    useful = None
    for (a, b), graph in built:
        with tr.span("futility.is_futile_fast"):
            futile = is_futile_fast(group, a, b)
        with tr.span("futility.is_futile_structural"):
            is_futile_structural(graph, group)
        with tr.span("futility.is_futile_oracle"):
            is_futile_oracle(graph, group)
        tr.count("sweep.pairs")
        tr.count("sweep.futile", futile)
        if not futile and useful is None:
            useful = graph
    if "perm.order" not in covered:
        with tr.span("perm.order"):
            group.order()
        tr.count("perm.strong_gens", sum(len(level.gens) for level in group.chain))
    if "perm.transitivity_degree" not in covered:
        with tr.span("perm.transitivity_degree"):
            group.transitivity_degree()
    if "refine.select_useful_graphs" not in covered:
        with tr.span("refine.select_useful_graphs"):
            select_useful_graphs(group)
    if "refine.refine_by_graph" not in covered and useful is not None:
        start_partition = individualised(group.orbit_partition(), subject.point)
        with tr.span("refine.refine_by_graph"):
            trace = refine_by_graph(start_partition, useful)
        _count_refine(trace, tr)


WORKLOADS = {w.name: w for w in (Plan, Refine, Audit)}
