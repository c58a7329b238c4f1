"""Splitter-queue refinement and the futile-graphs-change-nothing
guarantee."""

import dataclasses
import random

import pytest

from orbgraph.futility import is_futile_fast
from orbgraph.orbital import OrbitalGraph, build_orbital_graph, enumerate_base_pairs
from orbgraph.perm import OrderedPartition
from orbgraph.refine import refine_by_graph, select_useful_graphs, trace_record

from support import (
    block_preserving_group,
    cyclic_group,
    dense_refine,
    dihedral_group,
    wreath_group,
)


def graph_of(degree, arcs):
    """An OrbitalGraph with exactly these arcs, the first one as base pair."""
    arcs = sorted(arcs)
    out_adj = [[] for _ in range(degree)]
    in_adj = [[] for _ in range(degree)]
    # arcs are sorted, so every neighbour list comes out sorted
    for x, y in arcs:
        out_adj[x - 1].append(y)
        in_adj[y - 1].append(x)
    return OrbitalGraph(
        degree,
        arcs[0] if arcs else (1, 2),
        tuple(map(tuple, out_adj)),
        tuple(map(tuple, in_adj)),
    )


def individualised(partition, point):
    """The partition with point split off in front of the rest of its cell."""
    cells = []
    for cell in partition.cells:
        if point in cell:
            cells.append((point,))
            cells.append(tuple(p for p in cell if p != point))
        else:
            cells.append(cell)
    return OrderedPartition(partition.degree, [c for c in cells if c])


def random_partition(rng, degree):
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, degree), rng.randint(0, min(3, degree - 1))))
    return OrderedPartition(degree, [points[a:b] for a, b in zip([0] + cuts, cuts + [degree])])


def reference_partitions(rng, group):
    orbits = group.orbit_partition()
    yield OrderedPartition.unit(group.degree)
    yield orbits
    for point in rng.sample(range(1, group.degree + 1), 3):
        yield individualised(orbits, point)
    yield random_partition(rng, group.degree)


class TestRefineByGraph:
    def test_orbit_partition_untouched_by_own_graph(self, two_triangles):
        part = two_triangles.orbit_partition()
        g = build_orbital_graph(two_triangles, 1, 2)
        trace = refine_by_graph(part, g)
        assert trace.output_partition == part
        assert trace.split_count == 0
        assert trace.rounds == 1

    def test_unit_partition_split_by_single_arc(self, two_swaps):
        g = build_orbital_graph(two_swaps, 1, 7)
        trace = refine_by_graph(OrderedPartition.unit(7), g)
        assert trace.split_count == 2
        assert trace.rounds == 2
        # ascending (arcs into, arcs from) order: silent vertices, then the
        # arc's head, then its tail
        assert trace.output_partition.cells == ((2, 3, 4, 5, 6), (7,), (1,))

    def test_arcless_graph_changes_nothing(self):
        part = OrderedPartition(5, [[1, 2, 3], [4, 5]])
        trace = refine_by_graph(part, graph_of(5, ()))
        assert trace.output_partition == part
        assert trace.rounds == 1
        assert trace.split_count == 0

    def test_degree_mismatch(self, two_swaps):
        with pytest.raises(ValueError):
            refine_by_graph(OrderedPartition.unit(5), build_orbital_graph(two_swaps, 1, 7))

    def test_output_refines_input(self, corpus_sample):
        for group in corpus_sample[:20]:
            orbits = group.orbit_partition()
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                trace = refine_by_graph(orbits, g)
                cells = trace.output_partition.cells
                for cell in cells:
                    assert len({group.orbit(p) for p in cell}) == 1
                assert trace.split_count == len(cells) - len(orbits.cells)
                assert trace.rounds >= 1

    def test_fixpoint_is_idempotent(self, corpus_sample):
        for group in corpus_sample[:20]:
            unit = OrderedPartition.unit(group.degree)
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                out = refine_by_graph(unit, g).output_partition
                again = refine_by_graph(out, g)
                assert again.output_partition == out
                assert again.split_count == 0

    def test_group_preserves_refined_cells(self, corpus_sample):
        # every generator permutes the cells of the refined partition, so
        # refinement never cuts through the group's symmetry
        for group in corpus_sample[:20]:
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                out = refine_by_graph(group.orbit_partition(), g).output_partition
                cells = {cell for cell in out.cells}
                for gen in group.generators:
                    for cell in out.cells:
                        assert tuple(sorted(gen.apply(p) for p in cell)) in cells

    def test_futile_graphs_never_split_orbit_partition(self, corpus_sample):
        for group in corpus_sample:
            part = group.orbit_partition()
            for pair in enumerate_base_pairs(group):
                if not is_futile_fast(group, *pair):
                    continue
                g = build_orbital_graph(group, *pair)
                assert refine_by_graph(part, g).split_count == 0


class TestSelectUsefulGraphs:
    def test_symmetric_group_keeps_nothing(self):
        from orbgraph.perm import PermGroup

        assert select_useful_graphs(PermGroup.symmetric(5)) == []

    def test_futile_pairs_filtered(self, two_swaps):
        kept = {pair for pair, _ in select_useful_graphs(two_swaps)}
        assert (1, 7) not in kept
        assert (1, 3) not in kept

    def test_survivors_are_not_futile(self, two_triangles):
        kept = select_useful_graphs(two_triangles)
        assert ((1, 2), build_orbital_graph(two_triangles, 1, 2).arcs) in [
            (pair, g.arcs) for pair, g in kept
        ]
        for pair, _ in kept:
            assert not is_futile_fast(two_triangles, *pair)


def test_trace_record_fields(two_swaps):
    g = build_orbital_graph(two_swaps, 1, 7)
    trace = refine_by_graph(OrderedPartition.unit(7), g)
    assert trace_record(trace) == {
        "base_pair": [1, 7],
        "rounds": 2,
        "split_count": 2,
        "cells_before": 1,
        "cells_after": 3,
    }


def reference_groups(rng, corpus_sample):
    yield from corpus_sample
    for n in [*range(3, 13), *range(15, 61, 5)]:
        yield cyclic_group(n)
        yield dihedral_group(n)
    yield wreath_group(3, 4)
    for degree in (20, 30, 40, 50, 60):
        yield block_preserving_group(rng, degree, rng.randint(1, 3), rng.randint(2, 8))


def reference_cases(rng, corpus_sample):
    """(partition, graph) over reference_groups; degrees past 12 take a
    seeded sample of at most four base pairs each."""
    for group in reference_groups(rng, corpus_sample):
        partitions = list(reference_partitions(rng, group))
        pairs = enumerate_base_pairs(group)
        if group.degree > 12:
            pairs = rng.sample(pairs, min(4, len(pairs)))
        for pair in pairs:
            graph = build_orbital_graph(group, *pair)
            for partition in partitions:
                yield partition, graph


def test_matches_dense_reference(corpus_sample):
    # the coarsest equitable refinement is unique, so the cells match the
    # dense refiner's as sets; the queue orders them its own way
    for partition, graph in reference_cases(random.Random(20261018), corpus_sample):
        trace = refine_by_graph(partition, graph)
        reference = dense_refine(partition, graph)
        assert set(trace.output_partition.cells) == set(reference.output_partition.cells)
        assert trace.split_count == reference.split_count


def test_signature_order_puts_earlier_cells_last():
    # splitter (1,) counts one arc from 3 into it and none from 4, so 4's
    # (0, 0) fragment comes first; both fragments wait in round 1, where
    # (3, 4) waited, and split nothing more
    part = OrderedPartition(4, [[1], [2], [3, 4]])
    trace = refine_by_graph(part, graph_of(4, [(3, 1), (4, 2)]))
    assert trace.output_partition.cells == ((1,), (2,), (4,), (3,))
    assert trace.rounds == 1
    assert trace.split_count == 1


@pytest.mark.parametrize("n", [7, 8, 100, 101, 400])
def test_cycle_refines_to_discrete(n):
    # with 1 individualised, round 1 splits off 2 and n by splitter (1,),
    # whose fragments wait in round 1 too, then 3 and n-1 by the middle
    # fragment; each later round splits off the next point at each end.
    # Every point stands alone after round (n-3)//2, and the round after
    # it splits nothing, so there are (n-1)//2 rounds
    graph = build_orbital_graph(cyclic_group(n), 1, 2)
    trace = refine_by_graph(OrderedPartition(n, [[1], range(2, n + 1)]), graph)
    assert sorted(trace.output_partition.cells) == [(p,) for p in range(1, n + 1)]
    assert trace.rounds == (n - 1) // 2
    assert trace.split_count == n - 2


@pytest.mark.parametrize("n", [7, 8, 100, 101, 400])
def test_dihedral_refines_to_stabilizer_orbits(n):
    # the undirected n-gon separates the points by distance from 1, which
    # are the orbits {1+k, 1-k} of 1's stabilizer. Round 1 splits off
    # distances 1 and 2, and each later round the next distance; the one
    # that splits off distance n//2 - 1 leaves n//2 on its own as well,
    # and the round after it splits nothing, so there are n//2 - 1 rounds
    graph = build_orbital_graph(dihedral_group(n), 1, 2)
    trace = refine_by_graph(OrderedPartition(n, [[1], range(2, n + 1)]), graph)
    mirror = [tuple(sorted({1 + k, (n - k) % n + 1})) for k in range(1, n // 2 + 1)]
    assert sorted(trace.output_partition.cells) == sorted([(1,)] + mirror)
    assert trace.rounds == n // 2 - 1


class CountingAdjacency(tuple):
    """Neighbour lists that add the length of every list handed out to
    tally[0]."""

    def __new__(cls, lists, tally):
        self = super().__new__(cls, lists)
        self.tally = tally
        return self

    def __getitem__(self, index):
        entries = super().__getitem__(index)
        self.tally[0] += len(entries)
        return entries


def adjacency_reads(partition, graph):
    tally = [0]
    counted = dataclasses.replace(
        graph,
        out_adj=CountingAdjacency(graph.out_adj, tally),
        in_adj=CountingAdjacency(graph.in_adj, tally),
    )
    refine_by_graph(partition, counted)
    return tally[0]


def read_bound(graph):
    # a vertex is in at most 1 + floor(log2 n) = n.bit_length() popped
    # splitters, and each time its out- and in-lists are read once
    return 2 * len(graph.arcs) * graph.degree.bit_length()


@pytest.mark.parametrize("family", [cyclic_group, dihedral_group])
@pytest.mark.parametrize("n", [100, 400, 1000])
def test_adjacency_reads_are_m_log_n_on_long_cycles(family, n):
    graph = build_orbital_graph(family(n), 1, 2)
    partition = OrderedPartition(n, [[1], range(2, n + 1)])
    assert adjacency_reads(partition, graph) <= read_bound(graph)


def test_adjacency_reads_are_m_log_n_on_reference_groups(corpus_sample):
    for partition, graph in reference_cases(random.Random(20261019), corpus_sample):
        assert adjacency_reads(partition, graph) <= read_bound(graph)


def relabelled(sigma, partition, graph):
    """sigma(partition) and sigma(graph), sigma a list with point p going
    to sigma[p]."""
    cells = [[sigma[p] for p in cell] for cell in partition.cells]
    arcs = [(sigma[x], sigma[y]) for x, y in graph.arcs]
    return OrderedPartition(partition.degree, cells), graph_of(graph.degree, arcs)


def test_relabelling_commutes_with_refinement(corpus_sample):
    # refining sigma(P) by sigma(G) gives sigma of each cell, in the same
    # order: cell order never depends on point labels
    rng = random.Random(20261020)
    groups = list(corpus_sample)
    groups += [block_preserving_group(rng, rng.randint(12, 40), 2, rng.randint(1, 4)) for _ in range(20)]
    for _ in range(400):
        group = rng.choice(groups)
        graph = build_orbital_graph(group, *rng.choice(enumerate_base_pairs(group)))
        partition = rng.choice([group.orbit_partition(), random_partition(rng, group.degree)])
        sigma = [0, *rng.sample(range(1, group.degree + 1), group.degree)]
        trace = refine_by_graph(partition, graph)
        moved = refine_by_graph(*relabelled(sigma, partition, graph))
        assert moved.output_partition.cells == tuple(
            tuple(sorted(sigma[p] for p in cell)) for cell in trace.output_partition.cells
        )
        assert moved.rounds == trace.rounds
