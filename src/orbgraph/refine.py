"""Partition refinement driven by one orbital graph.

The demonstrator behind the futility notion: vertices are separated by
their arc counts into and out of splitter cells until the partition is
equitable. A futile graph never splits the orbit partition; a useful one
can.
"""

from __future__ import annotations

from dataclasses import dataclass

from .futility import _fast
from .orbital import OrbitalGraph, _sized_base_pairs, build_orbital_graphs
from .perm import OrderedPartition, PermGroup


@dataclass(frozen=True)
class RefinementTrace:
    base_pair: tuple[int, int]
    input_partition: OrderedPartition
    output_partition: OrderedPartition
    rounds: int
    split_count: int


def refine_by_graph(partition: OrderedPartition, graph: OrbitalGraph) -> RefinementTrace:
    """Split cells by their arc counts into and out of splitter cells until
    the partition is equitable.

    A queue of splitter cells starts as every input cell in position order.
    Popping a splitter W counts, for each vertex, its arcs into W and from
    W, reading the adjacency of W's members only. One count array serves
    the whole call: an arc into W adds n + 1 to its tail's entry and an arc
    out of W adds 1 to its head's, so each entry orders exactly as the pair
    (arcs into W, arcs from W). When the in-lists equal the out-lists, as
    for a self-paired graph, every pair is (c, c), so one pass over the
    out-lists adding n + 2 per arc counts it. The vertices counted are
    listed at their first count, and their entries go back to 0 once read.
    A point of a one-point cell, which cannot split, keeps an entry that
    never returns to 0, so it is never listed. A pop that counted no vertex
    ends there. Most pops count one vertex w, which then lies in a cell of
    two or more points; w is split off directly, the rest of its cell
    keeping its start, and only {w}, after the rest, is queued. Any other
    pop groups its vertices with one dict keyed by (cell start, count) and
    one sort, which give the touched cells in cell order, each with its
    fragments in ascending pair order, an uncounted vertex having (0, 0).
    The fragments replace the parent in place. If the parent was waiting in
    the queue, every fragment waits there with it; otherwise every fragment
    but the first largest is queued for the next round. A one-vertex split
    is that rule with the rest as the first largest fragment. Each splitter
    a vertex is popped in is at most half the one before, so a vertex is in
    at most 1 + log2(n) popped splitters and refinement reads O(m log n)
    adjacency entries.

    A cell keeps the form it was made in, the caller's sorted tuple or the
    list of a fragment, until it first splits; it then becomes a set, at
    no more cost than making it took, and each later split removes only
    the counted points. A cell that never split is output as given.

    A round is one generation of the queue: the splitters queued when it
    began, with the fragments they are split into. The output is the
    coarsest equitable refinement of the input, which is unique as a set
    of cells; its cell order depends only on the graph and the input's
    cell order, never on point labels.
    """
    if not isinstance(partition, OrderedPartition):
        raise ValueError(f"partition must be an OrderedPartition, not {type(partition).__name__}")
    if not isinstance(graph, OrbitalGraph):
        raise ValueError(f"graph must be an OrbitalGraph, not {type(graph).__name__}")
    if partition.degree != graph.degree:
        raise ValueError("partition and graph degrees differ")
    n = partition.degree
    out_adj, in_adj = graph.out_adj, graph.in_adj
    # neither count of a pair exceeds n, so a count stays below span and
    # start * span + count orders as (start, arcs into W, arcs from W)
    into = n + 1
    span = into * into
    # equal in- and out-lists give every vertex a pair (c, c), counted in
    # one pass as c * (n + 2)
    passes = ((out_adj, into + 1),) if in_adj == out_adj else ((in_adj, into), (out_adj, 1))
    # a cell is kept at its start, the number of points in earlier cells,
    # so start order is cell order; it is the caller's tuple or the
    # fragment's list until it first splits, and a set from then on
    cells: list = [None] * n
    waiting: list = [None] * n  # start -> the generation it waits in
    start_of = [0] * (n + 1)
    # the entry of a point in a one-point cell is set to 1 and only grows
    count = [0] * (n + 1)
    queue: list[int] = []
    start = 0
    for cell in partition.cells:
        cells[start] = cell
        waiting[start] = queue
        queue.append(start)
        for p in cell:
            start_of[p] = start
        if len(cell) == 1:
            count[cell[0]] = 1
        start += len(cell)
    rounds = 0
    while queue:
        rounds += 1
        later: list[int] = []
        # queue grows while it is read when a waiting cell splits
        for s in queue:
            waiting[s] = None
            hit: list[int] = []
            splitter = cells[s]
            for adj, weight in passes:
                for v in splitter:
                    for w in adj[v - 1]:
                        c = count[w]
                        if not c:
                            hit.append(w)
                        count[w] = c + weight
            if not hit:
                continue
            if len(hit) == 1:
                # one counted vertex w, in a cell of two or more points:
                # the rest keeps its start and is the first largest
                # fragment, and only {w}, placed after it, is queued
                w = hit[0]
                count[w] = 1
                t = start_of[w]
                cell = cells[t]
                if type(cell) is not set:
                    cell = cells[t] = set(cell)
                cell.remove(w)
                if len(cell) == 1:
                    count[next(iter(cell))] = 1
                start = start_of[w] = t + len(cell)
                cells[start] = [w]
                generation = waiting[t]
                if generation is None:
                    generation = later
                waiting[start] = generation
                generation.append(start)
                continue
            groups: dict[int, list[int]] = {}
            for w in hit:
                groups.setdefault(start_of[w] * span + count[w], []).append(w)
                count[w] = 0
            keys = sorted(groups)
            parts: list[list[int]] = []
            for i, key in enumerate(keys, 1):
                parts.append(groups[key])
                t = key // span
                if i < len(keys) and keys[i] // span == t:
                    continue
                # parts holds every counted fragment of cell t
                counted, parts = parts, []
                cell = cells[t]
                if len(counted) == 1 and len(counted[0]) == len(cell):
                    continue
                if type(cell) is not set:
                    cell = cells[t] = set(cell)
                for members in counted:
                    cell.difference_update(members)
                # what is left of the cell, if anything, has pair (0, 0)
                # and comes first
                starts, sizes = ([t], [len(cell)]) if cell else ([], [])
                if len(cell) == 1:
                    count[next(iter(cell))] = 1
                start = t + len(cell)
                for members in counted:
                    cells[start] = members
                    for w in members:
                        start_of[w] = start
                    if len(members) == 1:
                        count[members[0]] = 1
                    starts.append(start)
                    sizes.append(len(members))
                    start += len(members)
                generation = waiting[t]
                if generation is None:
                    del starts[sizes.index(max(sizes))]
                    generation = later
                else:
                    del starts[0]
                for start in starts:
                    waiting[start] = generation
                    generation.append(start)
        queue = later
    # a cell that is still the caller's tuple never split and is sorted
    output = OrderedPartition._unchecked(
        n, tuple(c if type(c) is tuple else tuple(sorted(c)) for c in cells if c is not None)
    )
    return RefinementTrace(
        graph.base_pair,
        partition,
        output,
        rounds,
        len(output.cells) - len(partition.cells),
    )


def select_useful_graphs(group: PermGroup):
    """Enumerate base pairs, drop the futile ones via the fast test, and
    build only the survivors. Returns (pair, graph) tuples in enumeration
    order.

    The enumeration hands each pair the orbit sizes the fast test reads,
    taken from the cells it walks, so no pair's sizes are looked up again;
    is_futile_fast looks them up for a single pair and gives the same
    verdict.

    The survivors are closed under pairing, since a graph is futile
    exactly when its reverse is, so build_orbital_graphs builds them all
    from the stabilizer orbits the enumeration has cached: one walk per
    orbit representative, with each graph's in_adj the same tuple as its
    reverse's out_adj.
    """
    pairs = [pair for pair, sizes in _sized_base_pairs(group) if not _fast(sizes)]
    return list(zip(pairs, build_orbital_graphs(group, pairs)))


def trace_record(trace: RefinementTrace) -> dict:
    """JSON-ready summary; cell counts rather than the cells themselves."""
    return {
        "base_pair": list(trace.base_pair),
        "rounds": trace.rounds,
        "split_count": trace.split_count,
        "cells_before": len(trace.input_partition.cells),
        "cells_after": len(trace.output_partition.cells),
    }
