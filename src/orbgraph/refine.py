"""Partition refinement driven by one orbital graph.

The demonstrator behind the futility notion: vertices are separated by
their arc counts into and out of splitter cells until the partition is
equitable. A futile graph never splits the orbit partition; a useful one
can.
"""

from __future__ import annotations

from dataclasses import dataclass

from .futility import is_futile_fast
from .orbital import OrbitalGraph, build_orbital_graphs, enumerate_base_pairs
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
    (arcs into W, arcs from W). The vertices counted are listed at their
    first count, and their entries go back to 0 once read. One dict keyed
    by (cell start, count) and one sort then give the touched cells in
    cell order, each with its fragments in ascending pair order, an
    uncounted vertex having (0, 0). The fragments replace the parent in
    place. If the parent was waiting in the queue, every fragment waits
    there with it; otherwise every fragment but the first largest is
    queued for the next round. Each splitter a vertex is popped in is at
    most half the one before, so a vertex is in at most 1 + log2(n)
    popped splitters and refinement reads O(m log n) adjacency entries.

    A round is one generation of the queue: the splitters queued when it
    began, with the fragments they are split into. The output is the
    coarsest equitable refinement of the input, which is unique as a set
    of cells; its cell order depends only on the graph and the input's
    cell order, never on point labels.
    """
    if partition.degree != graph.degree:
        raise ValueError("partition and graph degrees differ")
    n = partition.degree
    out_adj, in_adj = graph.out_adj, graph.in_adj
    # a cell is keyed by its start, the number of points in earlier cells,
    # so key order is cell order
    cells: dict[int, set[int]] = {}
    start_of = [0] * (n + 1)
    start = 0
    for cell in partition.cells:
        cells[start] = set(cell)
        for p in cell:
            start_of[p] = start
        start += len(cell)
    queue = list(cells)
    waiting = dict.fromkeys(queue, queue)  # start -> the generation it waits in
    # neither count of a pair exceeds n, so a count stays below span and
    # start * span + count orders as (start, arcs into W, arcs from W)
    count = [0] * (n + 1)
    into = n + 1
    span = into * into
    rounds = 0
    while queue:
        rounds += 1
        later: list[int] = []
        # queue grows while it is read when a waiting cell splits
        for s in queue:
            del waiting[s]
            hit: list[int] = []
            for v in cells[s]:
                for w in in_adj[v - 1]:
                    c = count[w]
                    if not c:
                        hit.append(w)
                    count[w] = c + into
                for w in out_adj[v - 1]:
                    c = count[w]
                    if not c:
                        hit.append(w)
                    count[w] = c + 1
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
                for members in counted:
                    cell.difference_update(members)
                # what is left of the cell, if anything, has pair (0, 0)
                # and comes first
                starts, sizes = ([t], [len(cell)]) if cell else ([], [])
                start = t + len(cell)
                for members in counted:
                    cells[start] = set(members)
                    for w in members:
                        start_of[w] = start
                    starts.append(start)
                    sizes.append(len(members))
                    start += len(members)
                generation = waiting.get(t)
                if generation is None:
                    del starts[sizes.index(max(sizes))]
                    generation = later
                else:
                    del starts[0]
                for start in starts:
                    waiting[start] = generation
                    generation.append(start)
        queue = later
    output = OrderedPartition._unchecked(
        n, tuple(tuple(sorted(cells[s])) for s in sorted(cells))
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

    The survivors are closed under pairing, since a graph is futile
    exactly when its reverse is, so build_orbital_graphs builds them all
    from the stabilizer orbits the enumeration and the fast test have
    cached: one walk per orbit representative, with each graph's in_adj
    the same tuple as its reverse's out_adj.
    """
    pairs = [p for p in enumerate_base_pairs(group) if not is_futile_fast(group, *p)]
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
