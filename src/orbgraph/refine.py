"""Partition refinement driven by one orbital graph.

The demonstrator behind the futility notion: vertices are separated by
their arc counts into and out of splitter cells until the partition is
equitable. A futile graph never splits the orbit partition; a useful one
can.
"""

from __future__ import annotations

from dataclasses import dataclass

from .futility import is_futile_fast
from .orbital import OrbitalGraph, build_orbital_graph, enumerate_base_pairs
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
    W, reading the adjacency of W's members only. Each cell holding a
    counted vertex splits by the pair (arcs into W, arcs from W), an
    uncounted vertex having (0, 0); the fragments replace the parent in
    place, in ascending pair order, and touched cells are split in cell
    order. If the parent was waiting in the queue, every fragment waits
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
    out_adj, in_adj = graph.out_adj, graph.in_adj
    # a cell is keyed by its start, the number of points in earlier cells,
    # so key order is cell order
    cells: dict[int, set[int]] = {}
    start_of = [0] * (partition.degree + 1)
    start = 0
    for cell in partition.cells:
        cells[start] = set(cell)
        for p in cell:
            start_of[p] = start
        start += len(cell)
    queue = list(cells)
    waiting = dict.fromkeys(queue, queue)  # start -> the generation it waits in
    rounds = 0
    while queue:
        rounds += 1
        later: list[int] = []
        # queue grows while it is read when a waiting cell splits
        for s in queue:
            del waiting[s]
            splitter = cells[s]
            # into[w]: arcs from w into the splitter; out_of[w]: arcs out
            # of the splitter to w
            into: dict[int, int] = {}
            for v in splitter:
                for w in in_adj[v - 1]:
                    into[w] = into.get(w, 0) + 1
            out_of: dict[int, int] = {}
            for v in splitter:
                for w in out_adj[v - 1]:
                    out_of[w] = out_of.get(w, 0) + 1
            touched: dict[int, list[int]] = {}
            for w in into.keys() | out_of.keys():
                touched.setdefault(start_of[w], []).append(w)
            for t in sorted(touched):
                cell = cells[t]
                hit = touched[t]
                groups: dict[tuple[int, int], list[int]] = {}
                for w in hit:
                    groups.setdefault((into.get(w, 0), out_of.get(w, 0)), []).append(w)
                if len(groups) == 1 and len(hit) == len(cell):
                    continue
                cell.difference_update(hit)
                fragments = [cell] if cell else []
                fragments.extend(set(groups[pair]) for pair in sorted(groups))
                starts = []
                start = t
                for fragment in fragments:
                    cells[start] = fragment
                    if fragment is not cell:
                        for w in fragment:
                            start_of[w] = start
                    starts.append(start)
                    start += len(fragment)
                generation = waiting.get(t)
                if generation is None:
                    sizes = [len(f) for f in fragments]
                    del starts[sizes.index(max(sizes))]
                    generation = later
                else:
                    del starts[0]
                for start in starts:
                    waiting[start] = generation
                    generation.append(start)
        queue = later
    output = OrderedPartition(partition.degree, [cells[s] for s in sorted(cells)])
    return RefinementTrace(
        graph.base_pair,
        partition,
        output,
        rounds,
        len(output.cells) - len(partition.cells),
    )


def select_useful_graphs(group: PermGroup):
    """Enumerate base pairs, drop the futile ones via the fast test, and
    build only the survivors. Returns (pair, graph) tuples."""
    out = []
    for pair in enumerate_base_pairs(group):
        if not is_futile_fast(group, pair[0], pair[1]):
            out.append((pair, build_orbital_graph(group, pair[0], pair[1])))
    return out


def trace_record(trace: RefinementTrace) -> dict:
    """JSON-ready summary; cell counts rather than the cells themselves."""
    return {
        "base_pair": list(trace.base_pair),
        "rounds": trace.rounds,
        "split_count": trace.split_count,
        "cells_before": len(trace.input_partition.cells),
        "cells_after": len(trace.output_partition.cells),
    }
