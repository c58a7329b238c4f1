"""Partition refinement driven by one orbital graph.

The demonstrator behind the futility notion: vertices are separated by
their per-cell out/in degree vectors, repeated to a fixpoint. A futile
graph never splits the orbit partition; a useful one can.
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
    """Split cells by vertex signature until nothing changes.

    A vertex's signature is the tuple over current cells of (arcs out into
    the cell, arcs in from the cell). Each round signs against the cells
    the round before left; split cells replace their parent in place,
    ordered by ascending signature, so the output order is a function of
    (parent position, signature).

    A signature is stored sparsely: one (-k, out, in) entry for each cell
    position k the vertex has an arc to or from, in ascending k. With k
    negated, tuple order is the order of the full signatures: the first
    differing position decides, and there a nonzero entry beats the zeros
    the sparse form leaves out.

    The first round examines every cell. A later round examines only the
    cells holding an out- or in-neighbour of a vertex whose cell split in
    the round before. Another cell's vertices have arcs only to and from
    cells that did not split, so they count what they counted a round
    ago, when they all agreed: such a cell cannot split. Singletons are
    skipped.
    """
    if partition.degree != graph.degree:
        raise ValueError("partition and graph degrees differ")
    out_adj, in_adj = graph.out_adj, graph.in_adj
    position = [0] * (partition.degree + 1)

    def signature(v):
        entries = {}
        for w in out_adj[v - 1]:
            k = position[w]
            if k in entries:
                entries[k][1] += 1
            else:
                entries[k] = [-k, 1, 0]
        for w in in_adj[v - 1]:
            k = position[w]
            if k in entries:
                entries[k][2] += 1
            else:
                entries[k] = [-k, 0, 1]
        # descending -k is ascending position
        return tuple(sorted(map(tuple, entries.values()), reverse=True))

    cells = list(partition.cells)
    examine = range(len(cells))
    moved: list[int] = []
    rounds = 0
    while True:
        rounds += 1
        for k, cell in enumerate(cells):
            for p in cell:
                position[p] = k
        if moved:
            examine = {position[w] for u in moved for w in out_adj[u - 1]}
            examine.update(position[w] for u in moved for w in in_adj[u - 1])
        splits = {}
        for k in examine:
            cell = cells[k]
            if len(cell) == 1:
                continue
            buckets: dict[tuple, list[int]] = {}
            for v in cell:
                buckets.setdefault(signature(v), []).append(v)
            if len(buckets) > 1:
                splits[k] = [tuple(buckets[sig]) for sig in sorted(buckets)]
        if not splits:
            break
        moved = [v for k in splits for v in cells[k]]
        cells = [part for k, cell in enumerate(cells) for part in splits.get(k, (cell,))]
    output = OrderedPartition(partition.degree, cells)
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
