"""Orbital graphs: directed graphs whose arc set is the closure of a single
ordered base-pair under a permutation group, plus the queries on them that
the futility tests and the refiner need.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .perm import OrderedPartition, PermGroup


@dataclass(frozen=True, eq=False)
class OrbitalGraph:
    """Arc data for one orbital graph.

    arcs is lexicographically sorted and duplicate free; out_adj and in_adj
    are indexed by point - 1 and hold sorted neighbor tuples. Graphs built
    by build_orbital_graph always contain their base pair as an arc.
    """

    degree: int
    base_pair: tuple[int, int]
    arcs: tuple[tuple[int, int], ...]
    out_adj: tuple[tuple[int, ...], ...]
    in_adj: tuple[tuple[int, ...], ...]
    arc_set: frozenset[tuple[int, int]]

    def has_arc(self, x: int, y: int) -> bool:
        return (x, y) in self.arc_set


def check_base_pair(degree: int, alpha: int, beta: int) -> None:
    for p in (alpha, beta):
        if not 1 <= p <= degree:
            raise ValueError(f"point {p} out of range 1..{degree}")
    if alpha == beta:
        raise ValueError("base pair points must be distinct")


def build_orbital_graph(group: PermGroup, alpha: int, beta: int) -> OrbitalGraph:
    """Close {(alpha, beta)} under the group generators, breadth first on
    pairs. Forward images suffice for the same reason as in point orbits."""
    n = group.degree
    check_base_pair(n, alpha, beta)
    images = [g.images for g in group.generators]
    seen = {(alpha, beta)}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for im in images:
            pair = (im[x - 1], im[y - 1])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    # lexicographic order puts every neighbor list in ascending order as it fills
    arcs = tuple(sorted(seen))
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for x, y in arcs:
        out[x - 1].append(y)
        inn[y - 1].append(x)
    return OrbitalGraph(
        n, (alpha, beta), arcs, tuple(map(tuple, out)), tuple(map(tuple, inn)), frozenset(seen)
    )


def _pair_orbit_sizes(group: PermGroup, alpha: int, beta: int) -> tuple[int, int, int, bool]:
    """Check the base pair and return |alpha^G|, |beta^(G_alpha)|, |beta^G|
    and whether beta lies in alpha's orbit: all that the arc count, the
    fast futility test and the arc-count thresholds read."""
    check_base_pair(group.degree, alpha, beta)
    orb_a = group.orbit(alpha)
    k = len(group.point_stabilizer(alpha).orbit(beta))
    return len(orb_a), k, len(group.orbit(beta)), beta in orb_a


def arc_count_formula(group: PermGroup, alpha: int, beta: int) -> int:
    """Number of arcs without building the graph: the orbit size of alpha
    times the orbit size of beta under alpha's stabilizer."""
    n, k, _, _ = _pair_orbit_sizes(group, alpha, beta)
    return n * k


def is_self_paired(graph: OrbitalGraph) -> bool:
    """True when the reversed base pair is itself an arc, which makes the
    whole arc set closed under reversal."""
    alpha, beta = graph.base_pair
    return (beta, alpha) in graph.arc_set


def isolated_vertices(graph: OrbitalGraph) -> tuple[int, ...]:
    return tuple(
        v
        for v in range(1, graph.degree + 1)
        if not graph.out_adj[v - 1] and not graph.in_adj[v - 1]
    )


def weak_components(graph: OrbitalGraph) -> OrderedPartition:
    """Weakly connected components as an ordered partition: components with
    two or more vertices first, ascending by minimal vertex, then the
    isolated vertices as ascending singleton cells."""
    n = graph.degree
    seen = [False] * n
    big, single = [], []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        seen[start - 1] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.out_adj[v - 1] + graph.in_adj[v - 1]:
                if not seen[w - 1]:
                    seen[w - 1] = True
                    comp.append(w)
                    queue.append(w)
        (big if len(comp) > 1 else single).append(sorted(comp))
    return OrderedPartition(n, big + single)


def enumerate_base_pairs(group: PermGroup) -> list[tuple[int, int]]:
    """One base pair per orbital graph, up to the group's own symmetry.

    For each orbit representative alpha (minimal point of its orbit) and
    each orbit of alpha's stabilizer on the remaining points, emit (alpha,
    minimal beta of that orbit). The arc set determines alpha (tails fill
    alpha's orbit) and beta (alpha's out-neighbourhood is beta's stabilizer
    orbit), so the emitted pairs produce pairwise distinct graphs.
    """
    pairs = []
    for cell in group.orbit_partition().cells:
        alpha = cell[0]
        stab = group.point_stabilizer(alpha)
        for scell in stab.orbit_partition().cells:
            if alpha in scell:
                continue
            pairs.append((alpha, scell[0]))
    return pairs


def to_dot(graph: OrbitalGraph) -> str:
    """DOT text: isolated vertices as bare nodes, arcs in sorted order."""
    lines = ["digraph orbital {"]
    lines += [f"  {v};" for v in isolated_vertices(graph)]
    lines += [f"  {x} -> {y};" for x, y in graph.arcs]
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(graph: OrbitalGraph) -> str:
    return json.dumps(
        {
            "degree": graph.degree,
            "base_pair": list(graph.base_pair),
            "arcs": [list(a) for a in graph.arcs],
            "isolated": list(isolated_vertices(graph)),
        }
    )

