"""Orbital graphs: directed graphs whose arc set is the closure of a single
ordered base-pair under a permutation group, plus the queries on them that
the futility tests and the refiner need.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .perm import MAX_DEGREE, OrderedPartition, PermGroup, Permutation, _schreier_tree


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


def _graph_from_arcs(degree, base_pair, arc_set: frozenset) -> OrbitalGraph:
    # lexicographic order puts every neighbor list in ascending order as it fills
    arcs = tuple(sorted(arc_set))
    out = [[] for _ in range(degree)]
    inn = [[] for _ in range(degree)]
    for x, y in arcs:
        out[x - 1].append(y)
        inn[y - 1].append(x)
    return OrbitalGraph(
        degree, base_pair, arcs, tuple(map(tuple, out)), tuple(map(tuple, inn)), arc_set
    )


def build_orbital_graph(group: PermGroup, alpha: int, beta: int) -> OrbitalGraph:
    """Close {(alpha, beta)} under the group generators, breadth first on
    pairs. Forward images suffice for the same reason as in point orbits."""
    check_base_pair(group.degree, alpha, beta)
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
    return _graph_from_arcs(group.degree, (alpha, beta), frozenset(seen))


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


def arc_mapping_element(group, source, target) -> Permutation | None:
    """A group element sending the ordered pair source to target, or None.

    Found in two steps: a transversal element u with source[0]^u =
    target[0], then an element w of source[0]'s stabilizer moving source[1]
    onto the preimage of target[1] under u. The product w * u does both.
    """
    a, b = source
    c, d = target
    check_base_pair(group.degree, a, b)
    check_base_pair(group.degree, c, d)
    ident = Permutation.identity(group.degree)
    u = _schreier_tree(group.generators, a, ident).get(c)
    if u is None:
        return None
    stab = group.point_stabilizer(a)
    mid = u.inverse().apply(d)
    w = _schreier_tree(stab.generators, b, ident).get(mid)
    if w is None:
        return None
    return w * u


def components_pairwise_isomorphic(graph: OrbitalGraph, group: PermGroup) -> bool:
    """Verify that an explicit group element carries the base-pair component
    onto every other component with at least two vertices.

    The element is found by mapping the base pair onto any arc of the target
    component; it then acts as a graph automorphism, so its image of the
    base component must be exactly the target component. True for every
    graph produced by build_orbital_graph.
    """
    if graph.degree != group.degree:
        raise ValueError("graph and group degrees differ")
    comps = [c for c in weak_components(graph).cells if len(c) > 1]
    alpha = graph.base_pair[0]
    base = next(c for c in comps if alpha in c)
    for comp in comps:
        if comp == base:
            continue
        members = set(comp)
        arc = next(a for a in graph.arcs if a[0] in members)
        h = arc_mapping_element(group, graph.base_pair, arc)
        if h is None:
            return False
        if {h.images[v - 1] for v in base} != members:
            return False
    return True


def enumerate_base_pairs(group: PermGroup) -> list[tuple[int, int]]:
    """One base pair per orbital graph, up to the group's own symmetry.

    For each orbit representative alpha (minimal point of its orbit) and
    each orbit of alpha's stabilizer on the remaining points, emit (alpha,
    minimal beta of that orbit). The arc set determines alpha (tails fill
    alpha's orbit) and beta (alpha's out-neighbourhood is beta's stabilizer
    orbit), so the emitted pairs produce pairwise distinct graphs already;
    distinct_base_pairs only does real work on arbitrary pair lists.
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


def distinct_base_pairs(group: PermGroup, pairs=None) -> list[tuple[int, int]]:
    """Filter base pairs so each distinct arc set is kept once, keeping the
    first pair that produces it. With no pairs given this is the
    enumeration itself, which repeats no arc set, so no graph is built."""
    if pairs is None:
        return enumerate_base_pairs(group)
    seen, keep = set(), []
    for pair in pairs:
        arcs = build_orbital_graph(group, pair[0], pair[1]).arcs
        if arcs not in seen:
            seen.add(arcs)
            keep.append(pair)
    return keep


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


def _json_pair(value, degree: int) -> tuple[int, int]:
    # bool is a subclass of int, so test the exact type
    if not (isinstance(value, list) and len(value) == 2 and all(type(p) is int for p in value)):
        raise ValueError(f"expected a pair of integer points, got {value!r}")
    check_base_pair(degree, *value)
    return tuple(value)


def graph_from_json(text: str) -> OrbitalGraph:
    """Rebuild a graph emitted by graph_to_json; adjacency is rederived and
    the isolated field is ignored as redundant. Malformed input, including
    a degree above MAX_DEGREE, pairs outside the degree and a base pair
    that is not an arc (every orbital graph contains its own), raises
    ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    degree = data.get("degree")
    if type(degree) is not int or not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be an integer in 1..{MAX_DEGREE}, got {degree!r}")
    arcs = data.get("arcs")
    if not isinstance(arcs, list):
        raise ValueError(f"arcs must be a list, got {arcs!r}")
    base_pair = _json_pair(data.get("base_pair"), degree)
    arc_set = frozenset(_json_pair(a, degree) for a in arcs)
    if base_pair not in arc_set:
        raise ValueError(f"base pair {list(base_pair)} is not an arc")
    return _graph_from_arcs(degree, base_pair, arc_set)
