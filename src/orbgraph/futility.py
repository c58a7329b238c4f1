"""Three independent tests for whether an orbital graph is futile.

A graph is futile when the stabilizer of the group's ordered orbit
partition, the direct product of full symmetric groups on the orbits,
already acts on it by graph automorphisms. Such a graph can never split an
orbit cell, so a refiner gains nothing by building it. Futility happens
exactly when the arc set is the complete digraph on its tails, or is tails
x heads with the two disjoint. The three tests here decide that from the
orbit sizes of the base pair, from the built graph's tails and heads, and
from the definition directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from .orbital import OrbitalGraph, _pair_orbit_sizes, build_orbital_graph
from .perm import PermGroup, Permutation

SHAPE_COMPLETE = "complete-on-orbit"
SHAPE_BIPARTITE = "complete-bipartite"
SHAPE_NONE = "not-futile"

METHODS = ("fast", "structural", "oracle")


@dataclass(frozen=True)
class FutilityVerdict:
    """Outcome of the structural test: the shape found, the component it
    lives on, and for non-futile graphs a witness (g, arc) where g is an
    adjacent transposition of an orbit cell moving arc off the arc set."""

    futile: bool
    shape: str
    component: tuple[int, ...] | None
    witness: tuple[Permutation, tuple[int, int]] | None


def _witness(graph: OrbitalGraph, group: PermGroup):
    """First adjacent transposition (a, b) of an orbit cell, in cell order,
    that moves some arc off the arc set, with the least such arc.

    These transpositions generate the orbit-partition stabilizer, and one
    fixes every arc that avoids a and b, so only the arcs at a or b are
    read. When a and b have equal neighbour lists they are not neighbours,
    since arcs are never loops, and the swap fixes the graph.
    """
    out_adj, in_adj = graph.out_adj, graph.in_adj
    for cell in group.orbit_partition().cells:
        for a, b in pairwise(cell):
            if out_adj[a - 1] == out_adj[b - 1] and in_adj[a - 1] == in_adj[b - 1]:
                continue
            moved = []
            for p, q in ((a, b), (b, a)):
                # the swap sends p to q, and a neighbour of p, never p
                # itself, to p if it is q and to itself otherwise; an arc
                # stays when that image is q's neighbour, and each list is
                # sorted, so its first moved arc is its least
                q_out, q_in = set(out_adj[q - 1]), set(in_adj[q - 1])
                for y in out_adj[p - 1]:
                    if (p if y == q else y) not in q_out:
                        moved.append((p, y))
                        break
                for x in in_adj[p - 1]:
                    if (p if x == q else x) not in q_in:
                        moved.append((x, p))
                        break
            if moved:
                images = list(range(1, graph.degree + 1))
                images[a - 1], images[b - 1] = b, a
                return Permutation(images), min(moved)
    return None


def is_futile_fast(group: PermGroup, alpha: int, beta: int) -> bool:
    """Decide futility from orbit sizes alone, without building the graph.

    With beta inside alpha's orbit, the stabilizer orbit of beta sits in
    alpha's orbit minus alpha itself, so it has at most |alpha^H| - 1
    points; hitting that maximum is exactly the complete-digraph case.
    With beta outside, the graph is complete bipartite exactly when the
    stabilizer orbit of beta already covers beta's whole orbit.
    """
    return _fast(_pair_orbit_sizes(group, alpha, beta))


def _fast(sizes) -> bool:
    n, k, m, same_orbit = sizes
    return k == (n - 1 if same_orbit else m)


def is_futile_structural(graph: OrbitalGraph, group: PermGroup) -> FutilityVerdict:
    """Classify the built graph from its arc tails and heads.

    Arcs are never loops, so the graph is the complete digraph on one
    component exactly when tails equal heads and it has |tails|(|tails|-1)
    arcs, and complete bipartite from the tails to disjoint heads exactly
    when it has |tails||heads| arcs; the component is the union of the two
    sets. Non-futile verdicts carry the oracle's witness: the first
    adjacent transposition of an orbit cell that breaks the graph, with
    the least arc it moves off the arc set.
    """
    if graph.degree != group.degree:
        raise ValueError("graph and group degrees differ")
    tails = [x for x, adj in enumerate(graph.out_adj, 1) if adj]
    heads = [y for y, adj in enumerate(graph.in_adj, 1) if adj]
    count = sum(map(len, graph.out_adj))
    if tails == heads and count == len(tails) * (len(tails) - 1):
        return FutilityVerdict(True, SHAPE_COMPLETE, tuple(tails), None)
    if count == len(tails) * len(heads) and set(tails).isdisjoint(heads):
        return FutilityVerdict(True, SHAPE_BIPARTITE, tuple(sorted(tails + heads)), None)
    witness = _witness(graph, group)
    if witness is None:
        # the classification above says some stabilizer element breaks the
        # graph, so a generator must; reaching here means a defect
        raise RuntimeError(
            "graph classified non-futile but every orbit-partition stabilizer "
            "generator preserves its arcs"
        )
    return FutilityVerdict(False, SHAPE_NONE, None, witness)


def is_futile_oracle(graph: OrbitalGraph, group: PermGroup) -> bool:
    """Definitional test: does the orbit-partition stabilizer preserve the
    arc set? Arc preservation is closed under products and inverses, so
    checking the stabilizer's generators, the adjacent transpositions of
    each orbit cell, decides the whole group. Each is applied to the arcs
    it can move, those at its two points, so time and memory stay linear
    in the graph."""
    if graph.degree != group.degree:
        raise ValueError("graph and group degrees differ")
    return _witness(graph, group) is None


@dataclass(frozen=True)
class ArcCountBounds:
    threshold: int
    exceeds: bool


def arc_count_bounds(group: PermGroup, alpha: int, beta: int) -> ArcCountBounds:
    """Largest arc count a non-futile graph on these orbits could have;
    exceeding it is equivalent to futility.

    With n = |alpha^G|, m = |beta^G| and k = |beta^(G_alpha)| there are
    n*k arcs. In one orbit non-futile means k <= n - 2. Across orbits n*k
    = m*j with j = |alpha^(G_beta)|, and k < m forces j < n, so a
    non-futile graph has at most min(n(m - 1), m(n - 1)) arcs. A futile
    graph has n(n - 1) or n*m arcs, more than either threshold.
    """
    return _bounds(_pair_orbit_sizes(group, alpha, beta))


def _bounds(sizes) -> ArcCountBounds:
    n, k, m, same_orbit = sizes
    threshold = n * (n - 2) if same_orbit else min(n * (m - 1), m * (n - 1))
    return ArcCountBounds(threshold, n * k > threshold)


def transitive_group_futility(group: PermGroup) -> bool:
    """For a transitive group every orbital graph is futile or none is:
    futile exactly when the group is at least 2-transitive, that is when
    the stabilizer of point 1 is transitive on the other points, which is
    the fast test on the pair (1, 2). No stabilizer chain is built."""
    if not group.is_transitive():
        raise ValueError("group is not transitive")
    return group.degree > 1 and is_futile_fast(group, 1, 2)


def verdict_record(group, alpha, beta, method, graph=None) -> dict:
    """One JSON-ready verdict for a single method; see verdict_records."""
    return verdict_records(group, alpha, beta, [method], graph)[0]


def verdict_records(group, alpha, beta, methods, graph=None) -> list[dict]:
    """JSON-ready verdicts of the given methods on one base pair.

    Shapes for the fast and oracle methods come from the case split: a
    futile pair with beta in alpha's orbit (equivalently a self-paired
    futile graph) is the complete case, any other futile pair the bipartite
    one. The oracle shares the structural test's witness search, so it
    reuses a witness that test found; after a futile structural verdict,
    which needs no search, or without one, it searches on its own.
    """
    if unknown := [m for m in methods if m not in METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}")
    sizes = _pair_orbit_sizes(group, alpha, beta)
    n, k, _, same_orbit = sizes
    bounds = _bounds(sizes)
    records, found = [], None
    for method in methods:
        witness, shape = None, SHAPE_NONE
        if method == "fast":
            futile = _fast(sizes)
            arc_count = n * k
        else:
            if graph is None:
                graph = build_orbital_graph(group, alpha, beta)
            arc_count = sum(map(len, graph.out_adj))
            if method == "structural":
                v = is_futile_structural(graph, group)
                futile, shape, witness = v.futile, v.shape, v.witness
                found = witness
            else:
                witness = found or _witness(graph, group)
                futile = witness is None
        if futile and method != "structural":
            shape = SHAPE_COMPLETE if same_orbit else SHAPE_BIPARTITE
        records.append({
            "base_pair": [alpha, beta],
            "futile": futile,
            "shape": shape,
            "method": method,
            "witness": None
            if witness is None
            else {
                "permutation_cycles": witness[0].cycle_string(),
                "violated_arc": list(witness[1]),
            },
            "arc_count": arc_count,
            "thresholds": {"threshold": bounds.threshold, "exceeds": bounds.exceeds},
        })
    return records
