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

import weakref
from dataclasses import dataclass

from .orbital import OrbitalGraph, _pair_orbit_sizes, build_orbital_graph
from .perm import PermGroup, Permutation, partition_stabilizer_generators

SHAPE_COMPLETE = "complete-on-orbit"
SHAPE_BIPARTITE = "complete-bipartite"
SHAPE_NONE = "not-futile"

METHODS = ("fast", "structural", "oracle")


@dataclass(frozen=True)
class FutilityVerdict:
    """Outcome of the structural test: the shape found, the component it
    lives on, and for non-futile graphs a witness (g, arc) where g is an
    orbit-partition stabilizer generator moving arc off the arc set."""

    futile: bool
    shape: str
    component: tuple[int, ...] | None
    witness: tuple[Permutation, tuple[int, int]] | None


def find_arc_violation(graph: OrbitalGraph, gens):
    """First generator that moves some arc to a non-arc, with that arc.

    Generators are scanned in the given order and arcs lexicographically,
    so the witness is deterministic. A bijection maps the finite arc set
    into itself only by mapping it onto itself, so one forward sweep over
    the arcs decides preservation.
    """
    for g in gens:
        im = g.images
        for x, y in graph.arcs:
            if (im[x - 1], im[y - 1]) not in graph.arc_set:
                return g, (x, y)
    return None


# each group's orbit-partition stabilizer generators, dropped with the group
_stabilizer_gens = weakref.WeakKeyDictionary()


def _witness(graph: OrbitalGraph, group: PermGroup):
    """find_arc_violation over the group's orbit-partition stabilizer
    generators, built on its first search; a racing thread at worst builds
    an equal list."""
    gens = _stabilizer_gens.get(group)
    if gens is None:
        gens = partition_stabilizer_generators(group.orbit_partition())
        _stabilizer_gens[group] = gens
    return find_arc_violation(graph, gens)


def is_futile_fast(group: PermGroup, alpha: int, beta: int) -> bool:
    """Decide futility from orbit sizes alone, without building the graph.

    With beta inside alpha's orbit, the stabilizer orbit of beta sits in
    alpha's orbit minus alpha itself, so it has at most |alpha^H| - 1
    points; hitting that maximum is exactly the complete-digraph case.
    With beta outside, the graph is complete bipartite exactly when the
    stabilizer orbit of beta already covers beta's whole orbit.
    """
    n, k, m, same_orbit = _pair_orbit_sizes(group, alpha, beta)
    return k == (n - 1 if same_orbit else m)


def is_futile_structural(graph: OrbitalGraph, group: PermGroup) -> FutilityVerdict:
    """Classify the built graph from its sets of arc tails and heads.

    Arcs are never loops, so the graph is the complete digraph on one
    component exactly when tails equal heads and it has |tails|(|tails|-1)
    arcs, and complete bipartite from the tails to disjoint heads exactly
    when it has |tails||heads| arcs; the component is the union of the two
    sets. Non-futile verdicts carry a deterministic witness.
    """
    if graph.degree != group.degree:
        raise ValueError("graph and group degrees differ")
    tails = {x for x, _ in graph.arcs}
    heads = {y for _, y in graph.arcs}
    count = len(graph.arcs)
    if tails == heads and count == len(tails) * (len(tails) - 1):
        return FutilityVerdict(True, SHAPE_COMPLETE, tuple(sorted(tails)), None)
    if not tails & heads and count == len(tails) * len(heads):
        return FutilityVerdict(True, SHAPE_BIPARTITE, tuple(sorted(tails | heads)), None)
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
    checking the stabilizer's generators decides the whole group."""
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
    """One JSON-ready verdict for a single method.

    Shapes for the fast and oracle methods come from the case split: a
    futile pair with beta in alpha's orbit (equivalently a self-paired
    futile graph) is the complete case, any other futile pair the bipartite
    one. The oracle's verdict and witness come from the same witness search
    as the structural test's.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    sizes = _pair_orbit_sizes(group, alpha, beta)
    n, k, _, same_orbit = sizes
    bounds = _bounds(sizes)
    witness, shape = None, SHAPE_NONE
    if method == "fast":
        futile = is_futile_fast(group, alpha, beta)
        arc_count = n * k
    else:
        if graph is None:
            graph = build_orbital_graph(group, alpha, beta)
        arc_count = len(graph.arcs)
        if method == "structural":
            v = is_futile_structural(graph, group)
            futile, shape, witness = v.futile, v.shape, v.witness
        else:
            witness = _witness(graph, group)
            futile = witness is None
    if futile and method != "structural":
        shape = SHAPE_COMPLETE if same_orbit else SHAPE_BIPARTITE
    return {
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
    }
