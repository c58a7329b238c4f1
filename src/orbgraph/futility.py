"""Three independent tests for whether an orbital graph is futile.

A graph is futile when the stabilizer of the group's ordered orbit
partition, the direct product of full symmetric groups on the orbits,
already acts on it by graph automorphisms. Such a graph can never split an
orbit cell, so a refiner gains nothing by building it. An orbital graph's
tails fill one orbit and its heads fill one orbit, so it is futile exactly
when its arc set is the complete digraph on its tails, or is tails x heads
with the two disjoint. The three tests here decide that from the orbit
sizes of the base pair, from the built graph's tails and heads, and from
the definition directly, and each answers with a bool. A verdict's shape
and witness are read from its record, as verdict_records makes it.
"""

from __future__ import annotations

import json
from itertools import compress, pairwise

from .orbital import (
    OrbitalGraph,
    _orbit_sizes,
    build_orbital_graph,
    check_base_pair,
)
from .perm import PermGroup

SHAPE_COMPLETE = "complete-on-orbit"
SHAPE_BIPARTITE = "complete-bipartite"
SHAPE_NONE = "not-futile"

METHODS = ("fast", "structural", "oracle")


def _witness(graph: OrbitalGraph, group: PermGroup):
    """First adjacent transposition (a, b) of an orbit cell, in cell order,
    that moves some arc off the arc set, as ((a, b), arc) with the least
    such arc; a < b, since cells are ascending.

    These transpositions generate the orbit-partition stabilizer, and one
    fixes every arc that avoids a and b, so only the arcs at a or b are
    read. When a and b have equal neighbour lists they are not neighbours,
    since arcs are never loops, and the swap fixes the graph.
    """
    out_adj, in_adj = graph.out_adj, graph.in_adj
    for cell in group.orbit_partition().cells:
        for a, b in pairwise(cell):
            # == reads every entry of two tuples even when they are one
            # object, as the lists of a batch-built complete bipartite
            # graph are, so identity is tried first
            oa, ob, ia, ib = out_adj[a - 1], out_adj[b - 1], in_adj[a - 1], in_adj[b - 1]
            if (oa is ob or oa == ob) and (ia is ib or ia == ib):
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
                return (a, b), min(moved)
    return None


def _required_witness(graph: OrbitalGraph, group: PermGroup):
    """The witness of a graph the structural test classified non-futile."""
    witness = _witness(graph, group)
    if witness is None:
        # the classification says some stabilizer element breaks the graph,
        # so a generator must; reaching here means a defect
        raise RuntimeError(
            "graph classified non-futile but every orbit-partition stabilizer "
            "generator preserves its arcs"
        )
    return witness


def is_futile_fast(group: PermGroup, alpha: int, beta: int) -> bool:
    """Decide futility from orbit sizes alone, without building the graph.

    With beta inside alpha's orbit, the stabilizer orbit of beta sits in
    alpha's orbit minus alpha itself, so it has at most |alpha^H| - 1
    points; hitting that maximum is exactly the complete-digraph case.
    With beta outside, the graph is complete bipartite exactly when the
    stabilizer orbit of beta already covers beta's whole orbit.
    """
    check_base_pair(group.degree, alpha, beta)
    return _fast(_orbit_sizes(group, alpha, beta))


def _fast(sizes) -> bool:
    n, k, m, same_orbit = sizes
    return k == (n - 1 if same_orbit else m)


def is_futile_structural(graph: OrbitalGraph, group: PermGroup) -> bool:
    """Decide futility by classifying the built graph from its arc tails
    and heads.

    Arcs are never loops, so the graph is the complete digraph on its
    tails exactly when tails equal heads and it has |tails|(|tails|-1)
    arcs, and complete bipartite from the tails to disjoint heads exactly
    when it has |tails||heads| arcs. Either is futile when the tails, and
    for the bipartite shape the heads too, are unions of whole orbits, as
    an orbital graph's always are. A graph of neither shape is checked to
    have the oracle's witness, an adjacent transposition of an orbit cell
    that moves some arc off the arc set; the shape and the witness are in
    the graph's structural verdict record. A futile graph of any other
    shape, such as O1 x O2 with O2 x O1 for orbits O1 and O2, which no
    base pair builds, has no witness, and raises RuntimeError.
    """
    _check_graph(graph, group)
    if _shape(graph, group, sum(map(len, graph.out_adj))) != SHAPE_NONE:
        return True
    _required_witness(graph, group)
    return False


def _shape(graph: OrbitalGraph, group: PermGroup, count: int) -> str:
    """The structural test's shape of a graph with count arcs. Its tails
    and heads are the points with a non-empty out- or in-list, each
    listed by one C-level pass. Once the arc count fits a shape, the
    tails, and for the bipartite shape the heads, must be unions of whole
    orbits; an arc-free graph is the complete digraph on no points."""
    points = range(1, graph.degree + 1)
    tails = list(compress(points, graph.out_adj))
    heads = list(compress(points, graph.in_adj))
    if tails == heads and count == len(tails) * (len(tails) - 1):
        if _whole_orbits(group, tails):
            return SHAPE_COMPLETE
    elif count == len(tails) * len(heads) and set(tails).isdisjoint(heads):
        if _whole_orbits(group, tails) and _whole_orbits(group, heads):
            return SHAPE_BIPARTITE
    return SHAPE_NONE


def _whole_orbits(group: PermGroup, points) -> bool:
    """Whether the ascending points are a union of whole orbits: none, or
    one orbit, as an orbital graph's tails and heads are, or else orbits
    that, one tuple each, hold no more points than they do."""
    orbit_of = group._orbit_of
    if not points or orbit_of[points[0]] == tuple(points):
        return True
    cells = list(map(orbit_of.__getitem__, points))
    return sum(dict(zip(map(id, cells), map(len, cells))).values()) == len(points)


def is_futile_oracle(graph: OrbitalGraph, group: PermGroup) -> bool:
    """Definitional test: does the orbit-partition stabilizer preserve the
    arc set? Arc preservation is closed under products and inverses, so
    checking the stabilizer's generators, the adjacent transpositions of
    each orbit cell, decides the whole group. Each is applied to the arcs
    it can move, those at its two points, so time and memory stay linear
    in the graph."""
    _check_graph(graph, group)
    return _witness(graph, group) is None


def _check_graph(graph, group: PermGroup) -> None:
    if not isinstance(graph, OrbitalGraph):
        raise ValueError(f"graph must be an OrbitalGraph, not {type(graph).__name__}")
    if graph.degree != group.degree:
        raise ValueError("graph and group degrees differ")


def _bounds(sizes) -> tuple[int, bool]:
    """The largest arc count a non-futile graph on the pair's orbits could
    have, and whether the pair's graph exceeds it; exceeding it is
    equivalent to futility.

    With n = |alpha^G|, m = |beta^G| and k = |beta^(G_alpha)| there are
    n*k arcs. In one orbit non-futile means k <= n - 2. Across orbits n*k
    = m*j with j = |alpha^(G_beta)|, and k < m forces j < n, so a
    non-futile graph has at most min(n(m - 1), m(n - 1)) arcs. A futile
    graph has n(n - 1) or n*m arcs, more than either threshold.
    """
    n, k, m, same_orbit = sizes
    threshold = n * (n - 2) if same_orbit else min(n * (m - 1), m * (n - 1))
    return threshold, n * k > threshold


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

    Only the fast test decides from orbit arithmetic, so only it reads
    alpha's stabilizer; the structural test and the oracle read the graph.
    A set without the fast method builds the pair's graph by closure,
    once, unless one is given, and reads |beta^(G_alpha)| off its
    out-degree at alpha, so it builds no stabilizer. With the fast method
    the stabilizer gives |beta^(G_alpha)|, so that the fast verdict stays
    independent of the graph. A given graph must be the pair's: of the
    group's degree, with the pair as an arc. Otherwise ValueError, as for
    a bad pair or method. The pair is checked once, by the closure when it
    builds the graph.

    The records are the CLI's JSON for the pair, parsed: one format
    serves both, and no two records share a dict or list.
    """
    methods, graph, sizes = _checked_pair(group, alpha, beta, methods, graph)
    verdicts = _pair_verdicts(group, methods, graph, sizes)
    return json.loads(_verdicts_json([(alpha, beta)], [sizes], [verdicts]))


def _checked_pair(group, alpha, beta, methods, graph):
    """Check the methods, the pair and a given graph as verdict_records
    does, and return the methods as a tuple, read once, so that an
    iterator serves every later read too; the graph the methods read,
    built by closure when one is needed and none is given; and the pair's
    orbit sizes."""
    try:
        methods = tuple(methods)
    except TypeError:
        raise ValueError("methods must be an iterable of method names") from None
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}")
    if graph is None and any(m != "fast" for m in methods):
        graph = build_orbital_graph(group, alpha, beta)
    else:
        check_base_pair(group.degree, alpha, beta)
        if graph is not None:
            _check_graph(graph, group)
            if not graph.has_arc(alpha, beta):
                raise ValueError(f"base pair ({alpha},{beta}) is not an arc of the graph")
    k = None if graph is None or "fast" in methods else len(graph.out_adj[alpha - 1])
    return methods, graph, _orbit_sizes(group, alpha, beta, k)


# one verdict record as json.dumps writes it: every string in it is a
# fixed ASCII name or a witness's "(a,b)"
_RECORD = (
    '{"base_pair": [%d, %d], "futile": %s, "shape": "%s", "method": "%s", '
    '"witness": %s, "arc_count": %d, "thresholds": {"threshold": %d, "exceeds": %s}}'
)
_WITNESS = '{"permutation_cycles": "(%d,%d)", "violated_arc": [%d, %d]}'
_JSON_BOOL = {False: "false", True: "true"}


def _verdicts_json(pairs, sizes_of, verdicts_of) -> str:
    """Each pair's verdicts, in order, as a JSON list of verdict records:
    a witness ((a, b), arc) swaps the adjacent points a and b of a
    cell, so its cycles read "(a,b)". The text is byte for byte what
    json.dumps writes of the records, made with one template per record
    and no dict."""
    parts = []
    for (alpha, beta), sizes, verdicts in zip(pairs, sizes_of, verdicts_of):
        threshold, exceeds = _bounds(sizes)
        exceeds = _JSON_BOOL[exceeds]
        for method, futile, shape, witness, arc_count in verdicts:
            if witness is not None:
                (a, b), (x, y) = witness
                witness = _WITNESS % (a, b, x, y)
            parts.append(_RECORD % (
                alpha, beta, _JSON_BOOL[futile], shape, method,
                witness or "null", arc_count, threshold, exceeds,
            ))
    return "[" + ", ".join(parts) + "]"


def _pair_verdicts(group, methods, graph, sizes) -> list[tuple]:
    """Each method's verdict on a pair's graph and orbit sizes, none of
    which is checked, as (method, futile, shape, witness, arc_count): a
    witness is ((a, b), arc), as _witness finds it, or None. The graph may
    be None for the fast method alone.

    The graph's arcs are counted once. The witness search is made once
    and serves both the structural and the oracle verdict.
    """
    n, k, _, same_orbit = sizes
    arcs = None if graph is None else sum(map(len, graph.out_adj))
    verdicts, found = [], None
    for method in methods:
        witness, shape = None, SHAPE_NONE
        if method == "fast":
            futile = _fast(sizes)
        elif method == "structural":
            shape = _shape(graph, group, arcs)
            futile = shape != SHAPE_NONE
            if not futile:
                witness = found = _required_witness(graph, group)
        else:
            witness = found or _witness(graph, group)
            futile = witness is None
        if futile and method != "structural":
            shape = SHAPE_COMPLETE if same_orbit else SHAPE_BIPARTITE
        verdicts.append((method, futile, shape, witness, n * k if method == "fast" else arcs))
    return verdicts
