"""Orbital graphs: directed graphs whose arc set is the closure of a single
ordered base-pair under a permutation group, plus the queries on them that
the futility tests and the refiner need.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .perm import OrderedPartition, PermGroup, _check_point


@dataclass(frozen=True, eq=False)
class OrbitalGraph:
    """One orbital graph, stored once, as its neighbour lists.

    out_adj and in_adj are indexed by point - 1 and hold sorted neighbour
    tuples; arcs derives the lexicographically sorted arcs from out_adj.
    Built graphs always contain their base pair. A graph from
    build_orbital_graphs shares its in_adj with its reverse's out_adj.
    """

    degree: int
    base_pair: tuple[int, int]
    out_adj: tuple[tuple[int, ...], ...]
    in_adj: tuple[tuple[int, ...], ...]

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, y) for x, heads in enumerate(self.out_adj, 1) for y in heads)

    def has_arc(self, x: int, y: int) -> bool:
        """Whether (x, y) is an arc. Anything that is not an int of
        1..degree, a bool, float or str among them, is no point, so a pair
        holding one is no arc."""
        return type(x) is type(y) is int and 1 <= x <= self.degree and y in self.out_adj[x - 1]


def check_base_pair(degree: int, alpha: int, beta: int) -> None:
    _check_point(alpha, degree)
    _check_point(beta, degree)
    if alpha == beta:
        raise ValueError("base pair points must be distinct")


def build_orbital_graph(group: PermGroup, alpha: int, beta: int) -> OrbitalGraph:
    """Close {(alpha, beta)} under the group generators, breadth first on
    pairs. Forward images suffice for the same reason as in point orbits."""
    n = group.degree
    check_base_pair(n, alpha, beta)
    seen = {(alpha, beta)}
    pairs = [(alpha, beta)]  # the visit order, which grows while it is read
    for x, y in pairs:
        for t in group._tables:
            pair = (t[x], t[y])
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    # lexicographic order puts every neighbor list in ascending order as it fills
    pairs.sort()
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for x, y in pairs:
        out[x - 1].append(y)
        inn[y - 1].append(x)
    return OrbitalGraph(n, (alpha, beta), tuple(map(tuple, out)), tuple(map(tuple, inn)))


def build_orbital_graphs(group: PermGroup, pairs) -> list[OrbitalGraph]:
    """Build the graphs of a set of enumerated base pairs at once, in the
    order given, from the point stabilizers the enumeration has cached.

    Each tail must be the least point of its orbit, no two pairs may name
    one orbital, and the set must be closed under pairing: it holds the
    orbital of (beta, alpha) whenever it holds that of (alpha, beta). The
    whole enumeration and its useful subset both are, since a graph is
    futile exactly when its reverse is. Otherwise ValueError.

    Graph (r, b) has out-neighbourhood D_b = b^(G_r) at r, and D_b^g at
    r^g. So one breadth-first walk of r's orbit serves all of r's graphs:
    it carries the row (r,) + D_b1 + D_b2 + ... along, the row at y = x^s
    being the row at x mapped by s, and graph (r, b)'s out-list at x is
    its slice of the row at x, sorted. Every out-list is an ascending
    tuple. The walk writes each row into one list of the rows' columns,
    laid end to end, and drops it once it has mapped it on, so the list
    is the only copy of the rows and each column is one C-level slice.
    When D_b is b's whole orbit, as in a complete bipartite graph, every g
    maps it onto itself, so each out-list of the graph is the group's
    cell of that orbit, one tuple and no sort. Otherwise a one-point
    graph's lists are one itemgetter over its column into the call's
    tuples (p,), each shared by all graphs the call builds; a two-point
    graph orders the pairs of its two columns by one comparison each.
    Only wider slices are sorted, each row's slice in turn. The graphs
    are made last slice first, each from its own columns, which are cut
    off the end of the list once read, so the list shrinks as the graphs
    grow. When r's orbit is smaller than n, one itemgetter per tail
    spreads each graph's lists onto 1..n, a point off the orbit reading
    (). The reverse of (alpha, beta) is the graph whose slice of
    the row at beta holds alpha, with tail the least point of beta's
    orbit. A graph is the reverse of its reverse, so one lookup serves
    both. The reverse's out_adj is (alpha, beta)'s in_adj, the same
    tuple, so a self-paired graph has in_adj is out_adj.

    build_orbital_graph serves a single pair: it needs no stabilizer,
    where a stabilizer costs Theta(n^2) on a group like C_n.
    """
    n = group.degree
    orbit_of = group._orbit_of
    try:
        pairs = list(pairs)
    except TypeError:
        raise ValueError("pairs must be an iterable of pairs of points") from None
    by_tail = defaultdict(list)  # tail -> indices of its pairs
    by_head = defaultdict(list)  # least point of the head's orbit -> indices
    for i, pair in enumerate(pairs):
        try:
            alpha, beta = pair
        except (TypeError, ValueError):
            raise ValueError(f"pairs must hold pairs of points, not {pair!r}") from None
        check_base_pair(n, alpha, beta)
        if orbit_of[alpha][0] != alpha:
            raise ValueError(f"tail {alpha} is not the least point of its orbit")
        by_tail[alpha].append(i)
        by_head[orbit_of[beta][0]].append(i)
    not_closed = "pair set is not closed under pairing"
    if not by_head.keys() <= by_tail.keys():
        raise ValueError(not_closed)
    out: list = [None] * len(pairs)
    reverse: list = [None] * len(pairs)  # index of each pair's reverse
    singles = None  # shared by every one-point out-list of the call
    tables = group._tables
    for r, idx in by_tail.items():
        stab = group.point_stabilizer(r)
        orbit = orbit_of[r]
        m = len(orbit)
        at = dict(zip(orbit, range(m)))  # a point's row number
        # a point off r's orbit is no tail: it reads the () after the lists
        if m < n:
            spread = itemgetter(*map(at.get, range(1, n + 1), repeat(m, n)))
        cat = [r]
        starts = []
        for i in idx:
            starts.append(len(cat))
            cat.extend(stab._orbit_of[pairs[i][1]])
        if len(set(cat)) < len(cat):
            raise ValueError(f"two pairs with tail {r} name one orbital")
        # the rows' columns end to end, entry p of every row being the
        # column cols[p * m : (p + 1) * m]; the walk writes each row there
        # once, as cols[k::m], maps it on by every generator and drops it,
        # so this list is the only copy of the rows. A row has two or more
        # points, so itemgetter over it returns a tuple.
        cols = [None] * (m * len(cat))
        cols[::m] = cat  # row 0, as r is the least point of its orbit
        walk = deque([tuple(cat)])  # rows not yet mapped on
        while walk:
            row = walk.popleft()
            get = itemgetter(*row)
            for t in tables:
                k = at[t[row[0]]]
                if cols[k] is None:
                    cols[k::m] = image = get(t)
                    walk.append(image)
        for i in by_head.get(r, ()):
            if reverse[i] is not None:
                continue  # found as the reverse of its own reverse
            alpha, beta = pairs[i]
            try:
                pos = cols[at[beta] :: m].index(alpha)  # in beta's row
            except ValueError:
                raise ValueError(not_closed) from None
            k = idx[bisect_right(starts, pos) - 1]
            reverse[i] = k
            reverse[k] = i
        # the last slice first, so that each graph's columns are dropped
        # from the end of cols once it has read them
        ends = starts[1:] + [len(cat)]
        for i, lo, hi in zip(reversed(idx), reversed(starts), reversed(ends)):
            cell = orbit_of[pairs[i][1]]
            if hi - lo == len(cell):
                # D_b is b's whole orbit, as in a complete bipartite graph,
                # which every g maps onto itself
                lists = (cell,) * m
            elif hi - lo == 1:
                if singles is None:
                    singles = tuple(zip(range(n + 1)))  # (p,) at index p
                # r's orbit has two or more points here, since a fixed r has
                # G_r = G, whose slices are whole orbits, so itemgetter
                # returns a tuple
                lists = itemgetter(*cols[lo * m : hi * m])(singles)
            elif hi - lo == 2:
                column = zip(cols[lo * m : hi * m - m], cols[hi * m - m : hi * m])
                lists = tuple([(a, b) if a < b else (b, a) for a, b in column])
            else:
                block = cols[lo * m : hi * m]
                lists = tuple([tuple(sorted(block[k::m])) for k in range(m)])
            out[i] = lists if m == n else spread(lists + ((),))
            del cols[lo * m :]
    inn = map(out.__getitem__, reverse)
    return list(map(OrbitalGraph, repeat(n), pairs, out, inn))


def _pair_orbit_sizes(group: PermGroup, alpha: int, beta: int) -> tuple[int, int, int, bool]:
    """Check the base pair and return its orbit sizes; see _orbit_sizes."""
    check_base_pair(group.degree, alpha, beta)
    return _orbit_sizes(group, alpha, beta)


def _orbit_sizes(
    group: PermGroup, alpha: int, beta: int, k: int | None = None
) -> tuple[int, int, int, bool]:
    """|alpha^G|, |beta^(G_alpha)|, |beta^G| and whether beta lies in
    alpha's orbit, for a pair already checked: all that the fast futility
    test and a verdict record's arc count and thresholds read. A given k is
    |beta^(G_alpha)| read off the pair's graph; otherwise it comes from
    alpha's stabilizer."""
    orb_a, orb_b = group._orbit_of[alpha], group._orbit_of[beta]
    if k is None:
        k = len(group.point_stabilizer(alpha)._orbit_of[beta])
    # a group hands out one tuple per orbit, so equal orbits are one object
    return len(orb_a), k, len(orb_b), orb_b is orb_a


def is_self_paired(graph: OrbitalGraph) -> bool:
    """True when the reversed base pair is itself an arc, which makes the
    whole arc set closed under reversal."""
    alpha, beta = graph.base_pair
    return graph.has_arc(beta, alpha)


def isolated_vertices(graph: OrbitalGraph) -> tuple[int, ...]:
    lists = zip(graph.out_adj, graph.in_adj)
    return tuple(v for v, (out, inn) in enumerate(lists, 1) if not out and not inn)


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
        for v in comp:
            for w in graph.out_adj[v - 1] + graph.in_adj[v - 1]:
                if not seen[w - 1]:
                    seen[w - 1] = True
                    comp.append(w)
        (big if len(comp) > 1 else single).append(tuple(sorted(comp)))
    # the components are sorted and cover 1..n once
    return OrderedPartition._unchecked(n, tuple(big + single))


def enumerate_base_pairs(group: PermGroup) -> list[tuple[int, int]]:
    """One base pair per orbital graph, up to the group's own symmetry.

    For each orbit representative alpha (minimal point of its orbit) and
    each orbit of alpha's stabilizer on the remaining points, emit (alpha,
    minimal beta of that orbit). The arc set determines alpha (tails fill
    alpha's orbit) and beta (alpha's out-neighbourhood is beta's stabilizer
    orbit), so the emitted pairs produce pairwise distinct graphs. The
    pairs are those of _sized_base_pairs, which also yields each pair's
    orbit sizes for the fast futility test.
    """
    return [pair for pair, _ in _sized_base_pairs(group)]


def _sized_base_pairs(group: PermGroup):
    """Yield each pair of enumerate_base_pairs, in its order, with the
    sizes _pair_orbit_sizes would return for it, read off the cells the
    enumeration walks: alpha's orbit, beta's stabilizer orbit, and beta's
    orbit, which is the same tuple as alpha's when they share it."""
    orbit_of = group._orbit_of
    for cell in group.orbit_partition().cells:
        alpha = cell[0]
        # alpha's stabilizer fixes it, so alpha's own cell is (alpha,)
        for scell in group.point_stabilizer(alpha).orbit_partition().cells:
            if scell[0] != alpha:
                orb_b = orbit_of[scell[0]]
                yield (alpha, scell[0]), (len(cell), len(scell), len(orb_b), orb_b is cell)


def to_dot(graph: OrbitalGraph) -> str:
    """DOT text: isolated vertices as bare nodes, arcs in sorted order."""
    isolated = [f"  {v};" for v in isolated_vertices(graph)]
    arcs = [f"  {x} -> {y};" for x, y in graph.arcs]
    return "\n".join(["digraph orbital {", *isolated, *arcs, "}"])


def graph_to_json(graph: OrbitalGraph) -> str:
    return json.dumps(
        {
            "degree": graph.degree,
            "base_pair": list(graph.base_pair),
            "arcs": [list(a) for a in graph.arcs],
            "isolated": list(isolated_vertices(graph)),
        },
        check_circular=False,
    )

