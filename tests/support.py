"""Brute-force reference computations, reference checks on built graphs,
groups of known order built from formulas, and hypothesis strategies.

The brute functions enumerate group elements outright, so they stay
independent of the stabilizer-chain machinery they are used to check.
"""

import re
from collections import deque
from math import factorial

import hypothesis.strategies as st

from orbgraph import futility
from orbgraph.orbital import weak_components
from orbgraph.perm import (
    _ChainLevel,
    OrderedPartition,
    PermGroup,
    Permutation,
    parse_cycles,
)
from orbgraph.refine import RefinementTrace


def exactly(message: str) -> str:
    """A pytest.raises match pattern that accepts message and nothing else."""
    return f"^{re.escape(message)}\\Z"


def group_from(degree, *cycles) -> PermGroup:
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycles])


def group_from_maps(degree, *maps) -> PermGroup:
    """Group generated by point maps, each a function on 1..degree."""
    return PermGroup(
        degree, [Permutation([f(x) for x in range(1, degree + 1)]) for f in maps]
    )


def symmetric_group(n) -> PermGroup:
    """S_n from the transposition (1,2) and the n-cycle (1,2,...,n)."""
    return group_from_maps(n, lambda x: {1: 2, 2: 1}.get(x, x), lambda x: x % n + 1)


def alternating_group(n) -> PermGroup:
    """A_n for odd n >= 3 from (1,2,3) and the n-cycle, which is even."""
    assert n % 2 == 1 and n >= 3
    return group_from_maps(n, lambda x: {1: 2, 2: 3, 3: 1}.get(x, x), lambda x: x % n + 1)


def dihedral_group(n) -> PermGroup:
    """Symmetries of the n-gon with vertices 1..n: a rotation and a
    reflection."""
    return group_from_maps(n, lambda x: x % n + 1, lambda x: n + 1 - x)


def pgl2_group(p, a) -> PermGroup:
    """PGL(2,p) on the projective line, point k+1 standing for k in GF(p)
    and point p+1 for infinity, from x -> x+1, x -> a*x (a a primitive root
    mod p) and x -> -1/x."""
    inf = p

    def on_line(f):
        return lambda x: f(x - 1) + 1

    translate = on_line(lambda k: k if k == inf else (k + 1) % p)
    scale = on_line(lambda k: k if k == inf else a * k % p)
    invert = on_line(lambda k: 0 if k == inf else inf if k == 0 else -pow(k, -1, p) % p)
    return group_from_maps(p + 1, translate, scale, invert)


def pgl2(p) -> PermGroup:
    """PGL(2,p) scaled by the least primitive root mod p."""
    a = next(a for a in range(2, p) if len({pow(a, k, p) for k in range(p - 1)}) == p - 1)
    return pgl2_group(p, a)


def cyclic_group(n) -> PermGroup:
    """C_n acting regularly on 1..n, generated by the n-cycle."""
    return group_from_maps(n, lambda x: x % n + 1)


def wreath_group(m, k) -> PermGroup:
    """Imprimitive S_m wr S_k on m*k points in k blocks of m consecutive
    points: S_m on the first block, from (1,2) and its m-cycle, and S_k
    permuting whole blocks, from the swap of the first two and the shift."""
    n = m * k
    return group_from_maps(
        n,
        lambda x: {1: 2, 2: 1}.get(x, x),
        lambda x: x % m + 1 if x <= m else x,
        lambda x: x + m if x <= m else x - m if x <= 2 * m else x,
        lambda x: (x + m - 1) % n + 1,
    )


def product_action_group(m, k) -> PermGroup:
    """S_m x S_k in product action on the m x k grid, point (i, j) with
    0 <= i < m and 0 <= j < k numbered i*k + j + 1; each factor acts on its
    coordinate through a transposition and a full cycle."""

    def on_grid(f, g):
        return lambda x: f((x - 1) // k) * k + g((x - 1) % k) + 1

    def swap(i):
        return {0: 1, 1: 0}.get(i, i)

    def same(i):
        return i

    return group_from_maps(
        m * k,
        on_grid(swap, same),
        on_grid(lambda i: (i + 1) % m, same),
        on_grid(same, swap),
        on_grid(same, lambda j: (j + 1) % k),
    )


def disjoint_symmetric_groups(a, b) -> PermGroup:
    """S_a x S_b on the two orbits {1..a} and {a+1..a+b}, each factor from
    a transposition and a full cycle of its orbit."""
    return group_from_maps(
        a + b,
        lambda x: {1: 2, 2: 1}.get(x, x),
        lambda x: x % a + 1 if x <= a else x,
        lambda x: {a + 1: a + 2, a + 2: a + 1}.get(x, x),
        lambda x: x if x <= a else (x - a) % b + a + 1,
    )


def block_preserving_group(rng, degree, ngens, nblocks) -> PermGroup:
    """ngens random permutations that each map every block of one random
    system of nblocks blocks onto itself, relabelled by one random
    permutation of the points. Orbits lie inside blocks, so larger
    degrees keep many orbits and both futility verdicts."""
    cuts = [0] + sorted(rng.sample(range(1, degree), nblocks - 1)) + [degree]
    labels = list(range(1, degree + 1))
    rng.shuffle(labels)
    blocks = [labels[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    gens = []
    for _ in range(ngens):
        images = [0] * degree
        for block in blocks:
            for x, y in zip(block, rng.sample(block, len(block))):
                images[x - 1] = y
        gens.append(Permutation(images))
    return PermGroup(degree, gens)


def all_elements(group) -> set[Permutation]:
    """Every element, by closure of the generators under products."""
    ident = Permutation.identity(group.degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in group.generators:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def brute_orbit(elements, point) -> tuple[int, ...]:
    return tuple(sorted({e.apply(point) for e in elements}))


def brute_stabilizer(elements, point) -> set[Permutation]:
    return {e for e in elements if e.apply(point) == point}


def brute_arcs(elements, alpha, beta) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(e.apply(alpha), e.apply(beta)) for e in elements}))


def burnside_block_counts(group) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Burnside's lemma on each orbit block O_i x O_j, from every element
    and no stabilizer: keyed by the least points of O_i and O_j, the
    number of orbitals in the block, the diagonal left out when i = j;
    the number of those that are self-paired, which only a block with
    i = j holds; and the number of pairs in the block, |O_i||O_j| less
    the |O_i| of the diagonal when i = j, which its orbitals' arcs share.

    With fix_i(g) the points of O_i that g fixes, g fixes fix_i(g)
    fix_j(g) pairs of the block, so the block holds (1/|G|) sum_g
    fix_i(g) fix_j(g) orbitals. An orbital holding (x, y) is self-paired
    exactly when some g swaps x and y, and then g^2 fixes x; counting
    those g shows that O_i x O_i holds (1/|G|) sum_g fix_i(g^2)
    self-paired orbitals, the diagonal included.
    """
    elements = all_elements(group)
    orbits = sorted({brute_orbit(elements, x) for x in range(1, group.degree + 1)})
    r = len(orbits)
    pair_sums = [[0] * r for _ in range(r)]
    square_sums = [0] * r
    for e in elements:
        im = e.images
        fixed = [sum(im[x - 1] == x for x in orbit) for orbit in orbits]
        for i, orbit in enumerate(orbits):
            square_sums[i] += sum(im[im[x - 1] - 1] == x for x in orbit)
            for j in range(r):
                pair_sums[i][j] += fixed[i] * fixed[j]
    order = len(elements)
    return {
        (orbits[i][0], orbits[j][0]): (
            pair_sums[i][j] // order - (i == j),
            square_sums[i] // order - 1 if i == j else 0,
            len(orbits[i]) * (len(orbits[j]) - (i == j)),
        )
        for i in range(r)
        for j in range(r)
    }


def partition_stabilizer_generators(partition: OrderedPartition) -> list[Permutation]:
    """Adjacent transpositions within each cell.

    Together they generate the direct product of the full symmetric groups
    on the cells, which is the stabilizer of the ordered partition inside
    the symmetric group on the whole domain.
    """
    gens = []
    n = partition.degree
    for cell in partition.cells:
        for a, b in zip(cell, cell[1:]):
            images = list(range(1, n + 1))
            images[a - 1], images[b - 1] = b, a
            gens.append(Permutation._unchecked(tuple(images)))
    return gens


def find_arc_violation(graph, gens):
    """First generator that moves some arc to a non-arc, with that arc.

    Generators are scanned in the given order and arcs lexicographically,
    so the witness is deterministic. A bijection maps the finite arc set
    into itself only by mapping it onto itself, so one forward sweep over
    the arcs decides preservation.
    """
    arcs = graph.arcs
    arc_set = set(arcs)
    for g in gens:
        im = g.images
        for x, y in arcs:
            if (im[x - 1], im[y - 1]) not in arc_set:
                return g, (x, y)
    return None


def brute_futile(graph, group) -> bool:
    """Definitional check over every element of the orbit-partition
    stabilizer, not just its generators."""
    stab = PermGroup(
        graph.degree, partition_stabilizer_generators(group.orbit_partition())
    )
    arcs = set(graph.arcs)
    for e in all_elements(stab):
        for x, y in arcs:
            if (e.apply(x), e.apply(y)) not in arcs:
                return False
    return True


def reference_records(group, alpha, beta, methods, graph=None) -> list[dict]:
    """verdict_records built as dicts from the verdict tuples, with no
    JSON text in between, so the library's text can be checked against it.
    A witness swaps the adjacent points (a, b) of a cell, so its cycles
    read "(a,b)"."""
    methods, graph, sizes = futility._checked_pair(group, alpha, beta, methods, graph)
    threshold, exceeds = futility._bounds(sizes)
    records = []
    for method, futile, shape, witness, arc_count in futility._pair_verdicts(
        group, (alpha, beta), methods, graph, sizes
    ):
        if witness is not None:
            (a, b), arc = witness
            witness = {"permutation_cycles": f"({a},{b})", "violated_arc": list(arc)}
        records.append({
            "base_pair": [alpha, beta],
            "futile": futile,
            "shape": shape,
            "method": method,
            "witness": witness,
            "arc_count": arc_count,
            "thresholds": {"threshold": threshold, "exceeds": exceeds},
        })
    return records


def brute_transitivity_degree(elements, degree) -> int:
    """Largest k with a single orbit on k-tuples of distinct points."""
    k = 0
    while k < degree:
        base = tuple(range(1, k + 2))
        orbit = {tuple(e.apply(p) for p in base) for e in elements}
        if len(orbit) != factorial(degree) // factorial(degree - k - 1):
            break
        k += 1
    return k


def _words(gens, root, degree) -> dict[int, Permutation]:
    """Map each point x of root's orbit under gens to a product u of gens
    with root^u = x, breadth first."""
    words = {root: Permutation.identity(degree)}
    queue = [root]
    for x in queue:
        for s in gens:
            y = s.apply(x)
            if y not in words:
                words[y] = words[x] * s
                queue.append(y)
    return words


def arc_mapping_element(group, source, target) -> Permutation | None:
    """A group element sending the ordered pair source to target, or None.

    Found in two steps: an element u with source[0]^u = target[0], then an
    element w of source[0]'s stabilizer moving source[1] onto the preimage
    of target[1] under u. The product w * u does both.
    """
    (a, b), (c, d) = source, target
    u = _words(group.generators, a, group.degree).get(c)
    if u is None:
        return None
    stab = group.point_stabilizer(a)
    w = _words(stab.generators, b, group.degree).get(u.inverse().apply(d))
    return None if w is None else w * u


def components_pairwise_isomorphic(graph, group) -> bool:
    """Verify that an explicit group element carries the base-pair component
    onto every other component with at least two vertices.

    The element maps the base pair onto an arc of the target component; it
    acts as a graph automorphism, so its image of the base component must
    be exactly the target component.
    """
    if graph.degree != group.degree:
        raise ValueError("graph and group degrees differ")
    comps = [c for c in weak_components(graph).cells if len(c) > 1]
    base = next(c for c in comps if graph.base_pair[0] in c)
    for comp in comps:
        if comp == base:
            continue
        members = set(comp)
        arc = next(a for a in graph.arcs if a[0] in members)
        h = arc_mapping_element(group, graph.base_pair, arc)
        if h is None or {h.apply(v) for v in base} != members:
            return False
    return True


def individualised(partition, point):
    """The partition with point split off in front of the rest of its cell."""
    cells = []
    for cell in partition.cells:
        if point in cell:
            cells.append((point,))
            cells.append(tuple(p for p in cell if p != point))
        else:
            cells.append(cell)
    return OrderedPartition(partition.degree, [c for c in cells if c])


def dense_refine(partition, graph) -> RefinementTrace:
    """The dense signature refiner, kept as the reference for
    refine_by_graph's cells as sets and its split count: every round signs
    every vertex of every cell with a width-|cells| vector. Its cell order
    and rounds are its own."""
    if partition.degree != graph.degree:
        raise ValueError("partition and graph degrees differ")
    cells = list(partition.cells)
    rounds = 0
    while True:
        rounds += 1
        index = {}
        for k, cell in enumerate(cells):
            for p in cell:
                index[p] = k
        width = len(cells)

        def signature(v):
            out = [0] * width
            inn = [0] * width
            for w in graph.out_adj[v - 1]:
                out[index[w]] += 1
            for w in graph.in_adj[v - 1]:
                inn[index[w]] += 1
            return tuple(zip(out, inn))

        new_cells = []
        changed = False
        for cell in cells:
            buckets: dict[tuple, list[int]] = {}
            for v in cell:
                buckets.setdefault(signature(v), []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(tuple(buckets[sig]))
        if not changed:
            break
        cells = new_cells
    output = OrderedPartition(partition.degree, cells)
    return RefinementTrace(
        graph.base_pair,
        partition,
        output,
        rounds,
        len(output.cells) - len(partition.cells),
    )


def reference_sift(levels, h: Permutation, start: int = 0):
    """Divide transversal elements off h from level start down, until h
    escapes a transversal or has passed every level. Returns the residue
    and the index of the level it stopped at. A level whose point h fixes
    is passed without multiplying, since its representative is the
    identity.

    Kept as the reference for perm._sift, in Permutation arithmetic with
    one inverse per division and no early stop at the identity."""
    for i in range(start, len(levels)):
        lvl = levels[i]
        x = h.images[lvl.point - 1]
        if x == lvl.point:
            continue
        u = lvl.transversal.get(x)
        if u is None:
            return h, i
        h = h * u.inverse()
    return h, len(levels)


def reference_chain(degree: int, generators) -> list[_ChainLevel]:
    """Deterministic incremental Schreier-Sims with the fixed base
    1, 2, ..., degree, kept as the reference for perm._build_chain: the
    same worklist order, in Permutation arithmetic, so that both give the
    same transversals and strong generators in the same order."""
    ident = Permutation.identity(degree)
    levels = [_ChainLevel(p, {p: ident}) for p in range(1, degree + 1)]
    stack: list[tuple[int, Permutation]] = []

    def add(i, h):
        levels[i].gens.append(h)
        stack.extend((i, u * h) for u in levels[i].transversal.values())

    for g in generators:
        if reference_sift(levels, g)[1] < degree:
            add(0, g)
        while stack:
            i, w = stack.pop()
            lvl = levels[i]
            x = w.images[lvl.point - 1]
            u = lvl.transversal.get(x)
            if u is None:
                lvl.transversal[x] = w
                stack.extend((i, w * s) for s in lvl.gens)
            elif u != w:  # else a trivial Schreier generator, as on every tree edge
                h, m = reference_sift(levels, w * u.inverse(), i + 1)
                if m < degree:
                    add(i + 1, h)
    return levels


def reference_stabilizer_generators(group, point) -> list[Permutation]:
    """Schreier generators of a point stabilizer from a breadth-first tree
    of Permutations, every product formed, identities and repeats
    dropped: the reference for PermGroup.point_stabilizer's generators
    and their order."""
    # breadth first, so that each u_x is a shortest word in the generators
    tree = {point: Permutation.identity(group.degree)}
    queue = deque([point])
    while queue:
        x = queue.popleft()
        ux = tree[x]
        for s in group.generators:
            y = s.images[x - 1]
            if y not in tree:
                tree[y] = ux * s
                queue.append(y)
    gens: dict[Permutation, None] = {}
    for x, ux in tree.items():
        for s in group.generators:
            us, uy = ux * s, tree[s.images[x - 1]]
            if us != uy:
                gens.setdefault(us * uy.inverse())
    return list(PermGroup(group.degree, gens).generators)


def permutations_st(min_degree=1, max_degree=8):
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(Permutation)


def groups_st(min_degree=2, max_degree=7, max_generators=3):
    def build(degree):
        one = st.permutations(list(range(1, degree + 1))).map(Permutation)
        return st.lists(one, min_size=1, max_size=max_generators).map(
            lambda gens: PermGroup(degree, gens)
        )

    return st.integers(min_degree, max_degree).flatmap(build)


def base_pairs_of(group):
    n = group.degree
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
