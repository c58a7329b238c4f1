"""Reference computations the output checks compare against.

They work on image tuples and never call the library, so a defect in the
library's stabilizer chain or refiner cannot hide itself.
"""

from __future__ import annotations

from collections import deque


def _mul(p, q):
    """p acts first: (p*q)(x) = q(p(x))."""
    return tuple(q[x - 1] for x in p)


def _inv(p):
    out = [0] * len(p)
    for x, y in enumerate(p, start=1):
        out[y - 1] = x
    return tuple(out)


def orbits(degree: int, gens) -> list[frozenset[int]]:
    seen, out = set(), []
    for start in range(1, degree + 1):
        if start in seen:
            continue
        orb, queue = {start}, deque([start])
        while queue:
            x = queue.popleft()
            for g in gens:
                y = g[x - 1]
                if y not in orb:
                    orb.add(y)
                    queue.append(y)
        seen |= orb
        out.append(frozenset(orb))
    return out


def stabilizer_generators(degree: int, gens, point: int) -> set[tuple[int, ...]]:
    """Schreier generators u_x * s * u_{x^s}^-1 of the stabilizer of point,
    from one orbit transversal (Schreier's lemma)."""
    ident = tuple(range(1, degree + 1))
    trans, queue = {point: ident}, deque([point])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = g[x - 1]
            if y not in trans:
                trans[y] = _mul(trans[x], g)
                queue.append(y)
    out = set()
    for x, u in trans.items():
        for g in gens:
            h = _mul(_mul(u, g), _inv(trans[g[x - 1]]))
            if h != ident:
                out.add(h)
    return out


def stabilizer_orbits(degree: int, gens, point: int) -> list[frozenset[int]]:
    return orbits(degree, list(stabilizer_generators(degree, gens, point)))


def orbital_count(degree: int, gens) -> int:
    """Number of orbital graphs: for each orbit representative alpha, the
    orbits of alpha's stabilizer other than {alpha}."""
    total = 0
    for orb in orbits(degree, gens):
        alpha = min(orb)
        total += len(stabilizer_orbits(degree, gens, alpha)) - 1
    return total


def elements(degree: int, gens) -> set[tuple[int, ...]]:
    """Every group element, by closing the generators under products. Only
    for small groups."""
    ident = tuple(range(1, degree + 1))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def equitable_defect(cells, arcs) -> str | None:
    """None when every vertex of a cell has the same number of out-arcs
    into, and in-arcs from, each cell; otherwise a description."""
    where = {v: k for k, cell in enumerate(cells) for v in cell}
    out_counts: dict[tuple[int, int], int] = {}
    in_counts: dict[tuple[int, int], int] = {}
    for x, y in arcs:
        out_counts[x, where[y]] = out_counts.get((x, where[y]), 0) + 1
        in_counts[y, where[x]] = in_counts.get((y, where[x]), 0) + 1
    for cell in cells:
        for counts, kind in ((out_counts, "out"), (in_counts, "in")):
            for k in range(len(cells)):
                values = {counts.get((v, k), 0) for v in cell}
                if len(values) > 1:
                    return f"cell {cell} has unequal {kind}-degrees into cell {k}"
    return None
