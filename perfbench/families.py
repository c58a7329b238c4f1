"""Permutation-group families built from formulas, with their known invariants.

Everything here works on plain image lists (index x-1 holds the image of
point x), so the inputs and the expected values stay independent of the
library under test. A seed only relabels points and shuffles generator
order, which changes no invariant checked against these formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class Family:
    """One group: its generators as image lists and the values its formula
    gives. td is the transitivity degree, None for intransitive groups."""

    name: str
    degree: int
    gens: tuple[tuple[int, ...], ...]
    order: int
    td: int | None
    pairs: int
    useful: int


def _cycle(points, degree):
    images = list(range(1, degree + 1))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a - 1] = b
    return tuple(images)


def _sym_gens(degree):
    """(1,2) and (1,2,...,n)."""
    gens = {_cycle([1, 2], degree), _cycle(list(range(1, degree + 1)), degree)}
    return sorted(gens)


def symmetric(n: int) -> Family:
    return Family(f"S{n}", n, tuple(_sym_gens(n)), factorial(n), n, 1, 0)


def alternating(n: int) -> Family:
    """(1,2,3) with (1,...,n) for odd n, or with (2,...,n) for even n."""
    long = list(range(1, n + 1)) if n % 2 else list(range(2, n + 1))
    gens = (_cycle([1, 2, 3], n), _cycle(long, n))
    return Family(f"A{n}", n, gens, factorial(n) // 2, n - 2, 1, 0)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod an odd prime p."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    for a in range(2, p):
        if all(pow(a, (p - 1) // q, p) != 1 for q in factors):
            return a
    raise AssertionError("every odd prime has a primitive root")


def pgl2(p: int) -> Family:
    """PGL(2,p) on the projective line: 0..p-1 are points 1..p and infinity
    is point p+1. Generated by x->x+1, x->ax (a a primitive root) and
    x->-1/x; sharply 3-transitive of order p(p^2-1)."""
    a, inf = primitive_root(p), p

    def image(f):
        return tuple(f(x) + 1 for x in range(p + 1))

    def neg_inv(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return -pow(x, p - 2, p) % p

    gens = (
        image(lambda x: x if x == inf else (x + 1) % p),
        image(lambda x: x if x == inf else a * x % p),
        image(neg_inv),
    )
    return Family(f"PGL2_{p}", p + 1, gens, p * (p * p - 1), 3, 1, 0)


def wreath(k: int, m: int) -> Family:
    """S_k wr S_m, imprimitive on m blocks of k points: S_k on the first
    block plus S_m permuting whole blocks. Rank 3, so two orbital graphs
    (same block, different block), neither futile."""
    n = k * m
    gens = {g[:k] + tuple(range(k + 1, n + 1)) for g in _sym_gens(k)}
    for bg in _sym_gens(m):
        gens.add(tuple((bg[b] - 1) * k + i + 1 for b in range(m) for i in range(k)))
    return Family(f"S{k}wrS{m}", n, tuple(sorted(gens)), factorial(k) ** m * factorial(m), 1, 2, 2)


def transpositions(k: int) -> Family:
    """(1,2), (3,4), ..., (2k-1,2k): k orbits of size 2, every orbital
    graph futile (k pairs per orbit representative)."""
    n = 2 * k
    gens = tuple(_cycle([2 * i + 1, 2 * i + 2], n) for i in range(k))
    return Family(f"T{k}", n, gens, 2**k, None, k * k, 0)


def cyclic(n: int) -> Family:
    """Regular C_n: n-1 orbital graphs, none futile for n >= 3."""
    return Family(f"C{n}", n, (_cycle(list(range(1, n + 1)), n),), n, 1, n - 1, n - 1)


def dihedral(n: int) -> Family:
    """D_n on the n-gon (n >= 4): the stabilizer of a vertex is a
    reflection, so floor(n/2) orbital graphs, none futile."""
    rot = _cycle(list(range(1, n + 1)), n)
    ref = tuple((1 - x) % n + 1 for x in range(1, n + 1))
    return Family(f"D{n}", n, (rot, ref), 2 * n, 1, n // 2, n // 2)


def cycle_product(lengths) -> Family:
    """Direct product of cyclic groups on disjoint supports, one generator
    per cycle. Inside an orbit of length L the graphs are those of C_L;
    across orbits the stabilizer is transitive, so those are futile."""
    n = sum(lengths)
    gens, start, order = [], 1, 1
    for length in lengths:
        gens.append(_cycle(list(range(start, start + length)), n))
        start += length
        order *= length
    pairs = sum(length - 1 + len(lengths) - 1 for length in lengths)
    useful = sum(length - 1 for length in lengths if length >= 3)
    name = "x".join(f"C{length}" for length in lengths)
    return Family(name, n, tuple(gens), order, None, pairs, useful)


def relabel(gens, degree: int, rng: random.Random):
    """Conjugate every generator by a random point permutation s, so that
    s(x) -> s(g(x)), and shuffle the generator order."""
    s = list(range(1, degree + 1))
    rng.shuffle(s)
    out = []
    for g in gens:
        images = [0] * degree
        for x in range(1, degree + 1):
            images[s[x - 1] - 1] = s[g[x - 1] - 1]
        out.append(tuple(images))
    rng.shuffle(out)
    return out


def cycle_string(images) -> str:
    """Disjoint-cycle text with comma-separated points, "()" for identity."""
    seen, parts = set(), []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = images[x - 1]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def group_text(degree: int, gens) -> str:
    """The library's group description format: a degree header, then one
    generator per line."""
    return "\n".join([f"degree: {degree}"] + [cycle_string(g) for g in gens]) + "\n"
