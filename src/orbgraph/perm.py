"""Permutations of {1..n}, permutation groups with Schreier-tree orbits
and point stabilizers and a stabilizer chain for order, membership and
transitivity degree, and ordered partitions of the point domain.

Points are 1-based throughout and every value is treated as immutable once
constructed. Composition follows the right-action convention: the image of
x under p * q is q(p(x)), so p acts first.
"""

from __future__ import annotations

import re
import threading
from operator import itemgetter


class Permutation:
    """A bijection of {1..degree} stored as an image table."""

    __slots__ = ("degree", "images")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if set(map(type, images)) != {int}:
            raise ValueError(f"images {images!r} are not all integers")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"images {images!r} are not a bijection of 1..{n}")
        self.degree = n
        self.images = images

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        # products and inverses of valid permutations need no re-validation
        p = object.__new__(cls)
        p.degree = len(images)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls._unchecked(tuple(range(1, degree + 1)))

    def apply(self, point: int) -> int:
        """Image of a point."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition with self acting first: (p * q)(x) = q(p(x))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot compose permutations of different degree")
        if self.degree == 1:
            return self  # the only permutation of degree 1
        # the leading 0 lets the 1-based images index other's table; with
        # one argument, itemgetter would return a scalar, not a tuple
        return Permutation._unchecked(itemgetter(*self.images)((0,) + other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for pre, post in enumerate(self.images, start=1):
            inv[post - 1] = pre
        return Permutation._unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimum, ordered by start."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1] or self.images[start - 1] == start:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self.images[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self.images[nxt - 1]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self.cycle_string()}"


def _is_decimal(text: str) -> bool:
    # int() alone also takes signs, underscores and non-ASCII digits
    return text.isascii() and text.isdigit()


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation such as "(1,2)(3,4)" or "()".

    Comma-separated points are always accepted. A run of two or more
    digits with no commas, like "(132)", is read one digit per point; it is
    accepted only for degree at most 9 and raises ValueError above, where
    "(12)" could also mean point 12. Points are written in ASCII digits
    0-9 only. Whitespace is ignored and points absent from the text are
    fixed.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty permutation text")
    images = list(range(1, degree + 1))
    used: set[int] = set()
    pos = 0
    while pos < len(compact):
        if compact[pos] != "(":
            raise ValueError(f"malformed cycle notation {text!r}")
        end = compact.find(")", pos + 1)
        if end < 0:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        body = compact[pos + 1 : end]
        pos = end + 1
        if not body:
            continue
        tokens = body.split(",")
        if not all(map(_is_decimal, tokens)):
            raise ValueError(f"malformed cycle notation {text!r}")
        if len(tokens) > 1:
            points = list(map(int, tokens))
        elif len(body) == 1 or degree <= 9:
            points = [int(ch) for ch in body]
        else:
            raise ValueError(f"cycle ({body}) needs commas between points at degree {degree}")
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
            if p in used:
                raise ValueError(f"point {p} repeated in {text!r}")
            used.add(p)
        for a, b in zip(points, points[1:]):
            images[a - 1] = b
        images[points[-1] - 1] = points[0]
    return Permutation(images)


class OrderedPartition:
    """An ordered sequence of disjoint, sorted cells covering {1..degree}.

    Cell order is preserved as given; each cell is sorted ascending.
    """

    __slots__ = ("degree", "cells")

    def __init__(self, degree: int, cells):
        norm = tuple(tuple(sorted(c)) for c in cells)
        seen: set[int] = set()
        for cell in norm:
            if not cell:
                raise ValueError("empty cell")
            for p in cell:
                if not 1 <= p <= degree:
                    raise ValueError(f"point {p} out of range 1..{degree}")
                if p in seen:
                    raise ValueError(f"point {p} appears in more than one cell")
                seen.add(p)
        if len(seen) != degree:
            raise ValueError("cells do not cover the domain")
        self.degree = degree
        self.cells = norm

    @classmethod
    def unit(cls, degree: int) -> "OrderedPartition":
        return cls(degree, [range(1, degree + 1)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderedPartition)
            and self.degree == other.degree
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.cells))

    def __str__(self) -> str:
        return "[" + "|".join(",".join(map(str, c)) for c in self.cells) + "]"

    def __repr__(self) -> str:
        return f"OrderedPartition({self.degree}, {self})"


class _ChainLevel:
    """One level of a stabilizer chain: a base point, the strong generators
    attached at this level, and a transversal u[x] with point^u = x."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int, transversal: dict[int, Permutation]):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal = transversal


def _inverse_table(images: tuple[int, ...], one: tuple[int, ...]) -> list[int]:
    """Image table of the inverse of images, led by an unused 0 so that a
    1-based image indexes it. Its entries are one's int objects, so a
    product divided by it holds no ints of its own."""
    inv = [0] * (len(images) + 1)
    for pre, post in zip(one, images):
        inv[post] = pre
    return inv


def _sift(levels: list[_ChainLevel], h: tuple[int, ...], start: int, inverses: dict):
    """Divide transversal elements off the image table h from level start
    down, until h escapes a transversal, becomes the identity or has
    passed every level. Returns the residue and the index of the level it
    stopped at, len(levels) once it is the identity. A level whose point h
    fixes is passed without multiplying, since its representative is the
    identity, and one tuple comparison after each division spots the
    identity, which passes every remaining level.

    inverses maps (level index, point) to the inverse table of that
    transversal entry. A missing table is made on first use and stored,
    so a caller that passes one dict to many sifts inverts each entry at
    most once."""
    one = levels[0].transversal[1].images
    for i in range(start, len(levels)):
        lvl = levels[i]
        x = h[lvl.point - 1]
        if x == lvl.point:
            continue
        u = lvl.transversal.get(x)
        if u is None:
            return h, i
        inv = inverses.get((i, x))
        if inv is None:
            inv = inverses[i, x] = _inverse_table(u.images, one)
        h = itemgetter(*h)(inv)
        if h == one:
            break
    return h, len(levels)


def _build_chain(degree: int, generators) -> list[_ChainLevel]:
    """Deterministic incremental Schreier-Sims (Knuth, 1991) with the fixed
    base 1, 2, ..., degree.

    Level i has base point i + 1. Every level exists from the start, a
    level nothing moves keeps the one-point transversal, and all levels
    share one identity object, so a group with many fixed points costs a
    small dict per level. Transversals grow in place and an entry, once
    stored, never changes, so a sift that passed stays valid.

    Each product u * s of a level's transversal element and generator is
    pushed on one LIFO worklist once, when the later of u and s arrives.
    Popped, it becomes the representative of a new orbit point, or is a
    trivial Schreier generator, or its Schreier generator is sifted from
    level i + 1. A residue that escapes goes to level i + 1, not to the
    level where it stopped: it fixes 1..i + 1, and keeping each level's
    group generated by its own gens is what lets a level close over those
    gens alone. The loop ends because level 0 gets only the input
    generators and level i pops at most len(gens) * len(transversal)
    products, each giving level i + 1 at most one generator. Once it
    ends every Schreier generator has sifted through, so level i's
    transversal is the orbit of i + 1 under the pointwise stabilizer of
    1..i. A residue that passes every level fixes every point and is the
    identity.

    Products and residues are bare image tables; only the entries stored
    as transversal elements or strong generators become Permutations.
    Each transversal element is inverted at most once, on first use, and
    the inverse tables are dropped on return, so the chain keeps none.
    """
    ident = Permutation.identity(degree)
    levels = [_ChainLevel(p, {p: ident}) for p in range(1, degree + 1)]
    inverses: dict[tuple[int, int], list[int]] = {}
    stack: list[tuple[int, tuple[int, ...]]] = []

    def add(i, h):
        levels[i].gens.append(h)
        table = (0,) + h.images
        stack.extend((i, itemgetter(*u.images)(table)) for u in levels[i].transversal.values())

    for g in generators:
        if _sift(levels, g.images, 0, inverses)[1] < degree:
            add(0, g)
        while stack:
            i, w = stack.pop()
            lvl = levels[i]
            x = w[lvl.point - 1]
            u = lvl.transversal.get(x)
            if u is None:
                lvl.transversal[x] = Permutation._unchecked(w)
                get = itemgetter(*w)
                stack.extend((i, get((0,) + s.images)) for s in lvl.gens)
            elif u.images != w:  # else a trivial Schreier generator, as on every tree edge
                # sifting from level i divides by u first, giving the
                # Schreier generator w * u^-1 from level i + 1 on
                h, m = _sift(levels, w, i, inverses)
                if m < degree:
                    add(i + 1, Permutation._unchecked(h))
    return levels


class PermGroup:
    """Group generated by permutations of {1..degree}.

    Orbits and point stabilizers come straight from the generators. The
    stabilizer chain, with base 1..degree, serves order, membership and
    transitivity degree. Three things are computed on first use and then
    cached: the orbit partition with a point-to-orbit table, which every
    orbit query reads; one stabilizer subgroup per point; and the chain.
    The lock guards only the chain, so a first use from several threads
    builds it exactly once. The orbit and stabilizer caches need no lock:
    their contents are deterministic, so a racing thread at worst repeats
    the work and stores an equal value. Everything else is immutable.
    """

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        if not gens:
            gens = (Permutation.identity(degree),)
        self.degree = degree
        self.generators = gens
        self._lock = threading.Lock()
        self._chain: list[_ChainLevel] | None = None
        self._stabilizers: dict[int, "PermGroup"] = {}
        self._orbit_partition: OrderedPartition | None = None
        self._orbit_of: list[tuple[int, ...]] = []

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        """Natural symmetric group on {1..degree}."""
        if degree == 1:
            return cls(degree)
        swap = parse_cycles("(1,2)", degree)
        cycle = Permutation._unchecked(tuple(list(range(2, degree + 1)) + [1]))
        return cls(degree, [swap, cycle])

    @property
    def chain(self) -> list[_ChainLevel]:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = _build_chain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        n = 1
        for lvl in self.chain:
            n *= len(lvl.transversal)
        return n

    def __contains__(self, perm: Permutation) -> bool:
        if not isinstance(perm, Permutation) or perm.degree != self.degree:
            return False
        # a fresh dict: this query inverts at most one entry per level and keeps none
        return _sift(self.chain, perm.images, 0, {})[1] == self.degree

    def orbit(self, point: int) -> tuple[int, ...]:
        """Sorted orbit of a point: its cell of the orbit partition."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        self.orbit_partition()
        return self._orbit_of[point - 1]

    def orbit_partition(self) -> OrderedPartition:
        """Orbits as an ordered partition, cells ascending by minimal point.
        Each orbit is one breadth-first closure under the generators.
        Forward images suffice: a generator maps the finite closure into
        itself injectively, hence onto itself."""
        if self._orbit_partition is None:
            images = [g.images for g in self.generators]
            orbit_of: list[tuple[int, ...] | list[int] | None] = [None] * self.degree
            cells = []
            for p in range(1, self.degree + 1):
                if orbit_of[p - 1] is not None:
                    continue
                # orbit_of marks a point found by pointing it at the open
                # orbit's list, which grows while it is read
                orbit = [p]
                orbit_of[p - 1] = orbit
                for x in orbit:
                    for im in images:
                        y = im[x - 1]
                        if orbit_of[y - 1] is None:
                            orbit_of[y - 1] = orbit
                            orbit.append(y)
                cell = tuple(sorted(orbit))
                for q in cell:
                    orbit_of[q - 1] = cell
                cells.append(cell)
            # the table is set first, so a reader that sees the partition
            # also sees the table
            self._orbit_of = orbit_of
            self._orbit_partition = OrderedPartition(self.degree, cells)
        return self._orbit_partition

    def is_transitive(self) -> bool:
        return len(self.orbit_partition().cells) == 1

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Subgroup fixing a point, generated by Schreier's lemma: with u_x
        the Schreier-tree element sending point to x, the products
        u_x * s * u_{x^s}^-1 over orbit points x and generators s generate
        the stabilizer. Identities and repeats are dropped and the rest
        kept in tree order, so the generators are deterministic. No
        stabilizer chain is built.

        One breadth-first pass over the orbit builds the tree of bare image
        tables and collects the generators at once: the product u_x * s
        that first reaches a point y becomes u_y, so a tree edge gives the
        identity and is never kept, and every later product reaching y is
        divided by u_y. Each u_y is inverted at most once, and only the
        kept generators become Permutations."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        cached = self._stabilizers.get(point)
        if cached is not None:
            return cached
        gens: dict[tuple[int, ...], None] = {}
        # at degree 1 the group is trivial, and itemgetter with one index
        # would return a scalar, not an image table
        if self.degree > 1:
            one = Permutation.identity(self.degree).images
            tables = [(0,) + s.images for s in self.generators]
            # breadth first, so that each u_x is a shortest word in the
            # generators; order grows while it is read
            tree = {point: one}
            order = [point]
            inverses: dict[int, list[int]] = {}
            for x in order:
                get = itemgetter(*tree[x])
                for s, table in zip(self.generators, tables):
                    y = s.images[x - 1]
                    us, uy = get(table), tree.get(y)
                    if uy is None:
                        tree[y] = us
                        order.append(y)
                    elif us != uy:
                        inv = inverses.get(y)
                        if inv is None:
                            inv = inverses[y] = _inverse_table(uy, one)
                        gens.setdefault(itemgetter(*us)(inv))
        stab = PermGroup(self.degree, map(Permutation._unchecked, gens))
        self._stabilizers.setdefault(point, stab)
        return self._stabilizers[point]

    def transitivity_degree(self) -> int:
        """Largest k with the group k-transitive on its domain, 0 when it is
        not even transitive. The group is k-transitive exactly when, for
        each i < k, the pointwise stabilizer of 1..i is transitive on
        i+1..degree, that is when chain level i has a basic orbit of
        degree - i points; so this counts those leading levels."""
        k = 0
        for i, lvl in enumerate(self.chain):
            if len(lvl.transversal) != self.degree - i:
                break
            k += 1
        return k

    def __repr__(self) -> str:
        gens = " ".join(g.cycle_string() for g in self.generators)
        return f"PermGroup[{self.degree}] <{gens}>"


_DEGREE_RE = re.compile(r"degree:\s*([0-9]+)")

# Largest degree a group or graph description may declare. Checked before
# anything of that size is allocated, so a bad header cannot exhaust memory.
MAX_DEGREE = 10_000


def parse_group_text(text: str) -> PermGroup:
    """Parse the shared group description format.

    `#` starts a comment that runs to the end of its line. The first line
    that is not blank once comments are dropped is `degree: n`; every
    following such line is one permutation in cycle notation.
    """
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = _DEGREE_RE.fullmatch(line)
            if not m:
                raise ValueError(
                    f"line {lineno}: expected 'degree: n' header, got {line!r}"
                )
            degree = int(m.group(1))
            if not 1 <= degree <= MAX_DEGREE:
                raise ValueError(f"line {lineno}: degree must be in 1..{MAX_DEGREE}")
            continue
        try:
            gens.append(parse_cycles(line, degree))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if degree is None:
        raise ValueError("missing 'degree: n' header")
    return PermGroup(degree, gens)


def load_group(path) -> PermGroup:
    """Read a group description file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read())
