"""Permutations of {1..n}, permutation groups with Schreier-tree orbits
and point stabilizers, order and transitivity degree read from the
stabilizer of point 1, a stabilizer chain for membership, and ordered
partitions of the point domain.

Points are 1-based throughout and every value is treated as immutable once
constructed. Composition follows the right-action convention: the image of
x under p * q is q(p(x)), so p acts first.
"""

from __future__ import annotations

import re
import threading
from operator import itemgetter


def _check_degree(degree) -> None:
    """Raise ValueError unless degree is an int of at least 1; a bool, a
    float or a str is no degree, even one that compares equal to an int."""
    if type(degree) is not int:
        raise ValueError(f"degree {degree!r} is not an integer")
    if degree < 1:
        raise ValueError("degree must be at least 1")


def _check_point(point, degree: int) -> None:
    """Raise ValueError unless point is an int in 1..degree; tables are
    indexed by point, so True or 1.0 may not stand for point 1."""
    if type(point) is not int:
        raise ValueError(f"point {point!r} is not an integer")
    if not 1 <= point <= degree:
        raise ValueError(f"point {point} out of range 1..{degree}")


class Permutation:
    """A bijection of {1..degree} stored as an image table."""

    __slots__ = ("degree", "images")

    def __init__(self, images):
        try:
            images = tuple(images)
        except TypeError:
            raise ValueError("images must be an iterable of integers") from None
        n = len(images)
        _check_degree(n)
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
        _check_degree(degree)
        return cls._unchecked(tuple(range(1, degree + 1)))

    def apply(self, point: int) -> int:
        """Image of a point. A point that is not an int of 1..degree, a bool,
        float or str among them, raises ValueError."""
        _check_point(point, self.degree)
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
    fixed. A degree that is not an int of at least 1 raises ValueError.
    """
    _check_degree(degree)
    if type(text) is not str:
        raise ValueError(f"permutation text must be a str, not {type(text).__name__}")
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
            _check_point(p, degree)
            if p in used:
                raise ValueError(f"point {p} repeated in {text!r}")
            used.add(p)
        for a, b in zip(points, points[1:]):
            images[a - 1] = b
        images[points[-1] - 1] = points[0]
    # the cycles are disjoint and within 1..degree, so images is a bijection
    return Permutation._unchecked(tuple(images))


class OrderedPartition:
    """An ordered sequence of disjoint, sorted cells covering {1..degree}.

    Cell order is preserved as given; each cell is sorted ascending. The
    degree and every point must be an int: a bool, float or str raises
    ValueError.
    """

    __slots__ = ("degree", "cells")

    def __init__(self, degree: int, cells):
        _check_degree(degree)
        try:
            cells = tuple(map(tuple, cells))
        except TypeError:
            raise ValueError("cells must be an iterable of iterables of points") from None
        try:
            norm = tuple(tuple(sorted(c)) for c in cells)
        except TypeError:
            # ints always compare, so a cell that cannot be sorted holds a
            # point that is not an int, and the loop below reports it
            norm = cells
        # _check_point's two tests, inline, with its messages: this loop
        # reads every point, and a call per point would add to the set-up
        # of every refinement
        seen: set[int] = set()
        for cell in norm:
            if not cell:
                raise ValueError("empty cell")
            for p in cell:
                if type(p) is not int:
                    raise ValueError(f"point {p!r} is not an integer")
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
    def _unchecked(cls, degree: int, cells: tuple[tuple[int, ...], ...]) -> "OrderedPartition":
        # cells already sorted and covering 1..degree once need no re-validation
        p = object.__new__(cls)
        p.degree = degree
        p.cells = cells
        return p

    @classmethod
    def unit(cls, degree: int) -> "OrderedPartition":
        """The one-cell partition of 1..degree. A degree that is not an int
        of at least 1 raises ValueError."""
        _check_degree(degree)
        return cls._unchecked(degree, (tuple(range(1, degree + 1)),))

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
    attached at this level, and a transversal u[x] with point^u = x. Every
    entry is an image table led by an unused 0, as PermGroup's tables are,
    so u[point] == x."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int, transversal: dict[int, tuple[int, ...]]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.transversal = transversal


def _inverse_table(table: tuple[int, ...], one: tuple[int, ...]) -> list[int]:
    """Inverse of an image table led by an unused 0, itself led by 0, as
    one's leading 0 pairs with the table's, so that a 1-based image
    indexes it. Its entries are one's int objects, so a product divided by
    it holds no ints of its own."""
    inv = [0] * len(table)
    for pre, post in zip(one, table):
        inv[post] = pre
    return inv


def _sift(levels: list[_ChainLevel], h: tuple[int, ...], start: int, inverses: dict):
    """Divide transversal elements off the image table h, led by an unused
    0, from level start down, until h escapes a transversal, becomes the
    identity or has passed every level. Returns the residue and the index
    of the level it stopped at, len(levels) once it is the identity. A
    level whose point h fixes is passed without multiplying, since its
    representative is the identity, and one tuple comparison after each
    division spots the identity, which passes every remaining level.

    inverses maps (level index, point) to the inverse table of that
    transversal entry. A missing table is made on first use and stored,
    so a caller that passes one dict to many sifts inverts each entry at
    most once."""
    one = levels[0].transversal[1]
    for i in range(start, len(levels)):
        lvl = levels[i]
        x = h[lvl.point]
        if x == lvl.point:
            continue
        u = lvl.transversal.get(x)
        if u is None:
            return h, i
        inv = inverses.get((i, x))
        if inv is None:
            inv = inverses[i, x] = _inverse_table(u, one)
        h = itemgetter(*h)(inv)
        if h == one:
            break
    return h, len(levels)


def _build_chain(degree: int, tables) -> list[_ChainLevel]:
    """Deterministic incremental Schreier-Sims (Knuth, 1991) with the fixed
    base 1, 2, ..., degree, over the generators' image tables led by an
    unused 0.

    Level i has base point i + 1. Every level exists from the start, a
    level nothing moves keeps the one-point transversal, and all levels
    share one identity table, so a group with many fixed points costs a
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

    Products, residues and stored entries are all bare image tables led by
    0, so each table has at least two entries and itemgetter over it
    returns a tuple. Each transversal element is inverted at most once, on
    first use, and the inverse tables are dropped on return, so the chain
    keeps none.
    """
    one = tuple(range(degree + 1))
    levels = [_ChainLevel(p, {p: one}) for p in range(1, degree + 1)]
    inverses: dict[tuple[int, int], list[int]] = {}
    stack: list[tuple[int, tuple[int, ...]]] = []

    def add(i, h):
        levels[i].gens.append(h)
        stack.extend((i, itemgetter(*u)(h)) for u in levels[i].transversal.values())

    for g in tables:
        if _sift(levels, g, 0, inverses)[1] < degree:
            add(0, g)
        while stack:
            i, w = stack.pop()
            lvl = levels[i]
            x = w[lvl.point]
            u = lvl.transversal.get(x)
            if u is None:
                lvl.transversal[x] = w
                get = itemgetter(*w)
                stack.extend((i, get(s)) for s in lvl.gens)
            elif u != w:  # else a trivial Schreier generator, as on every tree edge
                # sifting from level i divides by u first, giving the
                # Schreier generator w * u^-1 from level i + 1 on
                h, m = _sift(levels, w, i, inverses)
                if m < degree:
                    add(i + 1, h)
    return levels


def _orbits(degree: int, tables) -> tuple[list[tuple[int, ...]], OrderedPartition]:
    """The orbits of the group generated by the image tables, each led by
    an unused 0: a table from point to orbit, whose slot 0 is unused, and
    the orbit partition, cells ascending by minimal point, holding one
    sorted tuple per orbit, so a point's table entry is its partition
    cell. Each orbit is one breadth-first closure under the generators.
    Forward images suffice: a generator maps the finite closure into
    itself injectively, hence onto itself."""
    orbit_of: list = [None] * (degree + 1)
    cells = []
    for p in range(1, degree + 1):
        if orbit_of[p] is not None:
            continue
        # orbit_of marks a point found by pointing it at the open orbit's
        # list, which grows while it is read
        orbit = [p]
        orbit_of[p] = orbit
        for x in orbit:
            for t in tables:
                y = t[x]
                if orbit_of[y] is None:
                    orbit_of[y] = orbit
                    orbit.append(y)
        cell = tuple(sorted(orbit))
        for q in cell:
            orbit_of[q] = cell
        cells.append(cell)
    # the closures are disjoint, sorted and cover 1..degree
    return orbit_of, OrderedPartition._unchecked(degree, tuple(cells))


class PermGroup:
    """Group generated by permutations of {1..degree}.

    The generators are kept only as image tables led by an unused 0,
    tabled once when the group is built, so that a 1-based point indexes
    them. Orbits, point stabilizers, the chain and the orbital graph
    builders all compose those tables. Permutations appear only at the
    edge: each read of `generators` makes them afresh from the tables, so
    it returns permutations equal to the ones given, in the same order,
    not the caller's own objects. The degree must be an int and every
    generator a Permutation of that degree, else ValueError.

    The orbits are found when the group is built. Two things are computed
    on first use and then cached: one stabilizer subgroup per point, and
    the stabilizer chain with base 1..degree. Order and transitivity degree
    read the orbit of 1 and the chain of the stabilizer of 1, so they build
    no chain of the group's own; its chain serves membership. The lock
    guards only the chain, so a first use from several threads builds it
    exactly once. The stabilizer cache needs no lock: a racing thread at
    worst repeats the work and stores an equal value, and every thread
    gets the one that was stored.
    """

    def __init__(self, degree: int, generators=()):
        _check_degree(degree)
        try:
            gens = tuple(generators)
        except TypeError:
            raise ValueError("generators must be an iterable of Permutations") from None
        for g in gens:
            if type(g) is not Permutation:
                raise ValueError(f"generator {g!r} is not a Permutation")
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        if not gens:
            gens = (Permutation.identity(degree),)
        self._adopt(degree, tuple((0,) + g.images for g in gens))

    @classmethod
    def _unchecked(cls, degree: int, tables: tuple[tuple[int, ...], ...]) -> "PermGroup":
        # image tables of valid permutations, led by an unused 0, need no
        # re-validation
        group = object.__new__(cls)
        group._adopt(degree, tables)
        return group

    def _adopt(self, degree: int, tables: tuple[tuple[int, ...], ...]) -> None:
        self.degree = degree
        self._tables = tables
        self._lock = threading.Lock()
        self._chain: list[_ChainLevel] | None = None
        self._stabilizers: dict[int, "PermGroup"] = {}
        self._orbit_of, self._orbit_partition = _orbits(degree, tables)

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        """Natural symmetric group on {1..degree}. A degree that is not an
        int of at least 1 raises ValueError."""
        if degree == 1:
            return cls(degree)
        swap = parse_cycles("(1,2)", degree)
        cycle = Permutation._unchecked(tuple(list(range(2, degree + 1)) + [1]))
        return cls(degree, [swap, cycle])

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(Permutation._unchecked(t[1:]) for t in self._tables)

    @property
    def chain(self) -> list[_ChainLevel]:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = _build_chain(self.degree, self._tables)
        return self._chain

    def order(self) -> int:
        """|1^G| times |G_1|, the product of the transversal sizes of the
        chain of the stabilizer of 1."""
        n = len(self._orbit_of[1])
        for lvl in self.point_stabilizer(1).chain:
            n *= len(lvl.transversal)
        return n

    def __contains__(self, perm: Permutation) -> bool:
        if not isinstance(perm, Permutation) or perm.degree != self.degree:
            return False
        # a fresh dict: this query inverts at most one entry per level and keeps none
        return _sift(self.chain, (0,) + perm.images, 0, {})[1] == self.degree

    def orbit(self, point: int) -> tuple[int, ...]:
        """Sorted orbit of a point: its cell of the orbit partition."""
        _check_point(point, self.degree)
        return self._orbit_of[point]

    def orbit_partition(self) -> OrderedPartition:
        """Orbits as an ordered partition, cells ascending by minimal point."""
        return self._orbit_partition

    def is_transitive(self) -> bool:
        return len(self._orbit_partition.cells) == 1

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Subgroup fixing a point, generated by Schreier's lemma: with u_x
        the Schreier-tree element sending point to x, the products
        u_x * s * u_{x^s}^-1 over orbit points x and generators s generate
        the stabilizer. Identities and repeats are dropped and the rest
        kept in tree order, so the generators are deterministic. No
        stabilizer chain is built.

        One breadth-first pass over the orbit builds the tree of image
        tables and collects the generators at once: the product u_x * s
        that first reaches a point y becomes u_y, so a tree edge gives the
        identity and is never kept, and every later product reaching y is
        divided by u_y. Each u_y is inverted at most once. Every table is
        led by an unused 0, so it has at least two entries and itemgetter
        over it returns a tuple, at degree 1 too. The kept tables become the
        stabilizer's own, and no Permutation is made; a trivial stabilizer
        is generated by the identity, as a group given no generators is."""
        _check_point(point, self.degree)
        cached = self._stabilizers.get(point)
        if cached is not None:
            return cached
        one = tuple(range(self.degree + 1))
        # breadth first, so that each u_x is a shortest word in the
        # generators; order grows while it is read
        tree = {point: one}
        order = [point]
        inverses: dict[int, list[int]] = {}
        gens: dict[tuple[int, ...], None] = {}
        for x in order:
            get = itemgetter(*tree[x])
            for t in self._tables:
                y = t[x]
                us, uy = get(t), tree.get(y)
                if uy is None:
                    tree[y] = us
                    order.append(y)
                elif us != uy:
                    inv = inverses.get(y)
                    if inv is None:
                        inv = inverses[y] = _inverse_table(uy, one)
                    gens.setdefault(itemgetter(*us)(inv))
        stab = PermGroup._unchecked(self.degree, tuple(gens) or (one,))
        self._stabilizers.setdefault(point, stab)
        return self._stabilizers[point]

    def transitivity_degree(self) -> int:
        """Largest k with the group k-transitive on its domain, 0 when it is
        not even transitive. The group is k-transitive exactly when, for
        each i < k, the pointwise stabilizer of 1..i is transitive on
        i+1..degree, that is when it is transitive and, for 1 <= i < k, the
        orbit of i + 1 under that stabilizer has degree - i points. That
        orbit is level i of the chain of the stabilizer of 1, so this
        counts those leading levels after level 0."""
        if not self.is_transitive():
            return 0
        chain = self.point_stabilizer(1).chain
        k = 1
        while k < self.degree and len(chain[k].transversal) == self.degree - k:
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
    if type(text) is not str:
        raise ValueError(f"group text must be a str, not {type(text).__name__}")
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
    # utf-8-sig drops a leading byte-order mark and reads any other UTF-8 as utf-8 does
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_group_text(fh.read())
