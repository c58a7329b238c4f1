"""Permutation arithmetic, parsing, orbits, stabilizer chains, partitions."""

import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import orbgraph.perm
from orbgraph.perm import (
    MAX_DEGREE,
    OrderedPartition,
    PermGroup,
    Permutation,
    parse_cycles,
    parse_group_text,
)

from support import (
    all_elements,
    alternating_group,
    block_preserving_group,
    brute_orbit,
    brute_stabilizer,
    brute_transitivity_degree,
    dihedral_group,
    group_from,
    group_from_maps,
    groups_st,
    partition_stabilizer_generators,
    permutations_st,
    pgl2,
    reference_chain,
    reference_stabilizer_generators,
    symmetric_group,
    wreath_group,
)


# one group of each formula-built family, beyond the degrees of the
# brute-force cross-checks
FAMILIES = {
    "S_12": lambda: symmetric_group(12),
    "A_13": lambda: alternating_group(13),
    "D_20": lambda: dihedral_group(20),
    "PGL(2,13)": lambda: pgl2(13),
    "S_4 wr S_4": lambda: wreath_group(4, 4),
}


class TestParseCycles:
    def test_single_transposition(self):
        assert parse_cycles("(2,3)", 7).images == (1, 3, 2, 4, 5, 6, 7)

    def test_product_of_transpositions(self):
        assert parse_cycles("(1,4)(2,5)(3,6)", 9).images == (4, 5, 6, 1, 2, 3, 7, 8, 9)

    def test_identity(self):
        assert parse_cycles("()", 5) == Permutation.identity(5)

    def test_compact_digit_form(self):
        assert parse_cycles("(132)", 3) == parse_cycles("(1,3,2)", 3)
        assert parse_cycles("(12)(34)", 4) == parse_cycles("(1,2)(3,4)", 4)

    def test_whitespace_ignored(self):
        assert parse_cycles(" ( 1 , 2 ) ", 2) == parse_cycles("(1,2)", 2)

    def test_trivial_cycle_is_identity(self):
        assert parse_cycles("(3)", 4).is_identity()

    def test_point_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_cycles("(1,8)", 7)
        with pytest.raises(ValueError, match="out of range"):
            parse_cycles("(0,1)", 7)

    def test_repeated_point(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_cycles("(1,2)(2,3)", 5)

    def test_malformed(self):
        for text in ["(1,2", "1,2)", "(1,2)x", "(a,b)", "", "(1,,2)", "(-1,2)"]:
            with pytest.raises(ValueError):
                parse_cycles(text, 5)

    @pytest.mark.parametrize(
        "text,degree",
        [
            ("(1_0,2)", 12),
            ("(+3,4)", 5),
            ("(3,+4)", 5),
            ("(\u0663,4)", 5),
            ("(\u0661\u0662)", 3),
            ("(\uff13,4)", 5),
        ],
        ids=[
            "underscore", "plus", "plus second", "arabic-indic", "arabic-indic compact", "fullwidth"
        ],
    )
    def test_points_are_ascii_decimal_only(self, text, degree):
        with pytest.raises(ValueError, match="malformed"):
            parse_cycles(text, degree)


class TestPermutationArithmetic:
    def test_apply(self):
        assert parse_cycles("(1,2,4,3)", 4).apply(1) == 2

    def test_compose_acts_left_to_right(self):
        p = parse_cycles("(2,3)", 7)
        q = parse_cycles("(4,6)", 7)
        assert (p * q).apply(3) == 2
        assert (p * q).apply(4) == 6

    def test_compose_degree_one(self):
        product = Permutation.identity(1) * Permutation([1])
        assert product.images == (1,) and product.degree == 1

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)", 2) * parse_cycles("(1,2)", 3)

    def test_images_must_be_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation([0, 1])
        with pytest.raises(ValueError):
            Permutation([])

    @pytest.mark.parametrize("images", [[2.0, 1.0], [1, 2.0], ["1"], ["2", "1"], [True]])
    def test_images_must_be_ints(self, images):
        # image tables index one another, so an image must be an int and
        # not merely compare equal to one
        with pytest.raises(ValueError, match="not all integers"):
            Permutation(images)

    def test_apply_out_of_range(self):
        p = Permutation.identity(3)
        with pytest.raises(ValueError):
            p.apply(0)
        with pytest.raises(ValueError):
            p.apply(4)

    @given(permutations_st())
    def test_cycle_string_round_trip(self, p):
        assert parse_cycles(p.cycle_string(), p.degree) == p

    @given(permutations_st())
    def test_inverse_cancels(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(permutations_st(), st.data())
    def test_composition_pointwise(self, p, data):
        q = data.draw(st.permutations(list(range(1, p.degree + 1))).map(Permutation))
        x = data.draw(st.integers(1, p.degree))
        assert (p * q).apply(x) == q.apply(p.apply(x))


class TestOrbits:
    def test_orbit_examples(self, two_swaps):
        assert two_swaps.orbit(2) == (2, 3)
        assert two_swaps.orbit(1) == (1,)
        assert two_swaps.orbit(4) == (4, 6)

    def test_orbit_out_of_range(self, two_swaps):
        with pytest.raises(ValueError):
            two_swaps.orbit(8)

    def test_orbit_partition_examples(self, two_swaps, two_triangles):
        assert two_swaps.orbit_partition().cells == ((1,), (2, 3), (4, 6), (5,), (7,))
        assert two_triangles.orbit_partition().cells == ((1, 2, 3, 4, 5, 6), (7, 8, 9))

    def test_orbit_partition_of_transitive_group(self):
        assert PermGroup.symmetric(5).orbit_partition().cells == ((1, 2, 3, 4, 5),)

    @given(groups_st(max_degree=6))
    @settings(max_examples=40, deadline=None)
    def test_orbits_match_brute_force(self, group):
        elements = all_elements(group)
        for p in range(1, group.degree + 1):
            assert group.orbit(p) == brute_orbit(elements, p)


class TestStabilizerChain:
    def test_order_examples(self, square_symmetries, diagonal_triangles, two_triangles):
        assert square_symmetries.order() == 8
        assert diagonal_triangles.order() == 6
        assert two_triangles.order() == 216
        assert PermGroup(5).order() == 1
        assert PermGroup.symmetric(6).order() == 720

    def test_order_matches_brute_count(self, square_symmetries, diagonal_triangles):
        assert len(all_elements(square_symmetries)) == 8
        assert len(all_elements(diagonal_triangles)) == 6

    def test_point_stabilizer_of_fixed_point_is_whole_group(self, two_swaps):
        stab = two_swaps.point_stabilizer(1)
        assert stab.order() == two_swaps.order() == 4

    def test_point_stabilizer_examples(self, square_symmetries, two_triangles):
        stab = square_symmetries.point_stabilizer(1)
        assert stab.order() == 2
        assert stab.orbit_partition().cells == ((1,), (2, 3), (4,))
        assert two_triangles.point_stabilizer(1).orbit(2) == (2, 3)

    def test_point_stabilizer_fixes_point_and_sits_inside(self, diagonal_triangles):
        stab = diagonal_triangles.point_stabilizer(1)
        for g in stab.generators:
            assert g.apply(1) == 1
            assert g in diagonal_triangles

    def test_orbit_stabilizer_identity(self, corpus_sample):
        for group in corpus_sample:
            for p in range(1, group.degree + 1):
                stab = group.point_stabilizer(p)
                assert stab.order() * len(group.orbit(p)) == group.order()

    def test_order_matches_brute_count_on_corpus(self, corpus_sample):
        checked = 0
        for group in corpus_sample:
            if group.order() <= 10000:
                assert group.order() == len(all_elements(group))
                checked += 1
        assert checked > 0

    def test_membership(self, square_symmetries):
        elements = all_elements(square_symmetries)
        for e in elements:
            assert e in square_symmetries
        assert parse_cycles("(1,2)", 4) not in square_symmetries
        assert parse_cycles("(1,2)", 5) not in square_symmetries

    @pytest.mark.parametrize("name", FAMILIES)
    def test_product_of_generators_is_member(self, name):
        group = FAMILIES[name]()
        rng = random.Random(20261018)
        word = Permutation.identity(group.degree)
        for _ in range(20):
            word = word * rng.choice(group.generators)
        assert word in group

    @pytest.mark.parametrize(
        "name, cycle",
        [
            # an odd permutation
            ("A_13", "(1,2)"),
            # fixes vertex 3 but sends the edge {2,3} to the non-edge {1,3}
            ("D_20", "(1,2)"),
            # fixes 1, 2 and 3, which only the identity does in a sharply
            # 3-transitive group
            ("PGL(2,13)", "(4,5)"),
            # sends 1 to the block {5..8} but keeps 2 in the block {1..4}
            ("S_4 wr S_4", "(1,5)"),
        ],
    )
    def test_non_member(self, name, cycle):
        group = FAMILIES[name]()
        assert parse_cycles(cycle, group.degree) not in group

    def test_chain_built_once_under_concurrent_first_use(self):
        group = group_from(8, "(1,2,3,4,5,6,7,8)", "(1,2)")
        with ThreadPoolExecutor(8) as pool:
            orders = list(pool.map(lambda _: group.order(), range(16)))
        assert set(orders) == {40320}
        assert group.chain is group.chain

    def test_empty_generator_list_gives_trivial_group(self):
        group = PermGroup(4, [])
        assert group.order() == 1
        assert len(group.generators) == 1


def check_chain(group):
    """The invariants of a stabilizer chain with base 1..n, checked level
    by level against the permutations it stores."""
    ident = group.chain[0].transversal[1]
    product = 1
    for i, lvl in enumerate(group.chain):
        assert lvl.point == i + 1
        assert lvl.transversal[i + 1] is ident
        for x, u in lvl.transversal.items():
            assert u.images[i] == x
            assert u.images[:i] == ident.images[:i]
        for g in lvl.gens:
            assert g.images[:i] == ident.images[:i]
        product *= len(lvl.transversal)
    assert group.order() == product


class TestChainInvariants:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_known_families(self, name):
        check_chain(FAMILIES[name]())

    def test_corpus(self, corpus_sample):
        for group in corpus_sample:
            check_chain(group)

    def test_long_cycle(self):
        # one basic orbit of 1200 points, more than Python's recursion limit
        # lets a recursive construction walk
        group = group_from_maps(1200, lambda x: x % 1200 + 1)
        check_chain(group)
        assert group.order() == 1200
        assert group.transitivity_degree() == 1


def relabelled(group, rng):
    """The group conjugated by a seeded random relabelling of its points."""
    sigma = list(range(1, group.degree + 1))
    rng.shuffle(sigma)

    def conjugate(g):
        images = [0] * group.degree
        for x, y in enumerate(g.images):
            images[sigma[x] - 1] = sigma[y - 1]
        return Permutation(images)

    return PermGroup(group.degree, map(conjugate, group.generators))


def reference_cases():
    rng = random.Random(12)
    for name, build in FAMILIES.items():
        yield pytest.param(build(), id=name)
        yield pytest.param(relabelled(build(), rng), id=f"{name} relabelled")
    for k in range(10):
        degree = rng.randint(6, 24)
        group = block_preserving_group(rng, degree, rng.randint(1, 3), rng.randint(2, 4))
        yield pytest.param(group, id=f"blocks {k}")
    yield pytest.param(PermGroup(1), id="trivial 1")
    yield pytest.param(PermGroup(1, [Permutation([1])] * 2), id="trivial 1, two generators")
    yield pytest.param(PermGroup(2), id="trivial 2")
    yield pytest.param(PermGroup.symmetric(2), id="S_2")
    yield pytest.param(group_from(4, "(1,2)", "()", "(1,2)"), id="repeated generators")


def assert_matches_reference(group):
    """The chain and every point stabilizer compose bare image tables;
    tests/support.py keeps the same constructions in Permutation
    arithmetic. Both must give the same entries in the same order."""
    expected = reference_chain(group.degree, group.generators)
    assert len(group.chain) == len(expected)
    order = 1
    for lvl, ref in zip(group.chain, expected):
        assert lvl.point == ref.point
        assert [(x, u.images) for x, u in lvl.transversal.items()] == [
            (x, u.images) for x, u in ref.transversal.items()
        ]
        assert [h.images for h in lvl.gens] == [h.images for h in ref.gens]
        order *= len(ref.transversal)
    assert group.order() == order
    for point in range(1, group.degree + 1):
        assert group.point_stabilizer(point).generators == tuple(
            reference_stabilizer_generators(group, point)
        )


class TestMatchesReference:
    @pytest.mark.parametrize("group", reference_cases())
    def test_groups(self, group):
        assert_matches_reference(group)

    def test_corpus(self, corpus_sample):
        for group in corpus_sample:
            assert_matches_reference(group)

    def test_each_transversal_element_inverted_at_most_once(self, monkeypatch):
        # S_24 has 300 transversal entries; a fresh inverse for every
        # division would make 5304 inversions
        calls = []
        for owner, name in [(orbgraph.perm, "_inverse_table"), (Permutation, "inverse")]:
            real = getattr(owner, name)

            def counted(*args, real=real):
                calls.append(1)
                return real(*args)

            monkeypatch.setattr(owner, name, counted)
        group = PermGroup.symmetric(24)
        assert group.order() == factorial(24)
        assert 0 < len(calls) <= sum(len(lvl.transversal) for lvl in group.chain) == 300

    def test_each_tree_element_inverted_at_most_once(self, monkeypatch):
        # ten random generators of degree 50 reach each point about ten
        # times; a fresh inverse for every division would make 451
        rng = random.Random(50)
        group = PermGroup(50, [Permutation(rng.sample(range(1, 51), 50)) for _ in range(10)])
        calls = []
        real = orbgraph.perm._inverse_table

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(orbgraph.perm, "_inverse_table", counted)
        group.point_stabilizer(1)
        assert 0 < len(calls) <= len(group.orbit(1))

    def test_chain_keeps_no_inverses(self):
        # what the chain retains is its transversals and strong generators,
        # as much as the reference chain retains, and no inverse tables
        group = dihedral_group(400)
        tracemalloc.start()
        try:
            expected = reference_chain(group.degree, group.generators)
            reference_size = tracemalloc.get_traced_memory()[0]
            del expected
            base = tracemalloc.get_traced_memory()[0]
            group.order()
            size = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert size <= 1.2 * reference_size


class TestTransitivityDegree:
    def test_symmetric_group_is_fully_transitive(self):
        for n in range(1, 7):
            assert PermGroup.symmetric(n).transitivity_degree() == n

    def test_examples(self, square_symmetries, two_swaps):
        assert square_symmetries.transitivity_degree() == 1
        assert two_swaps.transitivity_degree() == 0

    def test_matches_brute_force(self, corpus_sample):
        checked = 0
        for group in corpus_sample:
            if group.order() > 5000:
                continue
            elements = all_elements(group)
            assert group.transitivity_degree() == brute_transitivity_degree(
                elements, group.degree
            )
            checked += 1
        assert checked > 0


class TestKnownFamilies:
    """Exact order and transitivity degree of groups built from formulas,
    far beyond the degrees where elements can be enumerated."""

    @pytest.mark.parametrize("n", range(2, 33))
    def test_symmetric(self, n):
        group = symmetric_group(n)
        assert group.order() == factorial(n)
        assert group.transitivity_degree() == n

    @pytest.mark.parametrize("n", range(3, 34, 2))
    def test_alternating(self, n):
        group = alternating_group(n)
        assert group.order() == factorial(n) // 2
        assert group.transitivity_degree() == n - 2

    @pytest.mark.parametrize("p", [7, 11, 13, 23, 31, 37, 43, 53, 61])
    def test_pgl2_is_sharply_three_transitive(self, p):
        group = pgl2(p)
        assert group.order() == p * (p * p - 1)
        assert group.transitivity_degree() == 3

    def test_dihedral(self):
        for n in range(3, 65):
            group = dihedral_group(n)
            assert group.order() == 2 * n
            assert group.transitivity_degree() == (3 if n == 3 else 1)

    def test_wreath_product(self):
        group = wreath_group(4, 4)
        assert group.order() == 24**4 * 24
        assert group.transitivity_degree() == 1


class TestOrderedPartition:
    def test_cells_sorted_and_order_preserved(self):
        part = OrderedPartition(5, [[3, 2], [1], [5, 4]])
        assert part.cells == ((2, 3), (1,), (4, 5))

    def test_str(self, two_triangles):
        assert str(two_triangles.orbit_partition()) == "[1,2,3,4,5,6|7,8,9]"

    def test_validation(self):
        with pytest.raises(ValueError, match="cover"):
            OrderedPartition(3, [[1, 2]])
        with pytest.raises(ValueError, match="more than one"):
            OrderedPartition(3, [[1, 2], [2, 3]])
        with pytest.raises(ValueError, match="out of range"):
            OrderedPartition(3, [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="empty"):
            OrderedPartition(3, [[1, 2, 3], []])


class TestPartitionStabilizerGenerators:
    def test_adjacent_transpositions(self):
        part = OrderedPartition(4, [[1, 2, 3], [4]])
        gens = partition_stabilizer_generators(part)
        assert [g.cycle_string() for g in gens] == ["(1,2)", "(2,3)"]

    def test_generated_order_is_product_of_factorials(self, two_triangles):
        gens = partition_stabilizer_generators(two_triangles.orbit_partition())
        assert PermGroup(9, gens).order() == 720 * 6

    def test_singleton_cells_contribute_nothing(self):
        part = OrderedPartition(5, [[p] for p in range(1, 6)])
        assert partition_stabilizer_generators(part) == []


class TestGroupText:
    def test_parse_with_comments_and_blanks(self):
        group = parse_group_text("# sample\n\ndegree: 7\n(2,3)\n# more\n(4,6)\n")
        assert group.degree == 7
        assert len(group.generators) == 2

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_group_text("(1,2)\n")
        with pytest.raises(ValueError, match="header"):
            parse_group_text("")

    def test_bad_permutation_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_group_text("degree: 3\n(1,4)\n")

    @pytest.mark.parametrize(
        "text",
        ["degree: 4 # four points\n(1,2)\n", "degree: 4\n(1,2) # swap\n(3,4)#\n"],
        ids=["after header", "after generator"],
    )
    def test_trailing_comment(self, text):
        group = parse_group_text(text)
        assert group.degree == 4
        assert group.generators[0] == parse_cycles("(1,2)", 4)

    def test_no_permutation_lines_is_trivial_group(self):
        assert parse_group_text("degree: 3\n").order() == 1

    @pytest.mark.parametrize(
        "text", ["degree: 0\n", f"degree: {MAX_DEGREE + 1}\n", "degree: 1000000000\n(1,2)\n"]
    )
    def test_degree_outside_bounds(self, text):
        with pytest.raises(ValueError, match="degree must be in"):
            parse_group_text(text)

    @pytest.mark.parametrize(
        "digits", ["\u0661\u0662", "\uff11\uff12"], ids=["arabic-indic", "fullwidth"]
    )
    def test_degree_is_ascii_decimal_only(self, digits):
        with pytest.raises(ValueError, match="header"):
            parse_group_text(f"degree: {digits}\n(1,2)\n")

    def test_max_degree_is_accepted(self):
        assert parse_group_text(f"degree: {MAX_DEGREE}\n").degree == MAX_DEGREE


@given(groups_st(max_degree=6))
@settings(max_examples=30, deadline=None)
def test_stabilizer_matches_brute_force(group):
    elements = all_elements(group)
    stab = group.point_stabilizer(1)
    assert stab.order() == len(brute_stabilizer(elements, 1))
