"""Orbital graph construction and the queries on built graphs."""

import dataclasses
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from orbgraph.orbital import (
    _orbit_sizes,
    _sized_base_pairs,
    build_orbital_graph,
    check_base_pair,
    build_orbital_graphs,
    enumerate_base_pairs,
    graph_to_json,
    is_self_paired,
    isolated_vertices,
    to_dot,
    weak_components,
)
from orbgraph.futility import is_futile_fast, verdict_record
from orbgraph.perm import PermGroup, parse_cycles
from orbgraph.refine import select_useful_graphs

from support import (
    all_elements,
    arc_mapping_element,
    block_preserving_group,
    brute_arcs,
    components_pairwise_isomorphic,
    cyclic_group,
    dihedral_group,
    disjoint_symmetric_groups,
    exactly,
    group_from,
    groups_st,
    pgl2,
    product_action_group,
    wreath_group,
)


class TestBuild:
    def test_single_arc_graph(self, two_swaps):
        g = build_orbital_graph(two_swaps, 1, 7)
        assert g.arcs == ((1, 7),)
        assert isolated_vertices(g) == (2, 3, 4, 5, 6)

    def test_two_arc_graph(self, two_swaps):
        assert build_orbital_graph(two_swaps, 1, 3).arcs == ((1, 2), (1, 3))

    def test_four_arc_graph(self, two_swaps):
        g = build_orbital_graph(two_swaps, 3, 4)
        assert g.arcs == ((2, 4), (2, 6), (3, 4), (3, 6))
        assert isolated_vertices(g) == (1, 5, 7)

    def test_two_complete_triangles(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        within = lambda cell: {(x, y) for x in cell for y in cell if x != y}
        assert set(g.arcs) == within((1, 2, 3)) | within((4, 5, 6))
        assert isolated_vertices(g) == (7, 8, 9)

    def test_eight_arc_graph(self, square_symmetries):
        g = build_orbital_graph(square_symmetries, 1, 2)
        assert g.arcs == (
            (1, 2), (1, 3), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3),
        )

    def test_six_arc_graph(self, diagonal_triangles):
        g = build_orbital_graph(diagonal_triangles, 1, 4)
        assert g.arcs == ((1, 4), (1, 6), (2, 4), (2, 5), (3, 5), (3, 6))

    def test_base_pair_is_always_an_arc(self, two_swaps):
        g = build_orbital_graph(two_swaps, 5, 2)
        assert g.base_pair == (5, 2)
        assert g.has_arc(5, 2)

    def test_has_arc_is_false_off_the_points(self, two_swaps):
        # 7 is the last point and its out-list is (1,), so an unguarded
        # read of out_adj[0 - 1] would wrongly find the arc (0, 1)
        g = build_orbital_graph(two_swaps, 7, 1)
        assert g.arcs == ((7, 1),)
        assert g.has_arc(7, 1)
        for x, y in [(0, 1), (-6, 1), (8, 1), (7, 0), (7, 8), (1, 7)]:
            assert not g.has_arc(x, y)
        # True == 1.0 == 1, but neither is point 1; a str is no point either
        for x, y in [(7, True), (7, 1.0), (7, "1")]:
            assert not g.has_arc(x, y)
        h = build_orbital_graph(two_swaps, 1, 2)
        assert h.arcs == ((1, 2), (1, 3))
        for x, y in [(True, 2), (1.0, 2), ("1", 2)]:
            assert not h.has_arc(x, y)

    def test_graph_memory_is_linear_in_the_arcs(self):
        # S_200 on (1, 2) is the complete digraph, 39 800 arcs; each arc
        # costs one slot in an out-list and one in an in-list, 16 bytes
        group = PermGroup.symmetric(200)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = build_orbital_graph(group, 1, 2)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(map(len, g.out_adj)) == 39_800
        assert kept <= 40 * 39_800

    def test_adjacency_is_consistent_with_arcs(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        rebuilt = {(x, y) for x in range(1, 10) for y in g.out_adj[x - 1]}
        assert rebuilt == set(g.arcs)
        rebuilt_in = {(x, y) for y in range(1, 10) for x in g.in_adj[y - 1]}
        assert rebuilt_in == set(g.arcs)

    def test_pair_validation(self, two_swaps):
        with pytest.raises(ValueError, match="distinct"):
            build_orbital_graph(two_swaps, 3, 3)
        with pytest.raises(ValueError, match="out of range"):
            build_orbital_graph(two_swaps, 0, 3)
        with pytest.raises(ValueError, match="out of range"):
            build_orbital_graph(two_swaps, 1, 8)

    @pytest.mark.parametrize("point", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_points_must_be_ints(self, two_swaps, point):
        # True == 1 and 1.0 == 1, but neither may stand for point 1
        message = exactly(f"point {point!r} is not an integer")
        for pair in ((point, 3), (3, point)):
            with pytest.raises(ValueError, match=message):
                build_orbital_graph(two_swaps, *pair)
            with pytest.raises(ValueError, match=message):
                build_orbital_graphs(two_swaps, [pair])

    @given(groups_st(max_degree=6))
    @settings(max_examples=30, deadline=None)
    def test_arcs_match_brute_force(self, group):
        elements = all_elements(group)
        assert build_orbital_graph(group, 1, 2).arcs == brute_arcs(elements, 1, 2)


def paired_graph(graphs, graph):
    """The graph of the set holding the reverse of graph's base pair."""
    alpha, beta = graph.base_pair
    (paired,) = [h for h in graphs if h.has_arc(beta, alpha)]
    return paired


def assert_matches_closure(group, graphs):
    """Each graph equals build_orbital_graph on its base pair, holds its
    out-lists as strictly ascending tuples, and shares its in_adj with the
    paired graph's out_adj."""
    for g in graphs:
        reference = build_orbital_graph(group, *g.base_pair)
        assert g.out_adj == reference.out_adj
        assert g.in_adj == reference.in_adj
        assert g.in_adj is paired_graph(graphs, g).out_adj
        for heads in g.out_adj:
            assert type(heads) is tuple and all(a < b for a, b in zip(heads, heads[1:]))


def assert_builders_agree(group):
    """On the whole enumeration and on the select_useful_graphs subset.
    Returns the number of graphs built."""
    pairs = enumerate_base_pairs(group)
    graphs = build_orbital_graphs(group, pairs)
    assert [g.base_pair for g in graphs] == pairs
    assert_matches_closure(group, graphs)
    useful = select_useful_graphs(group)
    assert [pair for pair, _ in useful] == [p for p in pairs if not is_futile_fast(group, *p)]
    assert all(g.base_pair == pair for pair, g in useful)
    assert_matches_closure(group, [g for _, g in useful])
    return len(graphs)


FORMULA_GROUPS = (
    [cyclic_group(n) for n in (2, 3, 5, 12, 57, 200)]
    + [dihedral_group(n) for n in (3, 4, 9, 30, 121, 200)]
    + [pgl2(p) for p in (5, 7, 13)]
    + [wreath_group(3, 4), wreath_group(4, 3), wreath_group(2, 5)]
    + [product_action_group(3, 3), product_action_group(4, 2), product_action_group(3, 5)]
    + [disjoint_symmetric_groups(3, 4), PermGroup(4)]
    # one-point slices off a tail's orbit: C_5 x C_7 on 12 points, and D_10
    # with its antipodal one-point slice on 12 points, two of them fixed
    + [group_from(12, "(1,2,3,4,5)", "(6,7,8,9,10,11,12)")]
    + [group_from(12, "(1,2,3,4,5,6,7,8,9,10)", "(2,10)(3,9)(4,8)(5,7)")]
)


class TestBuildMany:
    def test_corpus(self, corpus):
        assert sum(map(assert_builders_agree, corpus)) > 1500

    @pytest.mark.parametrize("index", range(len(FORMULA_GROUPS)))
    def test_formula_groups(self, index):
        assert_builders_agree(FORMULA_GROUPS[index])

    def test_intransitive_groups_with_cross_orbit_pairs(self):
        # the paired graph of a pair across orbits has its tail in the
        # head's orbit, so its rows come from another walk
        rng = random.Random(20261019)
        across = 0
        for _ in range(12):
            degree = rng.randint(20, 60)
            group = block_preserving_group(rng, degree, rng.randint(1, 3), rng.randint(2, 8))
            assert_builders_agree(group)
            useful = [pair for pair, _ in select_useful_graphs(group)]
            across += sum(b not in group.orbit(a) for a, b in useful)
        assert across > 100

    @pytest.mark.parametrize("build", [cyclic_group, dihedral_group])
    def test_useful_graphs_share_paired_lists(self, build):
        # with the stabilizers warm, a graph keeps its out-lists and borrows
        # its in-lists from the paired graph; equal 1-point out-lists are
        # one shared tuple, so C_200 keeps about 9 bytes per arc (a pointer)
        # and D_200, whose out-lists are mostly 2-point tuples, about 30
        group = build(200)
        select_useful_graphs(group)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            useful = select_useful_graphs(group)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        graphs = [graph for _, graph in useful]
        arcs = sum(sum(map(len, g.out_adj)) for g in graphs)
        assert arcs == 200 * 199
        assert kept < (16 if build is cyclic_group else 80) * arcs
        one_point = {}
        for g in graphs:
            for heads in g.out_adj:
                if len(heads) == 1:
                    assert one_point.setdefault(heads, heads) is heads
        assert len(one_point) == 200  # D_200: the antipodal graph
        self_paired = 0
        for g in graphs:
            paired = paired_graph(graphs, g)
            assert g.in_adj is paired.out_adj
            if paired is g:
                self_paired += 1
                assert is_self_paired(g)
        assert self_paired == (1 if build is cyclic_group else len(graphs))

    def test_complete_bipartite_graphs_share_one_out_list(self, corpus):
        # beta's stabilizer orbit is its whole orbit, so every tail's
        # out-list is that orbit: one tuple, and so is every in-list, the
        # paired graph being complete bipartite too
        groups = [*corpus, disjoint_symmetric_groups(4, 3), group_from(7, "(2,3,4)", "(5,6)")]
        shared = 0
        for group in groups:
            graphs = build_orbital_graphs(group, enumerate_base_pairs(group))
            for g in graphs:
                alpha, beta = g.base_pair
                if beta in group.orbit(alpha) or not is_futile_fast(group, alpha, beta):
                    continue
                reference = build_orbital_graph(group, alpha, beta)
                assert (g.out_adj, g.in_adj) == (reference.out_adj, reference.in_adj)
                assert len({id(heads) for heads in g.out_adj if heads}) == 1
                assert len({id(tails) for tails in g.in_adj if tails}) == 1
                shared += 1
        assert shared > 500

    @pytest.mark.parametrize(
        "group",
        [group_from(7, "(2,3,4)", "(5,6)"), PermGroup(2), group_from(3, "(2,3)")],
        ids=["C3xC2_on_7", "trivial_on_2", "C2_on_3"],
    )
    def test_small_tail_orbits(self, group):
        # each has a tail fixed by the group, whose orbit is a single row
        assert_builders_agree(group)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_every_slice_kind_under_one_tail(self, shuffled):
        # tail 1 has slices of 4, 1 and 2 points and a 3-point slice
        # covering the orbit {9, 10, 11}, and its orbit {1..8} is smaller
        # than n, so its lists are spread onto 1..11
        group = group_from(11, "(1,5)(2,7,4,3)(6,8)(9,10,11)", "(1,3)(2,6,4,8)(5,7)(9,11)")
        assert group.order() == 192
        pairs = enumerate_base_pairs(group)
        stab = group.point_stabilizer(1)
        assert [len(stab.orbit(b)) for a, b in pairs if a == 1] == [4, 1, 2, 3]
        assert group.orbit(1) == tuple(range(1, 9))
        if shuffled:
            random.Random(11).shuffle(pairs)
        graphs = build_orbital_graphs(group, pairs)
        assert [g.base_pair for g in graphs] == pairs
        # each graph equals the closure's, and its in_adj is its reverse's out_adj
        assert_matches_closure(group, graphs)
        one_point = {}
        for g in graphs:
            for heads in g.out_adj:
                if len(heads) == 1:
                    assert one_point.setdefault(heads, heads) is heads
        (single,) = [g for g in graphs if g.base_pair == (1, 5)]
        assert all(single.out_adj[x - 1] is one_point[(y,)] for x, y in single.arcs)
        (covering,) = [g for g in graphs if g.base_pair == (1, 9)]
        assert all(heads is group.orbit(9) for heads in covering.out_adj[:8])
        assert covering.out_adj[8:] == ((), (), ())
        for g in graphs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.degree = 12
            assert repr(g) == repr(build_orbital_graph(group, *g.base_pair))

    def test_slice_shapes_on_small_tail_orbits(self):
        # the fixed tails 1 and 7 slice their one row into 3, 2 and 1
        # points, and tail 2's orbit (2,3,4) leaves points with no out-list
        group = group_from(7, "(2,3,4)", "(5,6)")
        graphs = build_orbital_graphs(group, enumerate_base_pairs(group))
        widths = {r: [len(g.out_adj[r - 1]) for g in graphs if g.base_pair[0] == r] for r in (1, 7)}
        assert widths == {1: [3, 2, 1], 7: [1, 3, 2]}
        (tail_2,) = [g for g in graphs if g.base_pair == (2, 1)]
        assert tail_2.out_adj == ((), (1,), (1,), (1,), (), (), ())

    @pytest.mark.parametrize("build, bound", [(cyclic_group, 2.3), (dihedral_group, 1.4)])
    def test_batch_build_holds_no_copy_of_the_rows(self, build, bound):
        # the peak of an all-pairs build over what its graphs hold: a tail's
        # rows are about as large as its graphs and are read in place, so a
        # transposed copy of them shows here (C_400 2.88, D_400 1.52)
        group = build(400)
        pairs = enumerate_base_pairs(group)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = build_orbital_graphs(group, pairs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graphs) == len(pairs)
        assert (peak - before) / (held - before) <= bound

    def test_pair_set_not_closed_under_pairing(self, two_swaps):
        # in C_5 the reverse of (1, 2) is the orbital of (1, 5)
        c5 = cyclic_group(5)
        with pytest.raises(ValueError, match="not closed under pairing"):
            build_orbital_graphs(c5, [(1, 2)])
        assert len(build_orbital_graphs(c5, [(1, 2), (1, 5)])) == 2
        # the reverse of (1, 2) would have its tail at 2, which has no pair
        with pytest.raises(ValueError, match="not closed under pairing"):
            build_orbital_graphs(two_swaps, [(1, 2)])
        # the reverse of (1, 3), whose out-lists are all of {3, 4}, is the
        # complete bipartite graph of (3, 1), not the one-point graph of (3, 4)
        swaps = group_from(4, "(1,2)", "(3,4)")
        with pytest.raises(ValueError, match="not closed under pairing"):
            build_orbital_graphs(swaps, [(1, 3), (3, 4)])
        assert_matches_closure(swaps, build_orbital_graphs(swaps, [(1, 3), (3, 4), (3, 1)]))

    def test_tail_not_least_in_its_orbit(self):
        with pytest.raises(ValueError, match="tail 2 is not the least point"):
            build_orbital_graphs(cyclic_group(5), [(2, 3), (1, 2), (1, 5)])

    def test_two_pairs_naming_one_orbital(self):
        # the stabilizer of 1 in D_5 swaps 2 and 5
        d5 = dihedral_group(5)
        with pytest.raises(ValueError, match="name one orbital"):
            build_orbital_graphs(d5, [(1, 2), (1, 5)])
        with pytest.raises(ValueError, match="name one orbital"):
            build_orbital_graphs(d5, [(1, 2), (1, 3), (1, 2)])
        # two complete bipartite graphs: the stabilizer of 1 swaps 3 and 4
        swaps = group_from(4, "(1,2)", "(3,4)")
        with pytest.raises(ValueError, match="name one orbital"):
            build_orbital_graphs(swaps, [(1, 3), (1, 4), (3, 1)])

    def test_pair_validation(self, two_swaps):
        with pytest.raises(ValueError, match="distinct"):
            build_orbital_graphs(two_swaps, [(1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            build_orbital_graphs(two_swaps, [(1, 8)])
        # Python's own unpacking would otherwise raise its ValueError or a
        # TypeError
        for pair in [(1,), 1]:
            message = exactly(f"pairs must hold pairs of points, not {pair!r}")
            with pytest.raises(ValueError, match=message):
                build_orbital_graphs(two_swaps, [pair])
        # and list() a TypeError for pairs that are no iterable
        message = exactly("pairs must be an iterable of pairs of points")
        with pytest.raises(ValueError, match=message):
            build_orbital_graphs(two_swaps, 5)


def assert_sizes_are_independent(group):
    sized = list(_sized_base_pairs(group))
    assert [pair for pair, _ in sized] == enumerate_base_pairs(group)
    for (alpha, beta), sizes in sized:
        check_base_pair(group.degree, alpha, beta)
        assert sizes == _orbit_sizes(group, alpha, beta)


class TestSizedBasePairs:
    """The enumeration's sizes, read off the cells it walks, equal the ones
    _orbit_sizes looks up for each checked pair on its own."""

    @pytest.mark.parametrize("index", range(len(FORMULA_GROUPS)))
    def test_formula_groups(self, index):
        assert_sizes_are_independent(FORMULA_GROUPS[index])

    def test_block_preserving_groups(self):
        rng = random.Random(20261020)
        for _ in range(30):
            degree = rng.randint(6, 40)
            group = block_preserving_group(rng, degree, rng.randint(1, 3), rng.randint(2, 8))
            assert_sizes_are_independent(group)

    @given(groups_st())
    @settings(max_examples=60, deadline=None)
    def test_random_groups(self, group):
        assert_sizes_are_independent(group)

    @pytest.mark.parametrize("index", range(len(FORMULA_GROUPS)))
    def test_selection_looks_up_no_pair(self, monkeypatch, index):
        group = FORMULA_GROUPS[index]
        expected = [p for p in enumerate_base_pairs(group) if not is_futile_fast(group, *p)]

        def no_lookup(*args):
            raise AssertionError("per-pair orbit size lookup")

        monkeypatch.setattr("orbgraph.futility._orbit_sizes", no_lookup)
        assert [pair for pair, _ in select_useful_graphs(group)] == expected


class TestArcCount:
    # the fast verdict record's arc count, n*k from alpha's stabilizer
    @staticmethod
    def formula(group, alpha, beta):
        return verdict_record(group, alpha, beta, "fast")["arc_count"]

    def test_formula_examples(self, diagonal_triangles, two_swaps):
        assert self.formula(diagonal_triangles, 1, 4) == 6
        assert self.formula(two_swaps, 3, 4) == 4
        assert self.formula(PermGroup.symmetric(5), 1, 2) == 20

    def test_formula_equals_built_count(self, corpus_sample):
        for group in corpus_sample:
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                assert len(g.arcs) == self.formula(group, *pair)


class TestOrbitTable:
    """A group hands out one tuple per orbit: the orbit of a point is the
    very cell of the orbit partition that holds it, and the same-orbit
    flag of the orbit sizes compares those cells by identity."""

    @staticmethod
    def assert_orbit_table(group):
        cells = group.orbit_partition().cells
        for cell in cells:
            for p in cell:
                assert group.orbit(p) is cell
        assert sorted(p for cell in cells for p in cell) == list(range(1, group.degree + 1))
        for alpha, beta in enumerate_base_pairs(group):
            for a, b in ((alpha, beta), (beta, alpha)):
                check_base_pair(group.degree, a, b)
                assert _orbit_sizes(group, a, b)[3] == (b in group.orbit(a))

    def test_corpus(self, corpus_sample):
        for group in corpus_sample:
            self.assert_orbit_table(group)

    @pytest.mark.parametrize("index", range(len(FORMULA_GROUPS)))
    def test_formula_groups(self, index):
        self.assert_orbit_table(FORMULA_GROUPS[index])

    def test_point_stabilizers(self, two_triangles):
        for p in range(1, 10):
            self.assert_orbit_table(two_triangles.point_stabilizer(p))


class TestSelfPaired:
    def test_without_the_swap_in_the_group(self):
        # (1,2)(3,4) reverses the pair (1,2), yet the plain transposition
        # (1,2) is not a member
        group = group_from(4, "(1,2)(3,4)")
        g = build_orbital_graph(group, 1, 2)
        assert is_self_paired(g)
        assert parse_cycles("(1,2)", 4) not in group

    def test_proper_graph(self, two_swaps):
        assert not is_self_paired(build_orbital_graph(two_swaps, 1, 7))

    def test_symmetric_group_graph(self):
        assert is_self_paired(build_orbital_graph(PermGroup.symmetric(4), 1, 2))


class TestWeakComponents:
    def test_triangles_then_isolated(self, two_triangles):
        parts = weak_components(build_orbital_graph(two_triangles, 1, 2))
        assert parts.cells == ((1, 2, 3), (4, 5, 6), (7,), (8,), (9,))

    def test_component_cell_comes_first(self, two_swaps):
        parts = weak_components(build_orbital_graph(two_swaps, 3, 4))
        assert parts.cells == ((2, 3, 4, 6), (1,), (5,), (7,))

    def test_single_arc(self, two_swaps):
        parts = weak_components(build_orbital_graph(two_swaps, 1, 7))
        assert parts.cells == ((1, 7), (2,), (3,), (4,), (5,), (6,))


class TestArcMappingElement:
    def test_maps_pair_onto_target(self, two_triangles):
        h = arc_mapping_element(two_triangles, (1, 2), (5, 6))
        assert h is not None
        assert (h.apply(1), h.apply(2)) == (5, 6)
        assert h in two_triangles

    def test_none_when_no_element_exists(self, two_swaps):
        assert arc_mapping_element(two_swaps, (1, 7), (7, 1)) is None


class TestComponentsPairwiseIsomorphic:
    def test_two_triangles(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        assert components_pairwise_isomorphic(g, two_triangles)

    def test_single_big_component_is_trivially_true(self):
        group = group_from(4, "(1,2)", "(3,4)")
        g = build_orbital_graph(group, 1, 2)
        assert weak_components(g).cells == ((1, 2), (3,), (4,))
        assert components_pairwise_isomorphic(g, group)

    def test_degree_mismatch(self, two_swaps, two_triangles):
        g = build_orbital_graph(two_swaps, 1, 7)
        with pytest.raises(ValueError):
            components_pairwise_isomorphic(g, two_triangles)


class TestEnumerateBasePairs:
    def test_symmetric_group_has_one_pair(self):
        assert enumerate_base_pairs(PermGroup.symmetric(5)) == [(1, 2)]

    def test_trivial_group_has_all_pairs(self):
        assert enumerate_base_pairs(PermGroup(3)) == [
            (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
        ]

    def test_representatives_are_orbit_minima(self, two_swaps):
        pairs = enumerate_base_pairs(two_swaps)
        assert sorted({a for a, _ in pairs}) == [1, 2, 4, 5, 7]
        assert [b for a, b in pairs if a == 1] == [2, 4, 5, 7]

    def test_enumeration_is_already_distinct(self, two_swaps, two_triangles, corpus_sample):
        for group in (two_swaps, two_triangles, *corpus_sample):
            pairs = enumerate_base_pairs(group)
            arc_sets = {build_orbital_graph(group, *pair).arcs for pair in pairs}
            assert len(arc_sets) == len(pairs)

    def test_every_arc_set_is_covered(self, two_swaps):
        n = two_swaps.degree
        everything = {
            build_orbital_graph(two_swaps, a, b).arcs
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b
        }
        enumerated = {
            build_orbital_graph(two_swaps, *p).arcs
            for p in enumerate_base_pairs(two_swaps)
        }
        assert enumerated == everything


class TestEmission:
    def test_dot_format(self, two_swaps):
        g = build_orbital_graph(two_swaps, 3, 4)
        assert to_dot(g) == (
            "digraph orbital {\n"
            "  1;\n"
            "  5;\n"
            "  7;\n"
            "  2 -> 4;\n"
            "  2 -> 6;\n"
            "  3 -> 4;\n"
            "  3 -> 6;\n"
            "}"
        )

    def test_json_fields(self, two_swaps):
        g = build_orbital_graph(two_swaps, 1, 7)
        data = json.loads(graph_to_json(g))
        assert data == {
            "degree": 7,
            "base_pair": [1, 7],
            "arcs": [[1, 7]],
            "isolated": [2, 3, 4, 5, 6],
        }
