"""Orbital graph construction and the queries on built graphs."""

import json

import pytest
from hypothesis import given, settings

from orbgraph.orbital import (
    arc_count_formula,
    build_orbital_graph,
    enumerate_base_pairs,
    graph_to_json,
    is_self_paired,
    isolated_vertices,
    to_dot,
    weak_components,
)
from orbgraph.perm import PermGroup, parse_cycles

from support import (
    all_elements,
    arc_mapping_element,
    brute_arcs,
    components_pairwise_isomorphic,
    group_from,
    groups_st,
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
        assert (5, 2) in g.arc_set

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

    @given(groups_st(max_degree=6))
    @settings(max_examples=30, deadline=None)
    def test_arcs_match_brute_force(self, group):
        elements = all_elements(group)
        assert build_orbital_graph(group, 1, 2).arcs == brute_arcs(elements, 1, 2)


class TestArcCount:
    def test_formula_examples(self, diagonal_triangles, two_swaps):
        assert arc_count_formula(diagonal_triangles, 1, 4) == 6
        assert arc_count_formula(two_swaps, 3, 4) == 4
        assert arc_count_formula(PermGroup.symmetric(5), 1, 2) == 20

    def test_formula_equals_built_count(self, corpus_sample):
        for group in corpus_sample:
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                assert len(g.arcs) == arc_count_formula(group, *pair)


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
            arc_sets = {build_orbital_graph(group, *pair).arc_set for pair in pairs}
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
