"""The three futility routes, the counting bounds, and the transitive case."""

import dataclasses
import random
import tracemalloc
from itertools import pairwise

import pytest
from hypothesis import given, settings

from orbgraph import futility, orbital
from orbgraph.futility import (
    METHODS,
    SHAPE_BIPARTITE,
    SHAPE_COMPLETE,
    SHAPE_NONE,
    is_futile_fast,
    is_futile_oracle,
    is_futile_structural,
    transitive_group_futility,
    verdict_record,
    verdict_records,
)
from orbgraph.orbital import (
    OrbitalGraph,
    _sized_base_pairs,
    build_orbital_graph,
    build_orbital_graphs,
    enumerate_base_pairs,
    is_self_paired,
    isolated_vertices,
)
from orbgraph.perm import PermGroup, Permutation, parse_cycles

from support import (
    all_elements,
    alternating_group,
    base_pairs_of,
    block_preserving_group,
    brute_futile,
    burnside_block_counts,
    cyclic_group,
    dihedral_group,
    disjoint_symmetric_groups,
    exactly,
    find_arc_violation,
    group_from,
    groups_st,
    partition_stabilizer_generators,
    pgl2,
    product_action_group,
    symmetric_group,
    wreath_group,
)


class TestFast:
    def test_single_arc_is_futile(self, two_swaps):
        assert is_futile_fast(two_swaps, 1, 7)

    def test_complete_bipartite_between_orbits(self, two_swaps):
        assert is_futile_fast(two_swaps, 1, 3)

    def test_two_triangles_not_futile(self, two_triangles):
        assert not is_futile_fast(two_triangles, 1, 2)

    def test_symmetric_group_always_futile(self):
        group = PermGroup.symmetric(5)
        for pair in base_pairs_of(group):
            assert is_futile_fast(group, *pair)

    def test_matches_definitional_brute_force(self, two_swaps, two_triangles,
                                              square_symmetries, diagonal_triangles):
        for group in (two_swaps, two_triangles, square_symmetries, diagonal_triangles):
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                assert is_futile_fast(group, *pair) == brute_futile(g, group)


def structural_record(graph, group) -> dict:
    """The structural verdict record of a graph, read at its base pair."""
    return verdict_records(group, *graph.base_pair, ["structural"], graph)[0]


def arc_points(graph) -> tuple[int, ...]:
    """The points on some arc: a futile graph's one nontrivial component."""
    isolated = set(isolated_vertices(graph))
    return tuple(v for v in range(1, graph.degree + 1) if v not in isolated)


class TestStructural:
    def test_two_triangles_verdict(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        assert is_futile_structural(g, two_triangles) is False
        record = structural_record(g, two_triangles)
        assert record["shape"] == SHAPE_NONE
        perm = parse_cycles(record["witness"]["permutation_cycles"], 9)
        # the witness really does break the graph and really does stabilize
        # the orbit partition
        x, y = record["witness"]["violated_arc"]
        assert g.has_arc(x, y)
        assert not g.has_arc(perm.apply(x), perm.apply(y))
        gens = partition_stabilizer_generators(two_triangles.orbit_partition())
        assert perm in PermGroup(9, gens)

    def test_single_arc_shape(self, two_swaps):
        g = build_orbital_graph(two_swaps, 1, 7)
        assert is_futile_structural(g, two_swaps) is True
        record = structural_record(g, two_swaps)
        assert record["shape"] == SHAPE_BIPARTITE
        assert record["witness"] is None
        assert arc_points(g) == (1, 7)

    def test_bipartite_shape(self, two_swaps):
        g = build_orbital_graph(two_swaps, 3, 4)
        assert is_futile_structural(g, two_swaps) is True
        assert structural_record(g, two_swaps)["shape"] == SHAPE_BIPARTITE
        assert arc_points(g) == (2, 3, 4, 6)

    def test_complete_shape(self):
        group = PermGroup.symmetric(4)
        g = build_orbital_graph(group, 1, 2)
        assert is_futile_structural(g, group) is True
        assert structural_record(g, group)["shape"] == SHAPE_COMPLETE
        assert arc_points(g) == (1, 2, 3, 4)

    def test_eight_arc_graph_not_futile(self, square_symmetries):
        g = build_orbital_graph(square_symmetries, 1, 2)
        assert is_futile_structural(g, square_symmetries) is False
        assert structural_record(g, square_symmetries)["witness"] is not None

    def test_witness_is_deterministic(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        record = structural_record(g, two_triangles)
        assert structural_record(g, two_triangles) == record
        assert record["witness"] == {"permutation_cycles": "(3,4)", "violated_arc": [1, 3]}

    @pytest.mark.parametrize(
        "pair,shape,component",
        [((3, 4), SHAPE_BIPARTITE, (2, 3, 4, 6)), ((2, 3), SHAPE_COMPLETE, (2, 3))],
    )
    def test_list_neighbour_lists(self, two_swaps, pair, shape, component):
        # a graph built by hand may hold lists; a point with an empty list,
        # [] as well as (), is neither tail nor head
        g = build_orbital_graph(two_swaps, *pair)
        listed = dataclasses.replace(
            g, out_adj=tuple(map(list, g.out_adj)), in_adj=tuple(map(list, g.in_adj))
        )
        assert is_futile_structural(listed, two_swaps) is True
        assert arc_points(listed) == component
        records = verdict_records(two_swaps, *pair, METHODS, listed)
        assert [r["futile"] for r in records] == [True] * len(METHODS)
        assert records[1]["shape"] == shape

    def test_degree_mismatch(self, two_swaps, two_triangles):
        g = build_orbital_graph(two_swaps, 1, 7)
        with pytest.raises(ValueError):
            is_futile_structural(g, two_triangles)

    def test_self_paired_futile_graphs_are_complete(self, corpus_sample):
        for group in corpus_sample:
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                record = structural_record(g, group)
                assert is_futile_structural(g, group) == record["futile"]
                if record["futile"]:
                    expected = SHAPE_COMPLETE if is_self_paired(g) else SHAPE_BIPARTITE
                    assert record["shape"] == expected


class RecordingLists(tuple):
    """Neighbour lists that append (name, index) to reads for every list
    handed out."""

    def __new__(cls, lists, name, reads):
        self = super().__new__(cls, lists)
        self.name, self.reads = name, reads
        return self

    def __getitem__(self, index):
        self.reads.append((self.name, index))
        return super().__getitem__(index)


class TestOracle:
    def test_examples(self, two_swaps, two_triangles):
        assert is_futile_oracle(build_orbital_graph(two_swaps, 1, 7), two_swaps)
        assert not is_futile_oracle(
            build_orbital_graph(two_triangles, 1, 2), two_triangles
        )

    def test_matches_full_element_enumeration(self, two_swaps, two_triangles,
                                              square_symmetries, diagonal_triangles):
        for group in (two_swaps, two_triangles, square_symmetries, diagonal_triangles):
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                assert is_futile_oracle(g, group) == brute_futile(g, group)

    def test_generators_of_the_group_never_violate(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        assert find_arc_violation(g, two_triangles.generators) is None

    @pytest.mark.parametrize("fixed_point", [True, False], ids=["futile", "not-futile"])
    def test_memory_grows_linearly(self, fixed_point):
        # C_n plus a fixed point with pair (1, n+1) is futile, C_n with pair
        # (1, 2) is not. A search holding one degree-n permutation per orbit
        # transposition grows 16x from n = 1000 to 4000 and a linear one 4x;
        # both sizes lie well above the ints CPython caches (up to 256), so
        # the witness's images are allocated at either size
        def peak(n):
            images = [x % n + 1 for x in range(1, n + 1)] + ([n + 1] if fixed_point else [])
            group = PermGroup(len(images), [Permutation(images)])
            graph = build_orbital_graph(group, 1, n + 1 if fixed_point else 2)
            group.orbit_partition()
            tracemalloc.start()
            try:
                assert is_futile_oracle(graph, group) == fixed_point
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) < 8 * peak(1000)

    def test_bipartite_futile_graphs_need_no_arc_lookups(self, corpus_sample):
        # a futile bipartite graph is alpha's orbit x beta's orbit, so two
        # points of one orbit cell have equal neighbour lists and the
        # search settles every swap (a, b) from the four lists it compares,
        # reading no other list and looking up no arc
        checked = 0
        for group in corpus_sample:
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                if structural_record(g, group)["shape"] != SHAPE_BIPARTITE:
                    continue
                reads = []
                counted = dataclasses.replace(
                    g,
                    out_adj=RecordingLists(g.out_adj, "out", reads),
                    in_adj=RecordingLists(g.in_adj, "in", reads),
                )
                assert is_futile_oracle(counted, group)
                expected = [
                    (name, p - 1)
                    for cell in group.orbit_partition().cells
                    for a, b in pairwise(cell)
                    for name in ("out", "in")
                    for p in (a, b)
                ]
                assert reads == expected
                checked += 1
        assert checked > 0


    def test_search_skips_cells_without_arcs(self):
        # C_5 x C_5 on 1..5 and 6..10: a graph on 6..10 has no list at
        # 1..5, so every swap there fixes it, and the witness is the first
        # swap of the cell 6..10 with the least arc it moves
        group = group_from(10, "(1,2,3,4,5)", "(6,7,8,9,10)")
        g = build_orbital_graph(group, 6, 7)
        assert futility._witness(g, group) == ((6, 7), (6, 7))

    @pytest.mark.parametrize(
        "arcs",
        [[(3, 4)], [(2, 9)], [(7, 5)], [(4, 5), (5, 4)], [(8, 9), (9, 8)], [(1, 6), (2, 7)]],
    )
    def test_cells_with_arcs_off_their_first_point(self, arcs):
        # no orbital graph has these: an orbit cell whose first point has
        # no arc but a later point has one. The search must walk the cell,
        # and its witness is the reference sweep's, which the structural
        # test also gives
        group = group_from(10, "(1,2,3,4,5)", "(6,7,8,9,10)")
        g = graph_of_arcs(10, arcs)
        gens = partition_stabilizer_generators(group.orbit_partition())
        perm, arc = find_arc_violation(g, gens)
        assert futility._witness(g, group) == (perm.cycles()[0], arc)
        assert not is_futile_oracle(g, group)
        assert is_futile_structural(g, group) is False
        record = structural_record(g, group)
        assert record["shape"] == SHAPE_NONE
        assert record["witness"] == {
            "permutation_cycles": perm.cycle_string(),
            "violated_arc": list(arc),
        }


def graph_of_arcs(degree, arcs) -> OrbitalGraph:
    """A graph built by hand from its arcs, with the least as base pair."""
    out, inn = [[] for _ in range(degree)], [[] for _ in range(degree)]
    for x, y in sorted(arcs):
        out[x - 1].append(y)
        inn[y - 1].append(x)
    return OrbitalGraph(degree, min(arcs), tuple(map(tuple, out)), tuple(map(tuple, inn)))


class TestHandBuiltShapes:
    """Graphs no base pair builds: the structural test calls a shape
    futile only when its tails, and heads, are unions of whole orbits,
    so it agrees with the oracle."""

    def test_single_arc_inside_an_orbit(self):
        # tails {3} and heads {4} are disjoint, with |tails||heads| arcs,
        # but lie inside the orbit 1..5, whose swap (2,3) moves the arc
        group = group_from(10, "(1,2,3,4,5)", "(6,7,8,9,10)")
        g = graph_of_arcs(10, [(3, 4)])
        assert is_futile_structural(g, group) is False
        assert not is_futile_oracle(g, group)
        records = verdict_records(group, 3, 4, METHODS, g)
        assert [r["futile"] for r in records] == [False] * len(METHODS)
        assert records[1]["shape"] == SHAPE_NONE
        assert records[1]["witness"] == {"permutation_cycles": "(2,3)", "violated_arc": [3, 4]}

    def test_arcs_in_one_orbit_block(self):
        # seeded subsets of one block O1 x O2 (O1 = O2 allowed, loops
        # left out), the whole block among them
        rng = random.Random(20261020)
        checked = futile = 0
        for _ in range(60):
            group = block_preserving_group(rng, rng.randint(4, 14), rng.randint(1, 2), 3)
            cells = group.orbit_partition().cells
            o1, o2 = rng.choice(cells), rng.choice(cells)
            block = [(x, y) for x in o1 for y in o2 if x != y]
            if not block:
                continue
            for arcs in (block, rng.sample(block, rng.randint(1, len(block)))):
                g = graph_of_arcs(group.degree, arcs)
                verdict = is_futile_structural(g, group)
                assert verdict == is_futile_oracle(g, group) == (len(arcs) == len(block))
                checked += 1
                futile += verdict
        assert checked > 80 and 0 < futile < checked

    @pytest.mark.parametrize(
        "arcs,shape",
        [
            # the complete digraph on two orbits
            ([(x, y) for x in range(1, 6) for y in range(1, 6) if x != y], SHAPE_COMPLETE),
            # two orbits to a third
            ([(x, y) for x in (1, 2, 3, 4, 5) for y in (6, 7, 8)], SHAPE_BIPARTITE),
            # a third to two orbits
            ([(x, y) for x in (6, 7, 8) for y in (1, 2, 3, 4, 5)], SHAPE_BIPARTITE),
        ],
    )
    def test_unions_of_whole_orbits(self, arcs, shape):
        group = group_from(8, "(1,2)", "(3,4,5)", "(6,7,8)")
        g = graph_of_arcs(8, arcs)
        assert is_futile_structural(g, group) is True
        assert structural_record(g, group)["shape"] == shape
        assert is_futile_oracle(g, group)

    def test_futile_union_of_two_blocks_has_no_witness(self):
        # O1 x O2 with O2 x O1 is futile but of neither shape, so the
        # structural test calls it non-futile, finds no witness, and raises
        group = group_from(8, "(1,2)", "(3,4,5)", "(6,7,8)")
        arcs = [(x, y) for x in (1, 2) for y in (3, 4, 5)]
        g = graph_of_arcs(8, arcs + [(y, x) for x, y in arcs])
        assert is_futile_oracle(g, group)
        with pytest.raises(RuntimeError, match="every orbit-partition stabilizer generator"):
            is_futile_structural(g, group)

    def test_arc_free_graph_is_complete_on_no_points(self):
        group = group_from(4, "(1,2)")
        g = OrbitalGraph(4, (1, 2), ((),) * 4, ((),) * 4)
        assert is_futile_structural(g, group) is True
        assert futility._shape(g, group, 0) == SHAPE_COMPLETE
        assert arc_points(g) == ()
        assert is_futile_oracle(g, group)
        # its base pair is no arc, so it has no verdict record
        with pytest.raises(ValueError, match="not an arc"):
            structural_record(g, group)


class EqualityRefused(tuple):
    """A neighbour list that may be compared only by identity."""

    def __eq__(self, other):
        raise AssertionError("a shared neighbour list compared entry by entry")

    __hash__ = tuple.__hash__


def test_oracle_tells_shared_lists_by_identity():
    # the batch builder gives every point of a complete bipartite graph one
    # out-list or one in-list, and == would read all of it at every point
    group = group_from(12, "(1,2,3,4,5)", "(6,7,8,9,10,11,12)")
    pairs = enumerate_base_pairs(group)
    checked = 0
    for g in build_orbital_graphs(group, pairs):
        if structural_record(g, group)["shape"] != SHAPE_BIPARTITE:
            continue
        refusing = {}

        def wrap(lists):
            return tuple(refusing.setdefault(id(x), EqualityRefused(x)) if x else x for x in lists)

        wrapped = dataclasses.replace(g, out_adj=wrap(g.out_adj), in_adj=wrap(g.in_adj))
        assert is_futile_oracle(wrapped, group)
        checked += 1
    assert checked == 2


class TestStabilizerTransitivity:
    # across orbits, futile exactly when alpha's stabilizer is transitive
    # on beta's orbit, which is the fast test's cross-orbit branch
    def test_cross_orbit_examples(self, two_swaps, diagonal_triangles):
        assert is_futile_fast(two_swaps, 1, 3)
        assert not is_futile_fast(diagonal_triangles, 1, 4)

    def test_fixed_points_pair(self, two_swaps):
        assert is_futile_fast(two_swaps, 1, 7)


class TestArcCountBounds:
    # the thresholds each verdict record carries; the fast record's arc
    # count is n*k, read from alpha's stabilizer and not from a graph
    def test_within_orbit_threshold_met_exactly(self, square_symmetries):
        rec = verdict_record(square_symmetries, 1, 2, "fast")
        assert rec["thresholds"] == {"threshold": 8, "exceeds": False}
        assert rec["arc_count"] == len(build_orbital_graph(square_symmetries, 1, 2).arcs) == 8

    def test_cross_orbit_threshold_met_exactly(self, diagonal_triangles):
        rec = verdict_record(diagonal_triangles, 1, 4, "fast")
        assert rec["thresholds"] == {"threshold": 6, "exceeds": False}
        assert rec["arc_count"] == len(build_orbital_graph(diagonal_triangles, 1, 4).arcs) == 6

    def test_complete_graph_exceeds(self):
        rec = verdict_record(PermGroup.symmetric(4), 1, 2, "fast")
        assert rec["thresholds"] == {"threshold": 8, "exceeds": True}

    def test_exceeding_implies_futile(self, corpus_sample):
        # one direction of the equivalence below, kept as its own check;
        # both sides of the threshold occur in the sample
        exceeding = not_exceeding = 0
        for group in corpus_sample:
            for pair in enumerate_base_pairs(group):
                if verdict_record(group, *pair, "fast")["thresholds"]["exceeds"]:
                    assert is_futile_fast(group, *pair)
                    exceeding += 1
                else:
                    not_exceeding += 1
        assert exceeding > 0 and not_exceeding > 0

    def test_exceeding_is_futility(self, corpus_sample):
        # non-futile graphs have at most n(n-2) arcs within an orbit and
        # min(n(m-1), m(n-1)) across, futile ones n(n-1) or n*m
        for group in corpus_sample:
            for pair in base_pairs_of(group):
                exceeds = verdict_record(group, *pair, "fast")["thresholds"]["exceeds"]
                assert exceeds == is_futile_fast(group, *pair)


class TestTransitiveGroups:
    def test_two_transitive_is_futile(self):
        assert transitive_group_futility(PermGroup.symmetric(4))

    def test_transitive_but_not_two_transitive(self, square_symmetries):
        assert not transitive_group_futility(square_symmetries)
        cyclic = group_from(4, "(1,2,3,4)")
        assert not transitive_group_futility(cyclic)

    def test_intransitive_group_is_an_error(self, two_swaps):
        with pytest.raises(ValueError, match="transitive"):
            transitive_group_futility(two_swaps)

    @pytest.mark.parametrize(
        "build, args, futile",
        [
            (PermGroup, (1,), False),
            (cyclic_group, (2,), True),
            (cyclic_group, (30,), False),
            (dihedral_group, (3,), True),
            (dihedral_group, (64,), False),
            (symmetric_group, (2,), True),
            (symmetric_group, (24,), True),
            (alternating_group, (3,), False),
            (alternating_group, (21,), True),
            (pgl2, (13,), True),
            (wreath_group, (3, 4), False),
            (wreath_group, (2, 5), False),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_builds_no_stabilizer_chain(self, monkeypatch, build, args, futile):
        group = build(*args)

        def no_chain(*_):
            raise AssertionError("stabilizer chain built")

        monkeypatch.setattr("orbgraph.perm._build_chain", no_chain)
        assert transitive_group_futility(group) == futile

    def test_verdict_is_uniform_over_base_pairs(self, square_symmetries):
        expected = transitive_group_futility(square_symmetries)
        for pair in base_pairs_of(square_symmetries):
            g = build_orbital_graph(square_symmetries, *pair)
            assert is_futile_oracle(g, square_symmetries) == expected


class TestVerdictRecord:
    def test_fast_record(self, two_swaps):
        rec = verdict_record(two_swaps, 1, 7, "fast")
        assert rec == {
            "base_pair": [1, 7],
            "futile": True,
            "shape": "complete-bipartite",
            "method": "fast",
            "witness": None,
            "arc_count": 1,
            "thresholds": {"threshold": 0, "exceeds": True},
        }

    def test_structural_record_carries_witness(self, two_triangles):
        rec = verdict_record(two_triangles, 1, 2, "structural")
        assert rec["futile"] is False
        assert rec["shape"] == "not-futile"
        assert rec["witness"] == {
            "permutation_cycles": "(3,4)",
            "violated_arc": [1, 3],
        }
        assert rec["arc_count"] == 12

    def test_records_share_no_object(self, two_triangles):
        # so changing any part of one record leaves the others alone: no
        # dict or list is in two records, though their pairs, witnesses
        # and thresholds are equal
        records = verdict_records(two_triangles, 1, 2, METHODS)
        fast, structural, oracle = records
        assert fast["thresholds"] == structural["thresholds"] == oracle["thresholds"]
        assert structural["witness"] == oracle["witness"] is not None

        def containers(value):
            if isinstance(value, (dict, list)):
                yield value
                for part in value.values() if isinstance(value, dict) else value:
                    yield from containers(part)

        # each record, its pair and its thresholds, and each witness with
        # its arc
        ids = [id(c) for record in records for c in containers(record)]
        assert len(ids) == len(set(ids)) == 3 * 3 + 2 * 2

    def test_oracle_record_shape_from_self_pairing(self, two_swaps):
        rec = verdict_record(two_swaps, 1, 3, "oracle")
        assert rec["futile"] is True
        assert rec["shape"] == "complete-bipartite"
        assert rec["witness"] is None

    def test_unknown_method(self, two_swaps):
        with pytest.raises(ValueError, match="method"):
            verdict_record(two_swaps, 1, 7, "guess")

    def test_methods_that_are_no_iterable(self, two_swaps):
        # iterating would otherwise raise TypeError
        message = exactly("methods must be an iterable of method names")
        with pytest.raises(ValueError, match=message):
            verdict_records(two_swaps, 1, 7, 5)

    def test_methods_from_an_iterator(self, corpus_sample):
        # the methods are read once, so a one-shot iterator serves the
        # unknown-method check and the verdicts alike
        groups = [group_from(4, "(1,2,3,4)"), *corpus_sample[:10]]
        for group in groups:
            for pair in enumerate_base_pairs(group):
                oracle = verdict_records(group, *pair, ["oracle"])
                assert verdict_records(group, *pair, iter(["oracle"])) == oracle
                both = verdict_records(group, *pair, ["fast", "oracle"])
                assert verdict_records(group, *pair, (m for m in ["fast", "oracle"])) == both
                assert len(oracle) == 1 and len(both) == 2

    @pytest.mark.parametrize("methods", [["fast"], ["structural"], ["oracle"], list(METHODS)])
    def test_graph_that_is_no_orbital_graph(self, two_swaps, methods):
        # reading .degree would otherwise raise AttributeError
        message = exactly("graph must be an OrbitalGraph, not int")
        with pytest.raises(ValueError, match=message):
            verdict_records(two_swaps, 1, 7, methods, 5)
        with pytest.raises(ValueError, match=message):
            is_futile_structural(5, two_swaps)
        with pytest.raises(ValueError, match=message):
            is_futile_oracle(5, two_swaps)

    def test_graph_of_another_pair(self, two_swaps):
        # the graph of (4,2) does not hold (1,2); read as (1,2)'s graph it
        # gave a fast arc count of 2 against an oracle count of 4
        g = build_orbital_graph(two_swaps, 4, 2)
        with pytest.raises(ValueError, match=r"\(1,2\) is not an arc"):
            verdict_records(two_swaps, 1, 2, METHODS, g)

    def test_graph_of_a_larger_degree(self, two_swaps, two_triangles):
        # it gave an oracle verdict "futile" with 12 arcs
        g = build_orbital_graph(two_triangles, 1, 2)
        with pytest.raises(ValueError, match="degrees differ"):
            verdict_record(two_swaps, 1, 2, "oracle", g)

    def test_graph_of_a_smaller_degree(self, two_swaps, two_triangles):
        # it gave a witness about the arc (2,3)
        g = build_orbital_graph(two_swaps, 2, 3)
        with pytest.raises(ValueError, match="degrees differ"):
            verdict_record(two_triangles, 2, 3, "oracle", g)

    def test_pair_is_checked_before_the_graph(self, two_swaps, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            verdict_record(two_swaps, 1, 9, "oracle", g)

    def test_all_methods_search_each_graph_once(self, monkeypatch, corpus_sample):
        # the records of all three methods equal the single-method records,
        # and the oracle reuses a witness the structural test has found
        searches = []
        search = futility._witness
        monkeypatch.setattr(futility, "_witness", lambda *a: searches.append(a) or search(*a))
        for group in corpus_sample:
            for alpha, beta in enumerate_base_pairs(group):
                g = build_orbital_graph(group, alpha, beta)
                searches.clear()
                records = verdict_records(group, alpha, beta, METHODS, g)
                assert len(searches) == 1
                assert records == [verdict_record(group, alpha, beta, m, g) for m in METHODS]

    def test_given_graph_spares_the_stabilizer(self, monkeypatch, corpus_sample):
        # without the fast method only the graph is read: a given one, or
        # else the pair's, built once. Its out-degree at alpha is the
        # stabilizer orbit size, so the records equal those made beside a
        # fast record, whose thresholds read the stabilizer
        groups = [*corpus_sample, cyclic_group(200)]
        methods = (["structural"], ["oracle"], ["structural", "oracle"])
        cases = []
        for group in groups:
            for alpha, beta in enumerate_base_pairs(group):
                g = build_orbital_graph(group, alpha, beta)
                for m in methods:
                    expected = verdict_records(group, alpha, beta, ["fast", *m])[1:]
                    cases.append((group, alpha, beta, m, g, expected))

        def no_stabilizer(*_):
            raise AssertionError("point stabilizer built")

        builds = []
        build = futility.build_orbital_graph
        monkeypatch.setattr(
            futility, "build_orbital_graph", lambda *a: builds.append(a) or build(*a)
        )
        monkeypatch.setattr(PermGroup, "point_stabilizer", no_stabilizer)
        for group, alpha, beta, m, g, expected in cases:
            builds.clear()
            assert verdict_records(group, alpha, beta, m, g) == expected
            assert builds == []
            assert verdict_records(group, alpha, beta, m) == expected
            assert builds == [(group, alpha, beta)]
        with pytest.raises(AssertionError, match="point stabilizer"):
            verdict_records(*cases[0][:3], ["fast", "structural"], cases[0][4])

    def test_checks_the_pair_once(self, monkeypatch, corpus_sample):
        # with a graph given, with one built by closure and with none
        cases = []
        for group in corpus_sample[:20]:
            for alpha, beta in enumerate_base_pairs(group):
                g = build_orbital_graph(group, alpha, beta)
                for methods in (METHODS, ["fast"], ["structural", "oracle"]):
                    cases += [(group, alpha, beta, methods, g), (group, alpha, beta, methods, None)]
        checks = []
        check = futility.check_base_pair
        counting = lambda *a: checks.append(a) or check(*a)
        monkeypatch.setattr(futility, "check_base_pair", counting)
        monkeypatch.setattr(orbital, "check_base_pair", counting)
        for group, alpha, beta, methods, g in cases:
            checks.clear()
            verdict_records(group, alpha, beta, methods, g)
            assert checks == [(group.degree, alpha, beta)]

    def test_all_methods_read_the_orbit_sizes_once(self, monkeypatch, corpus_sample):
        # and build the pair's graph once, where the fast method alone
        # builds none
        reads, builds = [], []
        sizes = futility._orbit_sizes
        build = futility.build_orbital_graph
        monkeypatch.setattr(futility, "_orbit_sizes", lambda *a: reads.append(a) or sizes(*a))
        monkeypatch.setattr(
            futility, "build_orbital_graph", lambda *a: builds.append(a) or build(*a)
        )
        pairs = 0
        for group in corpus_sample:
            for alpha, beta in enumerate_base_pairs(group):
                builds.clear()
                verdict_records(group, alpha, beta, METHODS)
                assert builds == [(group, alpha, beta)]
                verdict_records(group, alpha, beta, ["fast"])
                assert builds == [(group, alpha, beta)]
                pairs += 1
        assert len(reads) == 2 * pairs > 0


@given(groups_st(min_degree=3, max_degree=6))
@settings(max_examples=40, deadline=None)
def test_three_routes_agree(group):
    for alpha, beta in base_pairs_of(group):
        g = build_orbital_graph(group, alpha, beta)
        fast = is_futile_fast(group, alpha, beta)
        structural = is_futile_structural(g, group)
        oracle = is_futile_oracle(g, group)
        assert type(structural) is bool
        assert fast == structural == oracle


@given(groups_st(min_degree=3, max_degree=5))
@settings(max_examples=25, deadline=None)
def test_oracle_generator_check_equals_full_element_check(group):
    for pair in enumerate_base_pairs(group):
        g = build_orbital_graph(group, *pair)
        assert is_futile_oracle(g, group) == brute_futile(g, group)


def test_three_routes_agree_at_larger_degrees():
    # seeded differential sweep past the brute-force corpus: thousands of
    # enumerated pairs on block-preserving groups of degree 20-60
    rng = random.Random(20261018)
    verdicts, swept = set(), 0
    for _ in range(30):
        degree = rng.randint(20, 60)
        group = block_preserving_group(rng, degree, rng.randint(1, 3), rng.randint(2, 8))
        pairs = enumerate_base_pairs(group)
        arc_sets = set()
        for alpha, beta in pairs:
            g = build_orbital_graph(group, alpha, beta)
            fast = is_futile_fast(group, alpha, beta)
            assert fast == is_futile_structural(g, group) == is_futile_oracle(g, group)
            rec = verdict_record(group, alpha, beta, "fast")
            assert rec["thresholds"]["exceeds"] == fast
            assert rec["arc_count"] == len(g.arcs)
            arc_sets.add(g.arcs)
            verdicts.add(fast)
        # the enumeration emits one pair per distinct graph
        assert len(arc_sets) == len(pairs)
        swept += len(pairs)
    assert verdicts == {True, False} and swept > 1000


def _family(build, argsets, pairs, futile):
    return [
        pytest.param(build, args, pairs(*args), futile, id=f"{build.__name__}{args}")
        for args in argsets
    ]


# For a transitive group the base pairs number the rank minus 1.
FORMULA_FAMILIES = [
    # rank n; each graph is a union of directed cycles or perfect matchings
    *_family(cyclic_group, [(3,), (4,), (7,), (30,), (200,)], lambda n: n - 1, 0),
    # rank floor(n/2) + 1; each graph is a union of cycles or matchings
    *_family(dihedral_group, [(4,), (5,), (6,), (9,), (64,), (200,)], lambda n: n // 2, 0),
    # rank 3: k disjoint complete digraphs, and the complete multipartite one
    *_family(wreath_group, [(2, 2), (2, 5), (3, 4), (4, 4), (5, 3)], lambda m, k: 2, 0),
    # rank 4 on the m x k grid: same row, same column, neither
    *_family(product_action_group, [(2, 2), (2, 3), (3, 4), (5, 5)], lambda m, k: 3, 0),
    # 2-transitive: the one graph is the complete digraph
    *_family(symmetric_group, [(4,), (9,), (24,)], lambda n: 1, 1),
    *_family(alternating_group, [(5,), (9,), (21,)], lambda n: 1, 1),
    *_family(pgl2, [(5,), (13,), (31,), (61,)], lambda p: 1, 1),
    # two orbits: a complete digraph on each, complete bipartite both ways
    *_family(disjoint_symmetric_groups, [(2, 2), (2, 5), (4, 3), (6, 6)], lambda a, b: 4, 4),
]


@pytest.mark.parametrize("build, args, pairs, futile", FORMULA_FAMILIES)
def test_formula_families(build, args, pairs, futile):
    group = build(*args)
    found = enumerate_base_pairs(group)
    assert len(found) == pairs
    verdicts = []
    for alpha, beta in found:
        g = build_orbital_graph(group, alpha, beta)
        fast = is_futile_fast(group, alpha, beta)
        assert fast == is_futile_structural(g, group) == is_futile_oracle(g, group)
        rec = verdict_record(group, alpha, beta, "fast")
        assert rec["thresholds"]["exceeds"] == fast
        assert rec["arc_count"] == len(g.arcs)
        verdicts.append(fast)
    assert sum(verdicts) == futile


def block_counts(group) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Per orbit block, keyed as burnside_block_counts keys it, the
    enumeration's pairs, how many of them the fast test calls futile, and
    how many of their graphs are self-paired."""
    sized = list(_sized_base_pairs(group))
    graphs = build_orbital_graphs(group, [pair for pair, _ in sized])
    counts = {}
    for ((alpha, beta), sizes), g in zip(sized, graphs):
        key = (alpha, group.orbit(beta)[0])
        pairs, futile, paired = counts.get(key, (0, 0, 0))
        counts[key] = (pairs + 1, futile + futility._fast(sizes), paired + is_self_paired(g))
    return counts


def assert_burnside_counts(group):
    # a graph is futile exactly when it is the one orbital of its block
    expected = {
        key: (orbitals, int(orbitals == 1), paired)
        for key, (orbitals, paired) in burnside_block_counts(group).items()
    }
    found = dict.fromkeys(expected, (0, 0, 0))
    found.update(block_counts(group))
    assert found == expected


def test_burnside_counts_per_orbit_block(corpus):
    # the corpus groups of order at most 5000, block by block: Burnside's
    # lemma over every element against the enumeration and the graphs
    groups = [group for group in corpus if group.order() <= 5000]
    for group in groups:
        assert_burnside_counts(group)
    assert len(groups) > 300


@pytest.mark.parametrize(
    "build, args",
    [
        (cyclic_group, (30,)),
        (dihedral_group, (64,)),
        (wreath_group, (2, 5)),
        (product_action_group, (3, 4)),
        (alternating_group, (7,)),
        (pgl2, (13,)),
        (disjoint_symmetric_groups, (4, 3)),
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_burnside_counts_on_formula_families(build, args):
    assert_burnside_counts(build(*args))


def _reference_groups(corpus):
    yield from corpus
    rng = random.Random(1)
    for _ in range(200):
        degree = rng.randint(6, 30)
        yield block_preserving_group(rng, degree, rng.randint(1, 3), rng.randint(2, 6))
    for n in range(2, 40):
        yield cyclic_group(n)
        yield dihedral_group(n)
    yield from map(symmetric_group, range(3, 9))
    yield from (wreath_group(3, 3), wreath_group(4, 4), pgl2(13))


def test_witness_equals_reference_sweep(corpus):
    # the library applies each adjacent transposition of an orbit cell to
    # the arcs at its two points; the reference applies each to every arc
    swept = futile = 0
    for group in _reference_groups(corpus):
        gens = partition_stabilizer_generators(group.orbit_partition())
        for alpha, beta in enumerate_base_pairs(group):
            g = build_orbital_graph(group, alpha, beta)
            expected = find_arc_violation(g, gens)
            witness = futility._witness(g, group)
            assert witness == (None if expected is None else (expected[0].cycles()[0], expected[1]))
            record = verdict_record(group, alpha, beta, "oracle", g)["witness"]
            if expected is None:
                assert record is None
                futile += 1
            else:
                perm, arc = expected
                assert record == {
                    "permutation_cycles": perm.cycle_string(),
                    "violated_arc": list(arc),
                }
            swept += 1
    assert swept > 10000 and 0 < futile < swept
