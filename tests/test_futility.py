"""The three futility routes, the counting bounds, and the transitive case."""

import dataclasses
import random
import tracemalloc
from itertools import pairwise

import pytest
from hypothesis import given, settings

from orbgraph import futility
from orbgraph.futility import (
    METHODS,
    SHAPE_BIPARTITE,
    SHAPE_COMPLETE,
    SHAPE_NONE,
    arc_count_bounds,
    is_futile_fast,
    is_futile_oracle,
    is_futile_structural,
    transitive_group_futility,
    verdict_record,
    verdict_records,
)
from orbgraph.orbital import arc_count_formula, build_orbital_graph, enumerate_base_pairs
from orbgraph.perm import PermGroup, Permutation

from support import (
    all_elements,
    alternating_group,
    base_pairs_of,
    block_preserving_group,
    brute_futile,
    cyclic_group,
    dihedral_group,
    disjoint_symmetric_groups,
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


class TestStructural:
    def test_two_triangles_verdict(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        v = is_futile_structural(g, two_triangles)
        assert not v.futile
        assert v.shape == SHAPE_NONE
        assert v.component is None
        perm, arc = v.witness
        # the witness really does break the graph and really does stabilize
        # the orbit partition
        x, y = arc
        assert g.has_arc(x, y)
        assert not g.has_arc(perm.apply(x), perm.apply(y))
        gens = partition_stabilizer_generators(two_triangles.orbit_partition())
        assert perm in PermGroup(9, gens)

    def test_single_arc_shape(self, two_swaps):
        g = build_orbital_graph(two_swaps, 1, 7)
        v = is_futile_structural(g, two_swaps)
        assert v.futile and v.shape == SHAPE_BIPARTITE
        assert v.component == (1, 7)
        assert v.witness is None

    def test_bipartite_shape(self, two_swaps):
        g = build_orbital_graph(two_swaps, 3, 4)
        v = is_futile_structural(g, two_swaps)
        assert v.futile and v.shape == SHAPE_BIPARTITE
        assert v.component == (2, 3, 4, 6)

    def test_complete_shape(self):
        group = PermGroup.symmetric(4)
        v = is_futile_structural(build_orbital_graph(group, 1, 2), group)
        assert v.futile and v.shape == SHAPE_COMPLETE
        assert v.component == (1, 2, 3, 4)

    def test_eight_arc_graph_not_futile(self, square_symmetries):
        g = build_orbital_graph(square_symmetries, 1, 2)
        v = is_futile_structural(g, square_symmetries)
        assert not v.futile
        assert v.witness is not None

    def test_witness_is_deterministic(self, two_triangles):
        g = build_orbital_graph(two_triangles, 1, 2)
        v1 = is_futile_structural(g, two_triangles)
        v2 = is_futile_structural(g, two_triangles)
        assert v1.witness == v2.witness
        perm, arc = v1.witness
        assert perm.cycle_string() == "(3,4)"
        assert arc == (1, 3)

    def test_degree_mismatch(self, two_swaps, two_triangles):
        g = build_orbital_graph(two_swaps, 1, 7)
        with pytest.raises(ValueError):
            is_futile_structural(g, two_triangles)

    def test_self_paired_futile_graphs_are_complete(self, corpus_sample):
        from orbgraph.orbital import is_self_paired

        for group in corpus_sample:
            for pair in enumerate_base_pairs(group):
                g = build_orbital_graph(group, *pair)
                v = is_futile_structural(g, group)
                if v.futile:
                    expected = SHAPE_COMPLETE if is_self_paired(g) else SHAPE_BIPARTITE
                    assert v.shape == expected


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
                if is_futile_structural(g, group).shape != SHAPE_BIPARTITE:
                    continue
                reads = []
                counted = dataclasses.replace(
                    g,
                    out_adj=RecordingLists(g.out_adj, "out", reads),
                    in_adj=RecordingLists(g.in_adj, "in", reads),
                )
                assert is_futile_oracle(counted, group)
                assert reads == [
                    (name, p - 1)
                    for cell in group.orbit_partition().cells
                    for a, b in pairwise(cell)
                    for name in ("out", "in")
                    for p in (a, b)
                ]
                checked += 1
        assert checked > 0


class TestStabilizerTransitivity:
    # across orbits, futile exactly when alpha's stabilizer is transitive
    # on beta's orbit, which is the fast test's cross-orbit branch
    def test_cross_orbit_examples(self, two_swaps, diagonal_triangles):
        assert is_futile_fast(two_swaps, 1, 3)
        assert not is_futile_fast(diagonal_triangles, 1, 4)

    def test_fixed_points_pair(self, two_swaps):
        assert is_futile_fast(two_swaps, 1, 7)


class TestArcCountBounds:
    def test_within_orbit_threshold_met_exactly(self, square_symmetries):
        bounds = arc_count_bounds(square_symmetries, 1, 2)
        assert bounds.threshold == 8
        assert not bounds.exceeds
        assert len(build_orbital_graph(square_symmetries, 1, 2).arcs) == 8

    def test_cross_orbit_threshold_met_exactly(self, diagonal_triangles):
        bounds = arc_count_bounds(diagonal_triangles, 1, 4)
        assert bounds.threshold == 6
        assert not bounds.exceeds
        assert len(build_orbital_graph(diagonal_triangles, 1, 4).arcs) == 6

    def test_complete_graph_exceeds(self):
        bounds = arc_count_bounds(PermGroup.symmetric(4), 1, 2)
        assert bounds.threshold == 8
        assert bounds.exceeds

    def test_exceeding_implies_futile(self, corpus_sample):
        # one direction of the equivalence below, kept as its own check;
        # both sides of the threshold occur in the sample
        exceeding = not_exceeding = 0
        for group in corpus_sample:
            for pair in enumerate_base_pairs(group):
                bounds = arc_count_bounds(group, *pair)
                if bounds.exceeds:
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
                assert arc_count_bounds(group, *pair).exceeds == is_futile_fast(group, *pair)


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

    def test_oracle_record_shape_from_self_pairing(self, two_swaps):
        rec = verdict_record(two_swaps, 1, 3, "oracle")
        assert rec["futile"] is True
        assert rec["shape"] == "complete-bipartite"
        assert rec["witness"] is None

    def test_unknown_method(self, two_swaps):
        with pytest.raises(ValueError, match="method"):
            verdict_record(two_swaps, 1, 7, "guess")

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

    def test_all_methods_read_the_orbit_sizes_once(self, monkeypatch, corpus_sample):
        reads = []
        sizes = futility._pair_orbit_sizes
        monkeypatch.setattr(futility, "_pair_orbit_sizes", lambda *a: reads.append(a) or sizes(*a))
        pairs = 0
        for group in corpus_sample:
            for alpha, beta in enumerate_base_pairs(group):
                verdict_records(group, alpha, beta, METHODS)
                pairs += 1
        assert len(reads) == pairs > 0


@given(groups_st(min_degree=3, max_degree=6))
@settings(max_examples=40, deadline=None)
def test_three_routes_agree(group):
    for alpha, beta in base_pairs_of(group):
        g = build_orbital_graph(group, alpha, beta)
        fast = is_futile_fast(group, alpha, beta)
        structural = is_futile_structural(g, group)
        oracle = is_futile_oracle(g, group)
        assert fast == structural.futile == oracle


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
            assert fast == is_futile_structural(g, group).futile == is_futile_oracle(g, group)
            assert arc_count_bounds(group, alpha, beta).exceeds == fast
            assert arc_count_formula(group, alpha, beta) == len(g.arcs)
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
        assert fast == is_futile_structural(g, group).futile == is_futile_oracle(g, group)
        assert arc_count_bounds(group, alpha, beta).exceeds == fast
        assert arc_count_formula(group, alpha, beta) == len(g.arcs)
        verdicts.append(fast)
    assert sum(verdicts) == futile


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
            assert is_futile_structural(g, group).witness == expected
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
