"""Acceptance gate.

One test per criterion, each printing a single pass/fail line (run with -s
to watch them live). The agreement, identity, and dichotomy criteria share
one seeded corpus sweep; its wall time is what the agreement budget is
measured against.
"""

import functools
import time
from dataclasses import dataclass

import pytest

from orbgraph.futility import (
    is_futile_fast,
    is_futile_oracle,
    is_futile_structural,
    transitive_group_futility,
    verdict_record,
    verdict_records,
)
from orbgraph.orbital import (
    build_orbital_graph,
    enumerate_base_pairs,
    is_self_paired,
    isolated_vertices,
    weak_components,
)
from orbgraph.perm import OrderedPartition, PermGroup, parse_cycles
from orbgraph.refine import refine_by_graph

from conftest import CorpusConfig
from support import (
    arc_mapping_element,
    components_pairwise_isomorphic,
    find_arc_violation,
    group_from,
)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return run

    return wrap


def all_pairs(group):
    n = group.degree
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]


@dataclass(frozen=True)
class PairScan:
    fast: bool
    structural: bool
    oracle: bool
    built_arcs: int
    formula_arcs: int


@pytest.fixture(scope="session")
def corpus_scan(corpus):
    """Three-way verdicts and arc counts for every valid base pair of every
    corpus group, with the sweep's wall time. The formula count n*k is
    the fast verdict record's, read from alpha's stabilizer."""
    start = time.perf_counter()
    scans = []
    for group in corpus:
        rows = {}
        for pair in all_pairs(group):
            graph = build_orbital_graph(group, *pair)
            rows[pair] = PairScan(
                fast=is_futile_fast(group, *pair),
                structural=is_futile_structural(graph, group),
                oracle=is_futile_oracle(graph, group),
                built_arcs=len(graph.arcs),
                formula_arcs=verdict_record(group, *pair, "fast")["arc_count"],
            )
        scans.append(rows)
    elapsed = time.perf_counter() - start
    return scans, elapsed


@criterion("1 (worked examples reproduce, exact, under 1s)")
def test_criterion_1_worked_examples():
    start = time.perf_counter()

    two_swaps = group_from(7, "(2,3)", "(4,6)")
    g = build_orbital_graph(two_swaps, 1, 7)
    assert g.arcs == ((1, 7),)
    assert isolated_vertices(g) == (2, 3, 4, 5, 6)
    assert build_orbital_graph(two_swaps, 1, 3).arcs == ((1, 2), (1, 3))
    assert build_orbital_graph(two_swaps, 3, 4).arcs == (
        (2, 4), (2, 6), (3, 4), (3, 6),
    )

    two_triangles = group_from(
        9, "(1,2)", "(1,3)", "(4,5)", "(4,6)", "(1,4)(2,5)(3,6)", "(7,8,9)"
    )
    g = build_orbital_graph(two_triangles, 1, 2)
    parts = weak_components(g)
    assert parts.cells[:2] == ((1, 2, 3), (4, 5, 6))
    for cell in parts.cells[:2]:
        members = set(cell)
        assert sum(1 for a in g.arcs if a[0] in members) == 6
    assert isolated_vertices(g) == (7, 8, 9)
    assert is_futile_structural(g, two_triangles) is False
    assert not is_futile_fast(two_triangles, 1, 2)
    assert not is_futile_oracle(g, two_triangles)
    witness = verdict_records(two_triangles, 1, 2, ["structural"], g)[0]["witness"]
    perm = parse_cycles(witness["permutation_cycles"], 9)
    arc = witness["violated_arc"]
    assert g.has_arc(*arc)
    assert not g.has_arc(perm.apply(arc[0]), perm.apply(arc[1]))

    square = group_from(4, "(1,2,4,3)", "(1,2)(3,4)")
    g = build_orbital_graph(square, 1, 2)
    rec = verdict_record(square, 1, 2, "fast")
    assert len(g.arcs) == rec["arc_count"] == 8
    assert rec["thresholds"] == {"threshold": 8, "exceeds": False}

    diagonal = group_from(6, "(1,2,3)(4,5,6)", "(1,3)(4,5)")
    g = build_orbital_graph(diagonal, 1, 4)
    rec = verdict_record(diagonal, 1, 4, "fast")
    assert len(g.arcs) == rec["arc_count"] == 6
    assert rec["thresholds"] == {"threshold": 6, "exceeds": False}

    assert time.perf_counter() - start < 1.0


@criterion("2 (three-way agreement over the corpus, zero disagreements, under 60s)")
def test_criterion_2_three_way_agreement(corpus, corpus_scan):
    scans, elapsed = corpus_scan
    cfg = CorpusConfig()
    assert len(corpus) >= 500
    assert cfg.min_degree == 4 and cfg.max_degree == 8 and cfg.max_generators == 3
    pairs = 0
    for rows in scans:
        for scan in rows.values():
            assert scan.fast == scan.structural == scan.oracle
            pairs += 1
    assert pairs > 0
    assert elapsed <= 60.0


@criterion("3 (arc-count identity exact on the corpus)")
def test_criterion_3_arc_count_identity(corpus_scan):
    scans, _ = corpus_scan
    for rows in scans:
        for scan in rows.values():
            assert scan.built_arcs == scan.formula_arcs


@criterion("4 (transitive dichotomy exact)")
def test_criterion_4_transitive_dichotomy(corpus, corpus_scan):
    scans, _ = corpus_scan
    seen_transitive = 0
    for group, rows in zip(corpus, scans):
        if not group.is_transitive():
            continue
        seen_transitive += 1
        expected = transitive_group_futility(group)
        for scan in rows.values():
            assert scan.oracle == expected
    assert seen_transitive > 0


@criterion("5 (base-pair enumeration covers every distinct arc set, degree <= 7)")
def test_criterion_5_enumeration_complete(corpus):
    checked = 0
    for group in corpus:
        if group.degree > 7:
            continue
        checked += 1
        everything = {
            build_orbital_graph(group, *pair).arcs for pair in all_pairs(group)
        }
        enumerated = {
            build_orbital_graph(group, *pair).arcs
            for pair in enumerate_base_pairs(group)
        }
        assert enumerated == everything
    assert checked > 0


@criterion("6 (structural properties hold corpus-wide, zero violations)")
def test_criterion_6_structural_properties(corpus):
    for group in corpus:
        domain = set(range(1, group.degree + 1))
        for alpha, beta in enumerate_base_pairs(group):
            graph = build_orbital_graph(group, alpha, beta)

            # (i) every arc regenerates the same graph
            for arc in graph.arcs:
                assert build_orbital_graph(group, *arc).arcs == graph.arcs

            # (ii) self-paired exactly when some element swaps the pair
            swap = arc_mapping_element(group, (alpha, beta), (beta, alpha))
            assert is_self_paired(graph) == (swap is not None)
            if swap is not None:
                assert (swap.apply(alpha), swap.apply(beta)) == (beta, alpha)

            # (iii, iv) arc tails fill alpha's orbit, heads fill beta's
            assert {x for x, _ in graph.arcs} == set(group.orbit(alpha))
            assert {y for _, y in graph.arcs} == set(group.orbit(beta))

            # (v) degrees at the base pair match stabilizer orbit sizes
            stab_a = group.point_stabilizer(alpha)
            stab_b = group.point_stabilizer(beta)
            assert len(graph.out_adj[alpha - 1]) == len(stab_a.orbit(beta))
            assert len(graph.in_adj[beta - 1]) == len(stab_b.orbit(alpha))

            # isolated vertices are exactly the points in neither orbit;
            # in particular transitive groups leave nothing isolated
            assert set(isolated_vertices(graph)) == (
                domain - set(group.orbit(alpha)) - set(group.orbit(beta))
            )
            if group.is_transitive():
                assert isolated_vertices(graph) == ()

            # group elements act as graph automorphisms
            assert find_arc_violation(graph, group.generators) is None

            # components are pairwise isomorphic under the group
            assert components_pairwise_isomorphic(graph, group)


@criterion("7 (futile graphs never split the orbit partition; refiner not vacuous)")
def test_criterion_7_refinement(corpus, corpus_scan):
    scans, _ = corpus_scan
    nonfutile_unit_splits = 0
    for group, rows in zip(corpus, scans):
        orbit_part = group.orbit_partition()
        unit = OrderedPartition.unit(group.degree)
        for pair in enumerate_base_pairs(group):
            graph = build_orbital_graph(group, *pair)
            if rows[pair].oracle:
                assert refine_by_graph(orbit_part, graph).split_count == 0
            elif refine_by_graph(unit, graph).split_count >= 1:
                nonfutile_unit_splits += 1
    assert nonfutile_unit_splits >= 1
