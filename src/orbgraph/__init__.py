"""Orbital graphs of finite permutation groups: construction, base-pair
enumeration, three-way futility testing, and splitter-queue refinement."""

from .futility import (
    METHODS,
    SHAPE_BIPARTITE,
    SHAPE_COMPLETE,
    SHAPE_NONE,
    FutilityVerdict,
    is_futile_fast,
    is_futile_oracle,
    is_futile_structural,
    transitive_group_futility,
    verdict_record,
    verdict_records,
)
from .orbital import (
    OrbitalGraph,
    build_orbital_graph,
    build_orbital_graphs,
    check_base_pair,
    enumerate_base_pairs,
    graph_to_json,
    is_self_paired,
    isolated_vertices,
    to_dot,
    weak_components,
)
from .perm import (
    OrderedPartition,
    PermGroup,
    Permutation,
    load_group,
    parse_cycles,
    parse_group_text,
)
from .refine import RefinementTrace, refine_by_graph, select_useful_graphs, trace_record

__version__ = "0.1.0"
