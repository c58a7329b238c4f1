"""Command line front end.

Subcommands: orbits, graph, base-pairs, futility, refine. The group comes
from a file, or inline when the argument starts with "degree:" or contains
a newline. Exit codes: 0 success, 1 usage error, 2 input error, 3 internal
verdict disagreement or other internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .futility import METHODS, verdict_records
from .orbital import (
    build_orbital_graph,
    enumerate_base_pairs,
    graph_to_json,
    is_self_paired,
    isolated_vertices,
    to_dot,
    weak_components,
)
from .perm import OrderedPartition, PermGroup, _is_decimal, load_group, parse_group_text
from .refine import refine_by_graph, trace_record


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; here usage problems are exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _pair_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a,b")
    if not all(map(_is_decimal, parts)):
        raise argparse.ArgumentTypeError("expected integers a,b")
    return int(parts[0]), int(parts[1])


def _load_group(arg: str) -> PermGroup:
    if "\n" in arg or arg.lstrip().startswith("degree:"):
        return parse_group_text(arg)
    try:
        return load_group(arg)
    except OSError as exc:
        raise ValueError(f"cannot read group file {arg!r}: {exc}") from None


def _component_sizes(graph) -> str:
    sizes = [len(c) for c in weak_components(graph).cells if len(c) > 1]
    return "+".join(map(str, sizes))


def _cmd_orbits(args) -> int:
    group = _load_group(args.group)
    print(group.orbit_partition())
    return 0


def _cmd_graph(args) -> int:
    group = _load_group(args.group)
    alpha, beta = args.pair
    graph = build_orbital_graph(group, alpha, beta)
    if args.dot:
        print(to_dot(graph))
    elif args.json:
        print(graph_to_json(graph))
    else:
        arcs = graph.arcs
        print(f"base pair: ({alpha},{beta})")
        print(f"arcs ({len(arcs)}): " + " ".join(f"({x},{y})" for x, y in arcs))
        iso = isolated_vertices(graph)
        print(f"isolated ({len(iso)}):" + ("".join(f" {v}" for v in iso) or " -"))
        print(f"self-paired: {'yes' if is_self_paired(graph) else 'no'}")
    return 0


def _cmd_base_pairs(args) -> int:
    group = _load_group(args.group)
    for a, b in enumerate_base_pairs(group):
        print(f"{a},{b}")
    return 0


def _futility_records(group, alpha, beta, methods, table):
    # the table's paired and components columns read the graph, so only a
    # fast-only JSON run goes without it
    graph = None
    if table or any(m != "fast" for m in methods):
        graph = build_orbital_graph(group, alpha, beta)
    return verdict_records(group, alpha, beta, methods, graph), graph


def _cmd_futility(args) -> int:
    group = _load_group(args.group)
    methods = list(METHODS) if args.method == "all" else [args.method]
    pairs = [args.pair] if args.pair is not None else enumerate_base_pairs(group)

    all_records = []
    rows = []
    for alpha, beta in pairs:
        records, graph = _futility_records(group, alpha, beta, methods, not args.json)
        verdicts = {r["futile"] for r in records}
        if len(verdicts) > 1:
            detail = ", ".join(f"{r['method']}={r['futile']}" for r in records)
            print(
                f"verdict disagreement for pair ({alpha},{beta}): {detail}",
                file=sys.stderr,
            )
            return 3
        all_records.extend(records)
        rows.append(((alpha, beta), records, graph))

    if args.json:
        print(json.dumps(all_records))
        return 0

    print(
        f"degree {group.degree}, order {group.order()}, "
        f"transitivity degree {group.transitivity_degree()}"
    )
    print("orbit partition " + str(group.orbit_partition()))
    if args.pair is not None:
        (alpha, beta), records, graph = rows[0]
        paired = "yes" if is_self_paired(graph) else "no"
        extra = f", self-paired {paired}, components {_component_sizes(graph)}"
        print(f"pair ({alpha},{beta}): {records[0]['arc_count']} arcs{extra}")
        for r in records:
            line = f"  {r['method'] + ':':<12} {'futile, ' + r['shape'] if r['futile'] else 'not futile'}"
            if r["witness"] is not None:
                w = r["witness"]
                x, y = w["violated_arc"]
                line += f"  (witness {w['permutation_cycles']} moves arc ({x},{y}) off the graph)"
            print(line)
    else:
        print(
            f"{'pair':<8}{'arcs':>6}  {'futile':<8}{'paired':<8}"
            f"{'shape':<20}components"
        )
        for (alpha, beta), records, graph in rows:
            r = records[0]
            paired = "yes" if is_self_paired(graph) else "no"
            verdict = "yes" if r["futile"] else "no"
            print(
                f"({alpha},{beta})".ljust(8)
                + f"{r['arc_count']:>6}  "
                + f"{verdict:<8}{paired:<8}{r['shape']:<20}"
                + _component_sizes(graph)
            )
    return 0


def _cmd_refine(args) -> int:
    group = _load_group(args.group)
    alpha, beta = args.pair
    graph = build_orbital_graph(group, alpha, beta)
    if args.partition == "unit":
        start = OrderedPartition.unit(group.degree)
    else:
        start = group.orbit_partition()
    trace = refine_by_graph(start, graph)
    print(json.dumps(trace_record(trace)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbgraph",
        description="Orbital graphs of permutation groups: build, enumerate, "
        "test futility, refine partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    group_help = "group file, or the group text itself (first line 'degree: n')"

    p = sub.add_parser("orbits", help="print the orbit partition")
    p.add_argument("group", help=group_help)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("graph", help="build one orbital graph")
    p.add_argument("group", help=group_help)
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="a,b")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT")
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("base-pairs", help="enumerate one pair per orbital graph")
    p.add_argument("group", help=group_help)
    p.add_argument(
        "--dedup",
        action="store_true",
        help="accepted for compatibility; no effect, since the enumeration "
        "never repeats a graph",
    )
    p.set_defaults(func=_cmd_base_pairs)

    p = sub.add_parser("futility", help="run the futility tests")
    p.add_argument("group", help=group_help)
    p.add_argument("--pair", type=_pair_arg, metavar="a,b")
    p.add_argument("--method", choices=list(METHODS) + ["all"], default="all")
    p.add_argument("--json", action="store_true", help="emit verdict records as JSON")
    p.set_defaults(func=_cmd_futility)

    p = sub.add_parser("refine", help="refine a partition by one graph")
    p.add_argument("group", help=group_help)
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="a,b")
    p.add_argument("--partition", choices=["unit", "orbit"], default="orbit")
    p.set_defaults(func=_cmd_refine)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # the library raises RuntimeError only on an internal inconsistency
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
