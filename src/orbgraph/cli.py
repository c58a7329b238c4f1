"""Command line front end.

Subcommands: orbits, graph, base-pairs, futility, refine. The group comes
from a file, or inline when the argument starts with "degree:" or contains
a newline. Exit codes: 0 success, 1 usage error, 2 input error, 3 internal
error, 141 when the reader of standard output closed it early. The
library raises RuntimeError only on an internal inconsistency, such as
the futility methods disagreeing on a pair, which the verdict step
checks for the CLI and verdict_records alike; run() reports it as one
"internal error: ..." line on stderr and exit 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .futility import METHODS, _checked_pair, _pair_verdicts, _verdicts_json
from .orbital import (
    _sized_base_pairs,
    build_orbital_graph,
    build_orbital_graphs,
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


def _cmd_futility(args) -> int:
    group = _load_group(args.group)
    methods = list(METHODS) if args.method == "all" else [args.method]
    # the table's paired and components columns read the graph, so only a
    # fast-only JSON run goes without it
    build = not args.json or any(m != "fast" for m in methods)
    if args.pair is not None:
        # one pair is closed under the generators; verdict_records' helper
        # checks the pair and the graph and reads the pair's orbit sizes
        pairs = [args.pair]
        graph = build_orbital_graph(group, *args.pair) if build else None
        methods, graph, sizes = _checked_pair(group, *args.pair, methods, graph)
        graphs, sizes_of = [graph], [sizes]
    else:
        # a whole enumeration is built from its stabilizers, and each pair
        # takes its orbit sizes from the cells the enumeration walks; the
        # library made the pairs and graphs, so none is checked again
        sized = list(_sized_base_pairs(group))
        pairs = [pair for pair, _ in sized]
        graphs = build_orbital_graphs(group, pairs) if build else [None] * len(pairs)
        sizes_of = [sizes for _, sizes in sized]

    # every verdict is made, and its methods' agreement checked, before
    # anything is printed; a disagreement raises RuntimeError, exit 3
    rows = [
        _pair_verdicts(group, pair, methods, graph, sizes)
        for pair, graph, sizes in zip(pairs, graphs, sizes_of)
    ]

    if args.json:
        print(_verdicts_json(pairs, sizes_of, rows))
        return 0

    print(
        f"degree {group.degree}, order {group.order()}, "
        f"transitivity degree {group.transitivity_degree()}"
    )
    print("orbit partition " + str(group.orbit_partition()))
    if args.pair is not None:
        (alpha, beta), verdicts, graph = pairs[0], rows[0], graphs[0]
        paired = "yes" if is_self_paired(graph) else "no"
        extra = f", self-paired {paired}, components {_component_sizes(graph)}"
        print(f"pair ({alpha},{beta}): {verdicts[0][4]} arcs{extra}")
        for method, futile, shape, witness, _ in verdicts:
            line = f"  {method + ':':<12} {'futile, ' + shape if futile else 'not futile'}"
            if witness is not None:
                (a, b), (x, y) = witness
                line += f"  (witness ({a},{b}) moves arc ({x},{y}) off the graph)"
            print(line)
    else:
        print(
            f"{'pair':<8}{'arcs':>6}  {'futile':<8}{'paired':<8}"
            f"{'shape':<20}components"
        )
        for (alpha, beta), graph, verdicts in zip(pairs, graphs, rows):
            _, futile, shape, _, arc_count = verdicts[0]
            paired = "yes" if is_self_paired(graph) else "no"
            verdict = "yes" if futile else "no"
            print(
                f"({alpha},{beta})".ljust(8)
                + f"{arc_count:>6}  "
                + f"{verdict:<8}{paired:<8}{shape:<20}"
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
    print(json.dumps(trace_record(trace), check_circular=False))
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early, as `| head` does; aim stdout at devnull
        # so the interpreter's last flush fails no more, and exit with the
        # status a shell gives a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
