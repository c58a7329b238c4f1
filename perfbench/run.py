"""orbgraph benchmark: one seeded workload, timed in a closed loop.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. One
process, one thread, one caller: each operation starts when the previous
one has ended. Every input is run once per pass, passes repeat until the
time is up (at least MIN_PASSES), and the garbage collector runs between
operations, outside the timed region. An input's latency is its fastest
repeat; percentiles are taken over inputs. The set-up runs again after
every pass, and setup_s adds up each set-up part's fastest repeat.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half replaying each operation under spans, and prints the
per-layer metrics. The last line of stdout is one JSON object; the lines
before it repeat the metrics for people. Exit status is 1 if any output
check failed and 2 if the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 11
MIN_PASSES = 3
MAX_REPORTED_PROBLEMS = 5


def _import_library():
    """Put ./src and this directory first on the path; exit 2 unless
    orbgraph then comes from ./src, so an installed copy is never timed."""
    problem = None
    if not (SRC / "orbgraph" / "__init__.py").is_file():
        problem = f"no orbgraph package under {SRC}; run from a repository checkout"
    else:
        sys.path[:0] = [str(SRC), str(HERE)]
        import orbgraph

        if SRC not in Path(orbgraph.__file__).resolve().parents:
            problem = f"orbgraph was imported from {orbgraph.__file__}, not {SRC}"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        raise SystemExit(2)


class Loop:
    """Runs passes over the inputs and checks every output. The first
    output of each input gets the full check; later ones, traced replays
    included, must equal it."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.expected: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0

    def _verify(self, i: int, out) -> str | None:
        wl = self.workload
        if i not in self.expected:
            problem = wl.check(self.inputs[i], out)
            if problem is None:
                self.expected[i] = wl.digest(out)
            return problem
        if wl.digest(out) != self.expected[i]:
            return "output differs from this input's first output"
        return None

    def run(self, seconds: float, min_passes: int, tracer=None, after_pass=None):
        """Per-input lists of op seconds. With a tracer, each op is the
        workload's replay inside an "op" span. after_pass() runs after
        every pass, untimed."""
        wl = self.workload
        times: list[list[float]] = [[] for _ in self.inputs]
        deadline = perf_counter() + seconds
        passes = 0
        while passes < min_passes or perf_counter() < deadline:
            for i, inp in enumerate(self.inputs):
                gc.collect()
                self.attempted += 1
                try:
                    if tracer is None:
                        start = perf_counter()
                        out = wl.op(inp)
                        elapsed = perf_counter() - start
                    else:
                        tracer.op_id += 1
                        with tracer.span("op") as op_span:
                            out = wl.replay(inp, tracer)
                        elapsed = op_span.seconds
                    problem = self._verify(i, out)
                except Exception as exc:  # a raising op is a failed op
                    problem = f"{type(exc).__name__}: {exc}"
                if problem is None:
                    times[i].append(elapsed)
                else:
                    self.failed += 1
                    if self.failed <= MAX_REPORTED_PROBLEMS:
                        print(f"check failed on input {i}: {problem}", file=sys.stderr)
            if after_pass is not None:
                after_pass()
            passes += 1
        return times


def _latencies(times) -> list[float]:
    """Each input's fastest repeat. On a shared host the same op runs at
    two speeds about 1.6x apart, and the share of slow periods changes from
    run to run; the fastest repeat moves least with it."""
    return [min(t) for t in times if t]


def _ops_per_s(times) -> float:
    """Operations per second over one pass at each input's latency."""
    latencies = _latencies(times)
    return len(latencies) / sum(latencies)


def _mean_rate(times) -> float:
    """Operations per second over every repeat; the tracing overhead
    compares runs with different numbers of passes, where a fastest-repeat
    rate would favour the run with more."""
    return sum(map(len, times)) / sum(map(sum, times))


def timed_setup(wl, seed: int, part_times) -> list:
    """The workload's inputs for seed. Each set-up part's seconds are
    appended to its list in part_times."""
    gc.collect()
    inputs = []
    for k, part in enumerate(wl.setup_parts(seed)):
        start = perf_counter()
        inputs += part()
        part_times[k].append(perf_counter() - start)
    return inputs


def _setup_s(part_times) -> float:
    """Set-up seconds at each part's fastest repeat. The repeats are spread
    over the whole run, one after each pass, so that no single fast or
    slow period of a shared host sets the figure; see _latencies."""
    return sum(min(t) for t in part_times.values())


def end_to_end(times, part_times) -> dict:
    latencies = sorted(x * 1000 for x in _latencies(times))
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": (_ops_per_s(times), "1/s"),
        "op_ms.p50": (statistics.median(latencies), "ms"),
        "op_ms.p90": (deciles[8], "ms"),
        "setup_s": (_setup_s(part_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(op_tr, sweep_tr, ops: int, untraced_rate: float, traced_rate: float) -> dict:
    """Per-op layer metrics. A span name the replayed operation records is
    read from its spans; any other from the sweep. Ratios and the CLI come
    from the sweep, where every group goes through the same cold path."""
    op_names = op_tr.names()
    op_totals, sweep_totals = op_tr.totals(), sweep_tr.totals()

    def source(name):
        return (op_tr, op_totals) if name in op_names else (sweep_tr, sweep_totals)

    def self_ms(name):
        return source(name)[1][1].get(name, 0.0) * 1000 / ops

    def incl_ms(name):
        return source(name)[1][0].get(name, 0.0) * 1000 / ops

    def calls(name):
        return source(name)[1][2].get(name, 0) / ops

    def count(span_name, name):
        return source(span_name)[0].counts.get(name, 0.0) / ops

    incl, own, _ = sweep_totals
    sw = sweep_tr.counts
    cold_fast = own.get("perm.point_stabilizer", 0.0) + own.get("futility.is_futile_fast", 0.0)
    built = own.get("orbital.build_orbital_graph", 0.0) + own.get(
        "futility.is_futile_structural", 0.0
    )
    pairs = sw.get("sweep.pairs", 0.0)
    rounds_tr, rounds_totals = source("refine.refine_by_graph")
    rounds = rounds_tr.counts.get("refine.rounds", 0.0)
    refine_s = rounds_totals[0].get("refine.refine_by_graph", 0.0)
    return {
        "perm.order_ms": (self_ms("perm.order"), "ms/op"),
        "perm.point_stabilizer_ms": (self_ms("perm.point_stabilizer"), "ms/op"),
        "perm.point_stabilizer_calls": (calls("perm.point_stabilizer"), "count/op"),
        "perm.transitivity_degree_ms": (self_ms("perm.transitivity_degree"), "ms/op"),
        "perm.stabilizer_gens": (count("perm.point_stabilizer", "perm.stabilizer_gens"), "count/op"),
        "perm.strong_gens": (count("perm.order", "perm.strong_gens"), "count/op"),
        "perm.parse_ms": (self_ms("perm.parse_group_text"), "ms/op"),
        "orbital.enumerate_ms": (self_ms("orbital.enumerate_base_pairs"), "ms/op"),
        "orbital.build_ms": (self_ms("orbital.build_orbital_graph"), "ms/op"),
        "orbital.graphs_built": (calls("orbital.build_orbital_graph"), "count/op"),
        "orbital.arcs_built": (count("orbital.build_orbital_graph", "orbital.arcs_built"), "count/op"),
        "futility.fast_ms": (self_ms("futility.is_futile_fast"), "ms/op"),
        "futility.fast_cold_us_per_pair": (cold_fast * 1e6 / pairs, "us/pair"),
        "futility.structural_ms": (self_ms("futility.is_futile_structural"), "ms/op"),
        "futility.oracle_ms": (self_ms("futility.is_futile_oracle"), "ms/op"),
        "futility.verdict_record_ms": (self_ms("futility.verdict_record"), "ms/op"),
        "futility.skip_share": (sw.get("sweep.futile", 0.0) / pairs, "share"),
        "futility.fast_vs_built_ratio": (cold_fast / built, "ratio"),
        "refine.refine_ms": (self_ms("refine.refine_by_graph"), "ms/op"),
        "refine.calls": (calls("refine.refine_by_graph"), "count/op"),
        "refine.rounds": (rounds / ops, "count/op"),
        "refine.splits": (count("refine.refine_by_graph", "refine.splits"), "count/op"),
        "refine.us_per_round": (refine_s * 1e6 / rounds if rounds else 0.0, "us/round"),
        "refine.select_useful_ms": (incl_ms("refine.select_useful_graphs"), "ms/op"),
        "cli.run_ms": (incl.get("cli.run", 0.0) * 1000 / ops, "ms/op"),
        "cli.overhead_ms": (sw.get("cli.overhead_s", 0.0) * 1000 / ops, "ms/op"),
        "trace.coverage": (op_tr.coverage("op"), "share"),
        "trace.overhead": (untraced_rate / traced_rate - 1, "share"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbgraph benchmark")
    parser.add_argument("--workload", required=True, choices=["plan", "refine", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_library()
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]()
    part_times = defaultdict(list)
    inputs = timed_setup(wl, args.seed, part_times)
    gc.collect()
    gc.freeze()  # keeps the per-op collections from walking the inputs

    loop = Loop(wl, inputs)
    if not args.trace:
        times = loop.run(
            args.seconds, MIN_PASSES, after_pass=lambda: timed_setup(wl, args.seed, part_times)
        )
        while len(part_times[0]) < SETUP_REPEATS:
            timed_setup(wl, args.seed, part_times)
        metrics = end_to_end(times, part_times)
    else:
        untraced = _mean_rate(loop.run(args.seconds / 2, 1))
        op_tr, sweep_tr = Tracer(), Tracer()
        covered: set[str] = set()

        def sweep():
            covered.update(op_tr.names())
            for subject in workloads.subjects(inputs):
                gc.collect()
                workloads.sweep(subject, covered, sweep_tr)

        times = loop.run(args.seconds / 2, 1, op_tr, sweep)
        ops = sum(len(t) for t in times)
        metrics = per_layer(op_tr, sweep_tr, ops, untraced, _mean_rate(times))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        op_tr.dump(out_dir / f"trace-{args.workload}-{args.seed}-op.json")
        sweep_tr.dump(out_dir / f"trace-{args.workload}-{args.seed}-sweep.json")

    print(
        f"{args.workload}: seed {args.seed}, {len(inputs)} inputs, "
        f"{loop.attempted} ops attempted, {loop.failed} failed"
    )
    print(f"  {'failed_share':<32} {loop.failed / loop.attempted:.6g} share")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
