"""In-memory spans and counts, recorded by the benchmark around its calls
into the library.

A span is (name, start, end, parent index, op id). Self time is a span's
duration minus the durations of its direct children. Nothing is written
until dump() is called at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, number of spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls

    def coverage(self, op_name: str) -> float:
        """Share of the time of spans named op_name that their direct
        children cover."""
        op_time = covered = 0.0
        ops = {i for i, s in enumerate(self.spans) if s[0] == op_name}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if i in ops:
                op_time += end - start
            elif parent in ops:
                covered += end - start
        return covered / op_time if op_time else 0.0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


class _Span:
    __slots__ = ("tracer", "name", "start", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, 0.0, 0.0, parent, tr.op_id])
        tr._stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        record = tr.spans[self.index]
        record[1], record[2] = self.start, end

    @property
    def seconds(self) -> float:
        record = self.tracer.spans[self.index]
        return record[2] - record[1]
