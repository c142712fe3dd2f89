"""Span tracing of the lowersets layers, installed from outside ``src/``.

``install`` replaces public functions of ``core``, ``bounds``,
``discretization`` and ``cli`` with wrappers that open a span around each
call.  A span records its name, start, end, parent span and the id of
the benchmark invocation (op) it belongs to.  Calls made once per lower
set (generator steps, ``to_json_line``, Gram builds and eigensolves) are
folded: repeated calls with the same name under the same parent share
one record that also keeps the call count and the summed busy time, so
memory stays proportional to the number of coarse calls.

Self time of a record is its busy time minus the busy time of the
records whose parent it is.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator

from check import walk_nodes

_NAME, _START, _END, _PARENT, _OP, _COUNT, _BUSY = range(7)


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self.yielded: list = []  # LowerSets the traced walks produced in this op
        self._stack: list[int] = []
        self._folded: dict[tuple[int, str], int] = {}
        self.targets: tuple[float, float] | None = None  # (c1, c2) of a running search

    @contextmanager
    def span(self, name: str, fold: bool = False) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter()
        rid = self._folded.get((parent, name)) if fold else None
        if rid is None:
            rid = len(self.spans)
            self.spans.append([name, start, start, parent, self.op, 0, 0.0])
            if fold:
                self._folded[(parent, name)] = rid
        self._stack.append(rid)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec = self.spans[rid]
            rec[_END] = end
            rec[_COUNT] += 1
            rec[_BUSY] += end - start

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_busy = defaultdict(float)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child_busy[rec[_PARENT]] += rec[_BUSY]
        out: dict[str, float] = defaultdict(float)
        for rid, rec in enumerate(self.spans):
            out[rec[_NAME]] += rec[_BUSY] - child_busy[rid]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[_NAME]] += rec[_COUNT]
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "count", "busy")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, fold: bool = False) -> Callable:
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, fold):
            return fn(*args, **kwargs)
    return wrapper


def _wrap_walk(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Times each step of the generator; the consumer's work is not inside."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[name + ".calls"] += 1
        it = fn(*args, **kwargs)
        while True:
            with tracer.span(name, fold=True):
                try:
                    q = next(it)
                except StopIteration:
                    return
            tracer.counters[name + ".sets"] += 1
            tracer.yielded.append(q)
            yield q
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries.  Modules look these names up at call time."""
    from lowersets import bounds, cli, core
    from lowersets import discretization as disc

    for mod, attr in ((core, "partition_oracle_2d"), (core, "plane_partition_oracle_3d")):
        setattr(mod, attr, _wrap(tracer, "core.oracle", getattr(mod, attr)))

    count = core.count_lower_sets

    @wraps(count)
    def count_lower_sets(dim, size, method="auto", budget=core.DEFAULT_NODE_BUDGET):
        if method == "dfs" or dim >= 4:
            try:
                tracer.counters["core.count.nodes"] += walk_nodes(dim, size)
            except KeyError:
                pass
        with tracer.span("core.count"):
            return count(dim, size, method=method, budget=budget)
    core.count_lower_sets = count_lower_sets

    # discretization imported the generator by name, so it gets its own wrapper.
    disc.enumerate_lower_sets = _wrap_walk(tracer, "disc.enumerate", disc.enumerate_lower_sets)
    core.enumerate_lower_sets = _wrap_walk(tracer, "core.enumerate", core.enumerate_lower_sets)
    core.to_json_line = _wrap(tracer, "core.to_json_line", core.to_json_line, fold=True)

    bounds.verify_bounds = _wrap(tracer, "bounds.verify", bounds.verify_bounds)
    bounds._ln_mp = _wrap(tracer, "bounds.ln_mp", bounds._ln_mp)

    gram = disc.gram_matrix

    @wraps(gram)
    def gram_matrix(q, xs):
        m, n = len(xs), len(q)
        tracer.counters["disc.gram.flops"] += 8 * m * n * n + m * n
        with tracer.span("disc.gram", fold=True):
            return gram(q, xs)
    disc.gram_matrix = gram_matrix
    disc.gram_spectrum = _wrap(tracer, "disc.eig", disc.gram_spectrum, fold=True)
    disc.sample_points = _wrap(tracer, "disc.sample", disc.sample_points)

    universal = disc.universal_constants

    @wraps(universal)
    def universal_constants(*args, **kwargs):
        with tracer.span("disc.universal"):
            report = universal(*args, **kwargs)
        if tracer.targets is not None:
            lo, hi = tracer.targets
            tracer.counters["disc.search.trials"] += 1
            tracer.counters["disc.search.qualified"] += report.c1 >= lo and report.c2 <= hi
        return report
    disc.universal_constants = universal_constants

    search = disc.search_minimal_m

    @wraps(search)
    def search_minimal_m(d, n, c1_target=disc.DEFAULT_C1, c2_target=disc.DEFAULT_C2,
                         **kwargs):
        tracer.targets = (c1_target, c2_target)
        try:
            with tracer.span("disc.search"):
                return search(d, n, c1_target=c1_target, c2_target=c2_target, **kwargs)
        finally:
            tracer.targets = None
    disc.search_minimal_m = search_minimal_m

    cli.main = _wrap(tracer, "cli.main", cli.main)


def layer_metrics(tracer: Tracer, construct_s: float) -> dict[str, float]:
    """The per-layer metrics, by the names BENCHMARK.json declares."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    return {
        "core.oracle.calls": calls["core.oracle"],
        "core.oracle.self_s": self_s["core.oracle"],
        "core.count.self_s": self_s["core.count"],
        "core.count.nodes_per_s": rate(c["core.count.nodes"], self_s["core.count"]),
        "core.enumerate.calls": c["core.enumerate.calls"],
        "core.enumerate.self_s": self_s["core.enumerate"],
        "core.enumerate.sets_per_s": rate(c["core.enumerate.sets"], self_s["core.enumerate"]),
        "core.lowerset.construct_s": construct_s,
        "core.to_json_line.calls": calls["core.to_json_line"],
        "core.to_json_line.self_s": self_s["core.to_json_line"],
        "bounds.verify.calls": calls["bounds.verify"],
        "bounds.verify.self_s": self_s["bounds.verify"],
        "bounds.ln_mp.calls": calls["bounds.ln_mp"],
        "bounds.ln_mp.self_s": self_s["bounds.ln_mp"],
        "disc.gram.calls": calls["disc.gram"],
        "disc.gram.self_s": self_s["disc.gram"],
        "disc.gram.flops": c["disc.gram.flops"],
        "disc.gram.gflop_per_s": rate(c["disc.gram.flops"], self_s["disc.gram"]) / 1e9,
        "disc.eig.calls": calls["disc.eig"],
        "disc.eig.self_s": self_s["disc.eig"],
        "disc.enumerate.self_s": self_s["disc.enumerate"],
        "disc.sample.self_s": self_s["disc.sample"],
        "disc.universal.self_s": self_s["disc.universal"],
        "disc.search.trials": c["disc.search.trials"],
        "disc.search.qualify_ratio": rate(c["disc.search.qualified"], c["disc.search.trials"]),
        "cli.main.self_s": self_s["cli.main"],
    }

