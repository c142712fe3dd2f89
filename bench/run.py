"""Benchmark of the lowersets command line, run in-process.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One client drives ``lowersets.cli.main(argv)`` in a closed loop: the next
invocation starts when the previous one has returned.  Invocations come
from ``workloads.rounds(workload, seed)``; each output is checked by
``check.py`` outside the timed region.  ``--trace 0`` cycles a block of
the seed's rounds until ``--seconds`` of invocation time have passed and
reports the end-to-end metrics, with latencies scaled by fixed reference
work timed around each invocation.  ``--trace 1`` runs a fixed number of
rounds untraced, then the same rounds again with span wrappers installed,
and reports the per-layer metrics.  The last line of stdout is one JSON object; the full
result, with provenance, goes to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_STARTS = 9
SETUP_ARGV = ("count", "--d", "2", "--n", "1")
# Fixed reference work runs between invocations and measures the host's
# current speed.  Latencies are scaled to a host on which it takes
# REFERENCE_S: the shared host runs everything up to 1.7x slower for spells
# of seconds to minutes, and the reference work slows with it.  Each
# workload uses the kind of reference work that slows most like it does
# (workloads.REFERENCE).
REFERENCE_S = 0.010
# Seconds one round took at the commit that defined the benchmark.  A
# traced run covers seconds / (3 * ROUND_S) rounds twice, untraced and
# traced, so its counts repeat exactly for a given seed and length.
ROUND_S = {"tables": 0.6, "enumerate": 1.8, "discretize": 1.9}

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "core.oracle.calls": "count", "core.oracle.self_s": "s",
    "core.count.self_s": "s", "core.count.nodes_per_s": "1/s",
    "core.enumerate.calls": "count", "core.enumerate.self_s": "s",
    "core.enumerate.sets_per_s": "1/s", "core.lowerset.construct_s": "s",
    "core.to_json_line.calls": "count", "core.to_json_line.self_s": "s",
    "bounds.verify.calls": "count", "bounds.verify.self_s": "s",
    "bounds.ln_mp.calls": "count", "bounds.ln_mp.self_s": "s",
    "disc.gram.calls": "count", "disc.gram.self_s": "s", "disc.gram.flops": "flop",
    "disc.gram.gflop_per_s": "GFLOP/s", "disc.eig.calls": "count",
    "disc.eig.self_s": "s", "disc.enumerate.self_s": "s", "disc.sample.self_s": "s",
    "disc.universal.self_s": "s", "disc.search.trials": "count",
    "disc.search.qualify_ratio": "ratio", "cli.main.self_s": "s",
    "cli.out_bytes": "bytes", "trace.loop_s": "s", "trace.overhead_frac": "ratio",
}


@dataclass
class LoopStats:
    """What one closed loop measured."""

    latencies: list[float] = field(default_factory=list)
    # Reference-loop seconds around each invocation, when calibrating.
    reference: list[float] = field(default_factory=list)
    items: int = 0
    out_bytes: int = 0
    failed: int = 0
    wrong: int = 0  # failures where the program returned but was incorrect
    failures: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


class Runner:
    """Runs invocations against the CLI and checks each one."""

    def __init__(self, cli, references: dict, tmp: Path) -> None:
        self.cli = cli
        self.references = references
        self.out_file = tmp / "enumerate.jsonl"
        self.tracer = None
        self.reference = ""  # kind of reference work; "" for none
        self.construct_s = 0.0
        # (argv, exit code, output) of invocations already checked and found
        # correct; an identical repeat needs no second check.
        self._verified: set[tuple] = set()

    def _reference(self, op: workloads.Op) -> dict:
        d, n = op.ds.start, op.ns.start
        if op.kind == "mcert":
            return self.references["mcert"]["%d,%d,%d,%d" % (d, n, op.m, op.seed)]
        if op.kind == "search":
            return self.references["search"]["%d,%d,%d,%d" % (d, n, op.seed, op.trials)]
        return {"rc": 0}

    def invoke(self, op: workloads.Op) -> tuple[float, int | None, BaseException | None, str]:
        """Time one call of ``cli.main``; returns (seconds, rc, error, text)."""
        argv = list(op.argv)
        if op.kind == "enumerate":
            argv += ["--out", str(self.out_file)]
            self.out_file.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            # A traceback or an unexpected exit is a failed op; the loop goes on.
            except (Exception, SystemExit) as exc:
                rc, error = None, exc
            seconds = time.perf_counter() - start
        if op.kind == "enumerate" and self.out_file.exists():
            text = self.out_file.read_text(encoding="utf-8")
        else:
            text = stdout.getvalue()
        return seconds, rc, error, text

    def problems(self, op: workloads.Op, rc, error, text: str) -> list[str]:
        if error is not None:
            return ["raised %s" % type(error).__name__]
        try:
            ref = self._reference(op)
        except KeyError:
            return ["no reference result for %s" % " ".join(op.argv)]
        if rc != ref["rc"]:
            return ["exit code %r, reference %r" % (rc, ref["rc"])]
        d, n = op.ds.start, op.ns.start
        try:
            if op.kind == "count":
                return check.check_count(text, op.fmt, op.ds, op.ns)
            if op.kind == "bounds":
                return check.check_bounds(text, op.fmt, op.ds, op.ns)
            if op.kind == "enumerate":
                return check.check_enumerate(text, d, n)
            if op.kind == "grid":
                return check.check_grid(text, d, n, op.m)
            if op.kind == "mcert":
                return check.check_mcert(text, d, n, op.m, op.seed, ref)
            return check.check_search(text, d, n, op.seed, op.trials, ref)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return ["unreadable output: %r" % exc]

    def items(self, op: workloads.Op, text: str) -> int:
        """Output units: table rows, lower sets written, or one report."""
        if op.kind in ("count", "bounds"):
            return len(op.ds) * len(op.ns)
        if op.kind == "enumerate":
            return text.count("\n")
        return 1

    def run(self, ops, stats: LoopStats) -> None:
        before = reference_loop_s(self.reference) if self.reference else 0.0
        for op in ops:
            if self.tracer is not None:
                self.tracer.op = len(stats.latencies)
            seconds, rc, error, text = self.invoke(op)
            stats.latencies.append(seconds)
            if self.reference:
                after = reference_loop_s(self.reference)
                stats.reference.append((before + after) / 2)
                before = after
            if self.tracer is not None and self.tracer.yielded:
                self._time_construction()
            data = text.encode("utf-8")
            key = (op.argv, rc, hashlib.sha256(data).digest())
            problems = [] if key in self._verified else self.problems(op, rc, error, text)
            if problems:
                stats.failed += 1
                stats.wrong += error is None
                if len(stats.failures) < 20:
                    stats.failures.append("%s: %s" % (" ".join(op.argv), "; ".join(problems)))
            else:
                self._verified.add(key)
                stats.items += self.items(op, text)
                stats.out_bytes += len(data)

    def _time_construction(self) -> None:
        """Re-run the public, validating constructor on every yielded set."""
        from lowersets.core import LowerSet

        sets = self.tracer.yielded
        start = time.perf_counter()
        for q in sets:
            LowerSet(q.dim, q.points)
        self.construct_s += time.perf_counter() - start
        sets.clear()


def python_reference() -> None:
    """Integer arithmetic, then tuples, a dict, string formatting and a join."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    seen: dict[tuple, int] = {}
    out: list[str] = []
    for i in range(5_000):
        key = (i, i % 17, i % 5)
        seen[key] = len(out)
        out.append("%d,%d" % (i, seen[key]))
    ",".join(out)


def numpy_reference() -> None:
    """Complex exponentials, a Gram product and a Hermitian eigensolve."""
    import numpy as np

    points = np.linspace(0.0, 1.0, 1000 * 100).reshape(1000, 100)
    basis = np.exp(2j * np.pi * points)
    np.linalg.eigvalsh(basis.conj().T @ basis)


REFERENCES = {"python": python_reference, "numpy": numpy_reference}


def reference_loop_s(kind: str) -> float:
    """Seconds the workload's fixed reference work takes right now."""
    start = time.perf_counter()
    REFERENCES[kind]()
    return time.perf_counter() - start


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh ``python -m lowersets.cli`` doing a
    trivial count; one unmeasured start first writes bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "lowersets.cli", *SETUP_ARGV]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError("set-up invocation failed: %s" % proc.stderr.decode()[-500:])
        if i:
            times.append(elapsed)
    return statistics.median(times), times


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, invocations: int, load_before, load_after) -> dict:
    import mpmath
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "invocations": invocations,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }


def end_to_end(runner: Runner, args) -> tuple[dict, LoopStats, dict]:
    """Cycle the seed's first ``BLOCK_ROUNDS`` rounds until ``--seconds`` of
    invocation time have passed.

    Each latency is scaled by ``REFERENCE_S`` over the reference work's
    time around it, and each invocation's figure is the median of its
    scaled latencies over the passes.  Passes of one invocation lie a whole
    block apart, spread over the run.
    """
    setup_s, setup_samples = measure_setup()
    block = islice(workloads.rounds(args.workload, args.seed),
                   workloads.BLOCK_ROUNDS[args.workload])
    ops = [op for rnd in block for op in rnd]
    stats = LoopStats()
    runner.reference = workloads.REFERENCE[args.workload]
    passes = 0
    while passes == 0 or stats.busy_s < args.seconds:
        runner.run(ops, stats)
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(stats.latencies)
    scaled = [t * REFERENCE_S / ref for t, ref in zip(stats.latencies, stats.reference)]
    typical = sorted(statistics.median(scaled[i::len(ops)]) for i in range(len(ops)))
    tail = len(typical) - 11  # the highest percentile with ten samples beyond it
    metrics = {
        "setup_s": setup_s,
        "items_per_s": stats.items / passes / sum(typical),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "op_tail_ms": 1e3 * typical[tail],
        "ok_frac": 1.0 - stats.failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "fail_frac": stats.failed / attempted,
        "latency_samples": len(typical),
        "tail_percentile": 100.0 * (tail + 1) / len(typical),
        "passes": passes,
        "invocations": attempted,
        "items": stats.items,
        "loop_s": stats.busy_s,
        "unscaled_items_per_s": stats.items / stats.busy_s,
        "reference_median_s": statistics.median(stats.reference),
        "setup_samples_s": setup_samples,
        "scaled_latencies_s": typical,
        "latencies_s": stats.latencies,
        "reference_s": stats.reference,
    }
    return metrics, stats, details


def per_layer(runner: Runner, args) -> tuple[dict, LoopStats, dict]:
    from spans import Tracer, install, layer_metrics

    rounds = max(1, round(args.seconds / (3 * ROUND_S[args.workload])))
    ops = [op for rnd in islice(workloads.rounds(args.workload, args.seed), rounds)
           for op in rnd]
    stats = LoopStats()
    runner.run(ops, stats)
    untraced_s, untraced_bytes = stats.busy_s, stats.out_bytes
    runner.tracer = Tracer()
    install(runner.tracer)
    runner.run(ops, stats)
    traced_s = stats.busy_s - untraced_s
    spans_path = OUT / ("%s-s%d.spans.jsonl" % (args.workload, args.seed))
    runner.tracer.write(str(spans_path))
    metrics = layer_metrics(runner.tracer, runner.construct_s)
    metrics["cli.out_bytes"] = stats.out_bytes - untraced_bytes
    metrics["trace.loop_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    details = {"rounds": rounds, "untraced_loop_s": untraced_s,
               "spans": str(spans_path.relative_to(ROOT))}
    return metrics, stats, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lowersets" / "__init__.py").is_file():
        print("error: no lowersets sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from lowersets import cli

    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        runner = Runner(cli, references, tmp)
        runner.run(workloads.WARMUP[args.workload], LoopStats())
        load_before = os.getloadavg()
        measure, units = (per_layer, PER_LAYER_UNITS) if args.trace else (end_to_end, END_TO_END_UNITS)
        metrics, stats, details = measure(runner, args)
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = {
        "correct": stats.wrong == 0,
        "attempted": len(stats.latencies),
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(summary, details=details, failures=stats.failures,
                  provenance=provenance(args, len(stats.latencies), load_before, load_after))
    path = OUT / ("%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, unit in units.items():
        print("%-28s %16.6g %s" % (name, metrics[name], unit))
    for name, value in details.items():
        if isinstance(value, (int, float)):
            print("%-28s %16.6g" % (name, value))
    for line in stats.failures[:5]:
        print("failed: %s" % line[:200])
    print("result: %s" % path.relative_to(ROOT))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
