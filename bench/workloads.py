"""Seeded invocation generators for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds the same
nine slots, one invocation shape each; the workload seed draws the free
parameters of each slot and the order of the slots within the round.
A run measures whole rounds, so its mix of work is the same from run to
run and seeds change the inputs without changing what a run averages.

Every round has four cheap slots, one median slot costing about twice the
dearest cheap one, and four dear slots costing 1.5 to 2.5 times the median
one.  The median latency and the tail (inside the dear group) thus stay
inside one group of slots.

Why each workload exists:

* ``tables``: the bound-verification path of the paper.  ``count`` and
  ``bounds`` over d = 2 or 2..3 recompute an oracle table per row (the
  3-d one is cubic in n); over d = 4 they run the depth-first tally walk.
  No ``LowerSet`` is built and nothing touches discretization.
* ``enumerate``: the same walk, but every set is materialized, validated
  by ``LowerSet``, serialized with ``to_json_line`` and written to a file.
  One slot per round is a deep ``--d 1`` chain, which a recursive walk
  cannot finish.
* ``discretize``: Gram builds and ``eigvalsh`` over whole families, for
  random-sample certification (``--m``), exact tensor grids (``--grid``)
  and the seeded minimal-m search, which re-enumerates per trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

WORKLOADS = ("tables", "enumerate", "discretize")
SLOTS = 9
# Rounds in the block that a --trace 0 run cycles through; the block of a
# dear workload is smaller, so each of its invocations still gets about
# five passes in 30 s.  Latency percentiles are taken over the block's
# 9 * BLOCK_ROUNDS invocations: the median falls in the median slots and
# the tail, with ten invocations beyond it, in the dear ones.
BLOCK_ROUNDS = {"tables": 5, "enumerate": 3, "discretize": 3}
# The reference work (``run.REFERENCES``) timed between invocations: the
# interpreter-bound workloads use pure-Python work, the numpy-bound one
# numpy work.
REFERENCE = {"tables": "python", "enumerate": "python", "discretize": "numpy"}

# Certification slots (d, n, m), cheapest first: families of 300 to 1464
# sets, 400 to 1600 sample points.  Sample seeds come from SAMPLE_SEEDS, so
# every draw has a recorded reference result.
MCERT_SLOTS = ((3, 9, 400), (4, 7, 1600), (2, 20, 600), (3, 11, 600), (4, 9, 400))
SAMPLE_SEEDS = tuple(range(1, 7))
# Tensor grid (d, n, side); side >= n makes it exact.
GRID = (2, 20, 22)
SEARCH_SLOTS = ((2, 6), (2, 7), (3, 5))
SEARCH_SEEDS = tuple(range(1, 9))
SEARCH_TRIALS = 5

# Enumerate slots (d, n), 1464 to 13220 sets each, cheapest first.
ENUM_SLOTS = ((3, 12), (4, 9), (5, 8), (4, 10), (5, 9), (4, 11), (3, 15), (5, 10))


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what the checker needs to know about it.

    ``ds``/``ns`` are the requested ranges; ``m``, ``seed`` and ``trials``
    apply to discretize runs.  ``argv`` omits ``--out``, which the runner
    adds for ``enumerate``.
    """

    kind: str
    argv: tuple[str, ...]
    ds: range
    ns: range
    fmt: str = "csv"
    m: int = 0
    seed: int = 0
    trials: int = 0


def _span(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else "%d..%d" % (lo, hi)


def _table_op(kind: str, ds: range, ns: range, fmt: str, extra: tuple = ()) -> Op:
    argv = (kind, "--d", _span(ds.start, ds.stop - 1), "--n",
            _span(ns.start, ns.stop - 1), "--format", fmt) + extra
    return Op(kind, argv, ds, ns, fmt=fmt)


def _tables_round(rng: random.Random) -> list[Op]:
    def kind() -> str:
        return rng.choice(("count", "bounds"))

    def fmt() -> str:
        return rng.choice(("csv", "json", "jsonl"))

    def d4(top: int) -> Op:  # four tally-walk rows ending at top
        k = kind()
        extra = ("--method", rng.choice(("auto", "dfs"))) if k == "count" else ()
        return _table_op(k, range(4, 5), range(top - 3, top + 1), fmt(), extra)

    def d23(lo: int, hi: int, k: str | None = None) -> Op:  # 16 oracle rows per d
        top = rng.randint(lo, hi)
        return _table_op(k or kind(), range(2, 4), range(top - 15, top + 1), fmt())

    # d = 2: 16 partition-oracle rows with n up to 90, one slot per command.
    ops = [_table_op(k, range(2, 3), range(top - 15, top + 1), fmt())
           for k, top in (("count", rng.randint(60, 90)), ("bounds", rng.randint(60, 90)))]
    # The median slot has a fixed size and command, so its cost does not
    # depend on the seed.
    ops += [d4(7), d4(8), d23(64, 64, "bounds"), d4(11), d4(11), d23(86, 90), d23(86, 90)]
    return ops


def _enumerate_op(d: int, n: int) -> Op:
    return Op("enumerate", ("enumerate", "--d", str(d), "--n", str(n)),
              range(d, d + 1), range(n, n + 1))


def _enumerate_round(rng: random.Random) -> list[Op]:
    ops = [_enumerate_op(d, n) for d, n in ENUM_SLOTS]
    ops.append(_enumerate_op(1, rng.randint(1000, 3000)))
    return ops


def mcert_op(d: int, n: int, m: int, seed: int) -> Op:
    argv = ("discretize", "--d", str(d), "--n", str(n), "--m", str(m),
            "--seed", str(seed))
    return Op("mcert", argv, range(d, d + 1), range(n, n + 1), fmt="json",
              m=m, seed=seed)


def search_op(d: int, n: int, seed: int) -> Op:
    argv = ("discretize", "--d", str(d), "--n", str(n), "--search", "--seed",
            str(seed), "--trials", str(SEARCH_TRIALS))
    return Op("search", argv, range(d, d + 1), range(n, n + 1), fmt="json",
              seed=seed, trials=SEARCH_TRIALS)


def _grid_op(d: int, n: int, side: int) -> Op:
    m = side**d
    argv = ("discretize", "--d", str(d), "--n", str(n), "--m", str(m), "--grid")
    return Op("grid", argv, range(d, d + 1), range(n, n + 1), fmt="json", m=m)


def _discretize_round(rng: random.Random) -> list[Op]:
    ops = [search_op(d, n, rng.choice(SEARCH_SEEDS)) for d, n in SEARCH_SLOTS]
    ops += [mcert_op(d, n, m, rng.choice(SAMPLE_SEEDS)) for d, n, m in MCERT_SLOTS]
    ops.append(_grid_op(*GRID))
    return ops


_ROUNDS: dict[str, Callable[[random.Random], list[Op]]] = {
    "tables": _tables_round,
    "enumerate": _enumerate_round,
    "discretize": _discretize_round,
}

# Small invocations run before timing starts, so imports and lazily
# loaded libraries are warm.
WARMUP = {
    "tables": (_table_op("count", range(2, 5), range(3, 6), "csv"),
               _table_op("bounds", range(2, 5), range(3, 6), "json")),
    "enumerate": (_enumerate_op(3, 6),),
    "discretize": (mcert_op(*MCERT_SLOTS[0], SAMPLE_SEEDS[0]), _grid_op(2, 4, 4),
                   search_op(*SEARCH_SLOTS[0], SEARCH_SEEDS[0])),
}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's rounds, each shuffled; a pure function of ``seed``."""
    rng = random.Random("%s/%d" % (workload, seed))
    make = _ROUNDS[workload]
    while True:
        ops = make(rng)
        rng.shuffle(ops)
        yield ops
