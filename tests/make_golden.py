"""Write ``tests/golden.json``, the recorded outputs of a fixed set of CLI runs.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/make_golden.py

Each entry holds the argv, the environment (``LOWERSET_BUDGET``), the
exit code, the stderr text and the stdout.  Stdout made only of integers
and strings (``count``, ``enumerate``, and every run that fails before
writing) is stored as a sha256 of its bytes.  ``bounds`` and
``discretize`` stdout carries floats from libm and BLAS, which can differ
between machines, so it is stored parsed and compared with floats to
1e-9 and everything else exact.  ``tests/test_golden.py`` replays the
corpus.  Regenerate it only in a change whose CHANGES.md names each
output that changed and why.

The runs are the first seed-1 round of each benchmark workload (which
holds every ``--m``, ``--search`` and ``--grid`` slot) and its warm-ups,
the error inputs of ``tests/test_cli.py``, every format of a few
``count`` and ``bounds`` grids, and the node budget at N - 1, N and
N + 1 for a ``count --method dfs`` and an ``enumerate`` that need N.
``--help`` is left out: its text depends on the Python version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

from lowersets import cli

GOLDEN = Path(__file__).with_name("golden.json")
PARSED = ("bounds", "discretize")  # commands whose stdout carries floats
TOL = 1e-9


def run(argv: list[str], env: dict[str, str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in-process under ``env``: (code, stdout, stderr).

    Usage lines wrap at the terminal width, so COLUMNS is fixed too.
    """
    saved = {k: os.environ.get(k) for k in (cli.BUDGET_ENV, "COLUMNS")}
    os.environ.pop(cli.BUDGET_ENV, None)
    os.environ.update(env, COLUMNS="80")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def _cell(text: str) -> int | float | str:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parsed(argv: list[str], text: str):
    """Stdout of a ``bounds`` or ``discretize`` run as JSON values.

    CSV rows become lists of cells, each an int, a float or a string.
    A tensor grid as large as the family makes every Gram the identity,
    so which set is named the witness is decided by rounding alone; a
    ``--grid`` report is kept without its witness sets.
    """
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else (
        "csv" if argv[0] == "bounds" else "json")
    if fmt == "csv":
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines()]
    value = json.loads(text)
    if "--grid" in argv:
        del value["witness_sets"]
    return value


def same(a, b) -> bool:
    """Equal as parsed JSON: floats to 1e-9, everything else exact."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def record(argv: list[str], env: dict[str, str]) -> dict:
    code, out, err = run(argv, env)
    entry = {"argv": list(argv), "env": env, "code": code, "stderr": err}
    if out and argv[0] in PARSED:
        entry["stdout"] = parsed(argv, out)
    else:
        entry["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    return entry


def _least_budget(argv: list[str]) -> int:
    """The least node budget under which ``argv`` exits 0."""
    lo, hi = 1, 1
    while run(argv, {cli.BUDGET_ENV: str(hi)})[0] != 0:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if run(argv, {cli.BUDGET_ENV: str(mid)})[0] == 0:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _bench_runs() -> list[list[str]]:
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    import workloads

    ops = [op for name in workloads.WORKLOADS for op in workloads.WARMUP[name]]
    ops += [op for name in workloads.WORKLOADS
            for op in next(workloads.rounds(name, 1))]
    return [list(op.argv) for op in ops]


def _error_runs() -> list[tuple[list[str], dict[str, str]]]:
    """The failing inputs of tests/test_cli.py that name no temp path."""
    budget = cli.BUDGET_ENV
    search = ["discretize", "--d", "2", "--n", "3", "--search", "--seed", "1"]
    return [
        (["count", "--d", "2", "--n", "10", "--method", "dfs"], {budget: "5"}),
        (["count", "--d", "0..2", "--n", "3"], {}),
        (["count", "--d", "2", "--n=-2..3"], {}),
        (["count", "--d", "2", "--n=-1..3"], {}),
        (["count", "--d", "0..2", "--n=-1..3"], {}),
        (["count", "--d", "2..4", "--n", "1..8", "--method", "dfs"], {budget: "1230"}),
        (["bounds", "--d", "2..4", "--n", "1..8"], {budget: "1230"}),
        (["count", "--d", "2", "--n", "3"], {budget: "zero"}),
        ([], {}),
        (["count", "--d", "2", "--n", "3", "--bogus"], {}),
        (["count", "--d", "5..2", "--n", "3"], {}),
        (["count", "--d", "two", "--n", "3"], {}),
        (["enumerate", "--d", "2", "--n", "6"], {budget: "2"}),
        (["enumerate", "--d", "1", "--n", "100000000"], {budget: "10"}),
        (["count", "--d", "100", "--n", "100", "--method", "dfs"], {budget: "10"}),
        (["discretize", "--d", "1", "--n", "100000000", "--m", "5", "--seed", "1"],
         {budget: "10"}),
        (["enumerate", "--d", "0", "--n", "3"], {}),
        (["bounds", "--d", "1", "--n", "5"], {}),
        (["discretize", "--d", "30", "--n", "2", "--m", "3", "--grid"], {}),
        (["discretize", "--d", "70", "--n", "2", "--m", "3", "--grid"], {}),
        (["discretize", "--d", str(10**9), "--n", "2", "--m", "3", "--grid"], {}),
        (["discretize", "--d", "2", "--n", "2", "--m", str(10**400), "--grid"], {}),
        (["discretize", "--d", "2", "--n", "2", "--m", "9", "--grid"], {budget: "9"}),
        (["discretize", "--d", "2", "--n", "2", "--m", "9", "--grid"], {budget: "8"}),
        (["discretize", "--d", "2", "--n", "2", "--m", str(10**30), "--seed", "1"], {}),
        (["discretize", "--d", "2", "--n", "2", "--m", "9", "--seed", "1"], {budget: "9"}),
        (["discretize", "--d", "2", "--n", "2", "--m", "9", "--seed", "1"], {budget: "8"}),
        (["discretize", "--d", "1", "--n", "2", "--search", "--seed", "1", "--trials", "1",
          "--c1", "0.9999999", "--c2", "1.0000001", "--m-max", str(10**12)],
         {budget: "64"}),
        (search + ["--m-max", str(10**12)], {budget: "8"}),
        (search + ["--m-max", str(10**12)], {budget: "7"}),
        (["discretize", "--d", "2", "--n", "3", "--m", "1", "--seed", "5"], {}),
        (["discretize", "--d", "400", "--n", "2", "--m", "3", "--seed", "1"], {}),
        (["discretize", "--d", "1400", "--n", "2", "--m", "3", "--seed", "1"], {}),
        (["discretize", "--d", "1400", "--n", "2", "--search", "--seed", "1"], {}),
        (search + ["--c1", "0.999", "--c2", "1.001", "--m-max", "4"], {}),
        (["discretize", "--d", "2", "--n", "6", "--seed", "7", "--m", "50"], {budget: "3"}),
        (["discretize", "--d", "2", "--n", "6", "--seed", "7", "--search", "--trials", "2"],
         {budget: "3"}),
        (search + ["--trials", "0"], {}),
        (search + ["--trials", "-2"], {}),
        (search + ["--m-max", "0"], {}),
        (["discretize", "--d", "2", "--n", "3", "--m", "8"], {}),
        (["discretize", "--d", "2", "--n", "3", "--m", "8", "--search", "--seed", "1"], {}),
        (search + ["--grid"], {}),
        (["discretize", "--d", "2", "--n", "3", "--m", "8", "--seed", "1", "--c1", "1.2"], {}),
        (["discretize", "--d", "2", "--n", "3"], {}),
    ]


def _table_runs() -> list[list[str]]:
    grids = [["count", "--d", "1..4", "--n", "0..8"],
             ["count", "--d", "1..4", "--n", "0..8", "--method", "dfs"],
             ["count", "--d", "2", "--n", "1000"],  # p_2(1000) is above 2**63
             ["count", "--d", "1", "--n", "999999..1000000"],
             ["bounds", "--d", "2..4", "--n", "1..8"],
             ["bounds", "--d", "2", "--n", "1"]]
    runs = [g + ["--format", fmt] for g in grids for fmt in ("csv", "json", "jsonl")]
    runs += [["enumerate", "--d", "3", "--n", "0"], ["enumerate", "--d", "1", "--n", "3000"],
             ["discretize", "--d", "1", "--n", "2", "--m", "2", "--grid"],
             ["discretize", "--d", "2", "--n", "3", "--search", "--seed", "7",
              "--trials", "20"]]
    return runs


def _budget_edges() -> list[tuple[list[str], dict[str, str]]]:
    runs = []
    for argv in (["count", "--d", "4", "--n", "8", "--method", "dfs"],
                 ["enumerate", "--d", "3", "--n", "6"]):
        need = _least_budget(argv)
        runs += [(argv, {cli.BUDGET_ENV: str(b)}) for b in (need - 1, need, need + 1)]
    return runs


def corpus() -> list[dict]:
    runs = [(argv, {}) for argv in _bench_runs() + _table_runs()]
    runs += _error_runs() + _budget_edges()
    return [record(argv, env) for argv, env in runs]


def main() -> None:
    entries = corpus()
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print("wrote %d entries to %s" % (len(entries), GOLDEN))


if __name__ == "__main__":
    main()
