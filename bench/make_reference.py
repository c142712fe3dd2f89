"""Record the reference results that ``check.py`` compares discretize runs to.

    python3 bench/make_reference.py

Runs every ``--m`` certification and ``--search`` invocation the
discretize workload can generate and writes exit code, c1, c2 (and the
found m) to ``bench/reference.json``.  Run it only when the catalogue in
``workloads.py`` changes; the committed file pins the results of the
commit that defined the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def _run(cli, op: workloads.Op) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(op.argv))
    entry = {"rc": rc}
    if out.getvalue():
        report = json.loads(out.getvalue())
        entry.update(c1=report["c1"], c2=report["c2"])
        if "search" in report:
            entry["m_found"] = report["search"]["m_found"]
    return entry


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from lowersets import cli

    mcert, search = {}, {}
    for d, n, m in workloads.MCERT_SLOTS:
        for seed in workloads.SAMPLE_SEEDS:
            mcert["%d,%d,%d,%d" % (d, n, m, seed)] = _run(cli, workloads.mcert_op(d, n, m, seed))
    for d, n in workloads.SEARCH_SLOTS:
        for seed in workloads.SEARCH_SEEDS:
            key = "%d,%d,%d,%d" % (d, n, seed, workloads.SEARCH_TRIALS)
            search[key] = _run(cli, workloads.search_op(d, n, seed))
    path = BENCH / "reference.json"
    path.write_text(json.dumps({"mcert": mcert, "search": search}, indent=1) + "\n")
    print("wrote %d references to %s" % (len(mcert) + len(search), path.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
