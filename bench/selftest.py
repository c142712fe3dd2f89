"""Self-test of the benchmark: every metric is emitted and the checker is live.

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py``, so the library's test suite does not
collect it; it runs the benchmark end to end and takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def _cli(*argv: str) -> tuple[int, str]:
    from lowersets import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload: str, trace: str) -> None:
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if workload != "enumerate":  # only the deep --d 1 chains may fail
        assert result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "tables", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_independent_counts_match_known_values() -> None:
    assert [check.expected_count(2, n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [check.expected_count(3, n) for n in range(8)] == [1, 1, 3, 6, 13, 24, 48, 86]
    assert check.expected_count(2, 100) == 190569292
    assert check.walk_nodes(4, 3) == 1 + 4 + 10


def test_checker_rejects_a_count_off_by_one() -> None:
    rc, text = _cli("count", "--d", "2..4", "--n", "5..7", "--format", "csv")
    assert rc == 0 and check.check_count(text, "csv", range(2, 5), range(5, 8)) == []
    lines = text.splitlines()
    d, n, p = lines[4].split(",")
    lines[4] = "%s,%s,%d" % (d, n, int(p) + 1)
    assert check.check_count("\n".join(lines) + "\n", "csv", range(2, 5), range(5, 8))


def test_checker_rejects_a_wrong_bounds_row() -> None:
    rc, text = _cli("bounds", "--d", "2..3", "--n", "3..6", "--format", "jsonl")
    assert rc == 0 and check.check_bounds(text, "jsonl", range(2, 4), range(3, 7)) == []
    rows = [json.loads(line) for line in text.splitlines()]
    rows[1]["ln_p"] += 1e-6
    bad = "\n".join(json.dumps(r) for r in rows) + "\n"
    assert check.check_bounds(bad, "jsonl", range(2, 4), range(3, 7))


def test_checker_rejects_a_dropped_enumerate_line(tmp_path: Path) -> None:
    out = tmp_path / "sets.jsonl"
    assert _cli("enumerate", "--d", "3", "--n", "6", "--out", str(out))[0] == 0
    lines = out.read_text().splitlines()
    assert check.check_enumerate("\n".join(lines) + "\n", 3, 6) == []
    assert check.check_enumerate("\n".join(lines[:7] + lines[8:]) + "\n", 3, 6)
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    assert check.check_enumerate("\n".join(swapped) + "\n", 3, 6)


def test_checker_rejects_a_nudged_c2() -> None:
    references = json.loads((BENCH / "reference.json").read_text())
    d, n, m = workloads.MCERT_SLOTS[0]
    seed = workloads.SAMPLE_SEEDS[0]
    ref = references["mcert"]["%d,%d,%d,%d" % (d, n, m, seed)]
    rc, text = _cli(*workloads.mcert_op(d, n, m, seed).argv)
    assert rc == ref["rc"]
    assert check.check_mcert(text, d, n, m, seed, ref) == []
    report = json.loads(text)
    report["c2"] += 1e-6
    assert check.check_mcert(json.dumps(report), d, n, m, seed, ref)


def test_checker_rejects_an_inexact_grid() -> None:
    rc, text = _cli("discretize", "--d", "2", "--n", "5", "--m", "25", "--grid")
    assert rc == 0 and check.check_grid(text, 2, 5, 25) == []
    # A side below n aliases two frequencies, so the grid is not exact.
    rc, text = _cli("discretize", "--d", "2", "--n", "5", "--m", "16", "--grid")
    assert check.check_grid(text, 2, 5, 16)


def test_rounds_are_a_function_of_the_seed() -> None:
    for name in workloads.WORKLOADS:
        first = [next(workloads.rounds(name, 5)) for _ in range(2)]
        again = [next(workloads.rounds(name, 5)) for _ in range(2)]
        assert first == again
        assert all(len(r) == workloads.SLOTS for r in first)
