"""Exit codes, output formats, and reproducibility of the command line."""

import errno
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lowersets import bounds as bnd
from lowersets import cli, core
from lowersets import discretization as disc


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count ---------------------------------------------------------------------

def test_count_single_cell(capsys):
    code, out, _ = run(["count", "--d", "2", "--n", "10"], capsys)
    assert code == 0
    assert out == "d,n,p_d_n\n2,10,42\n"


def test_count_dimension_one(capsys):
    code, out, _ = run(["count", "--d", "1", "--n", "100"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "1,100,1"


def test_count_three_dimensional(capsys):
    code, out, _ = run(["count", "--d", "3", "--n", "3"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "3,3,6"


def test_count_range_sweep(capsys):
    code, out, _ = run(["count", "--d", "2..3", "--n", "1..4"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,n,p_d_n"
    assert len(lines) == 1 + 8
    assert lines[1] == "2,1,1"
    assert lines[-1] == "3,4,13"


def test_count_methods_agree(capsys):
    _, auto_out, _ = run(["count", "--d", "2..3", "--n", "1..6"], capsys)
    _, dfs_out, _ = run(
        ["count", "--d", "2..3", "--n", "1..6", "--method", "dfs"], capsys)
    assert auto_out == dfs_out


def test_count_json_format(capsys):
    code, out, _ = run(
        ["count", "--d", "2", "--n", "3..4", "--format", "json"], capsys)
    assert code == 0
    objs = json.loads(out)
    assert objs == [{"d": 2, "n": 3, "p_d_n": 3}, {"d": 2, "n": 4, "p_d_n": 5}]


def test_count_jsonl_format(capsys):
    code, out, _ = run(
        ["count", "--d", "2", "--n", "3..4", "--format", "jsonl"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["p_d_n"] for r in rows] == [3, 5]


def test_count_out_file(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, out, _ = run(
        ["count", "--d", "2", "--n", "5", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "d,n,p_d_n\n2,5,7\n"


def test_count_budget_exceeded(monkeypatch, capsys):
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    code, _, err = run(["count", "--d", "2", "--n", "10", "--method", "dfs"],
                       capsys)
    assert code == 2
    assert "budget" in err


def test_count_deep_chain(capsys):
    code, out, _ = run(["count", "--d", "1", "--n", "3000", "--method", "dfs"], capsys)
    assert code == 0
    assert out == "d,n,p_d_n\n1,3000,1\n"


def test_count_library_error_is_one_line(capsys):
    code, out, err = run(["count", "--d", "0..2", "--n", "3"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: dimension must be at least 1\n"


def test_count_negative_size_is_one_line(capsys):
    code, out, err = run(["count", "--d", "2", "--n=-2..3"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: size must be non-negative\n"


def test_count_dimension_error_comes_before_size_error(capsys):
    code, out, err = run(["count", "--d", "0..2", "--n=-1..3"], capsys)
    assert (code, out, err) == (1, "", "error: dimension must be at least 1\n")


def test_count_dimension_one_far_size(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(["count", "--d", "1", "--n", "999999..1000000"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == "d,n,p_d_n\n1,999999,1\n1,1000000,1\n"
    assert peak < 1_000_000  # a table of 10**6 + 1 entries takes 8 MB


@pytest.mark.parametrize("method", ["auto", "dfs"])
def test_count_rows_match_per_row_counts(method, capsys):
    code, out, _ = run(["count", "--d", "1..5", "--n", "0..8", "--method", method],
                       capsys)
    assert code == 0
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
    assert rows == [(d, n, core.count_lower_sets(d, n, method))
                    for d in range(1, 6) for n in range(9)]


# Solid partitions p_4(1..8), OEIS A000293: a walk to n = 8 visits their sum.
WALK_4_8_NODES = sum([1, 4, 10, 26, 59, 140, 307, 684])


@pytest.mark.parametrize("argv", [
    ["count", "--d", "2..4", "--n", "1..8", "--method", "dfs"],
    ["bounds", "--d", "2..4", "--n", "1..8"],
])
def test_range_budget_is_the_last_rows_budget(argv, monkeypatch, capsys):
    last_row = argv[:2] + ["4", "--n", "8"] + argv[5:]
    monkeypatch.setenv(cli.BUDGET_ENV, str(WALK_4_8_NODES))
    assert run(argv, capsys)[0] == 0
    assert run(last_row, capsys)[0] == 0
    monkeypatch.setenv(cli.BUDGET_ENV, str(WALK_4_8_NODES - 1))
    for args in (argv, last_row):
        assert run(args, capsys) == (2, "", "error: budget exceeded\n")


def test_count_bad_budget_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.BUDGET_ENV, "zero")
    code, _, err = run(["count", "--d", "2", "--n", "3"], capsys)
    assert code == 1
    assert cli.BUDGET_ENV in err


# -- usage errors ---------------------------------------------------------------

def test_no_subcommand_exits_one(capsys):
    code, out, err = run([], capsys)
    assert (code, out) == (1, "")
    assert err.endswith("\nerror: the following arguments are required: command\n")


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(["count", "--d", "2", "--n", "3", "--bogus"], capsys)
    assert code == 1
    assert "usage" in err
    assert err.endswith("\nerror: unrecognized arguments: --bogus\n")


def test_descending_range_exits_one(capsys):
    code, _, err = run(["count", "--d", "5..2", "--n", "3"], capsys)
    assert code == 1
    assert err.endswith("\nerror: argument --d: empty range: '5..2'\n")


def test_non_integer_range_exits_one(capsys):
    code, _, err = run(["count", "--d", "two", "--n", "3"], capsys)
    assert code == 1
    assert err.endswith("\nerror: argument --d: expected INT or INT..INT: 'two'\n")


# -- enumerate -------------------------------------------------------------------

def test_enumerate_matches_library_order(capsys):
    code, out, _ = run(["enumerate", "--d", "2", "--n", "3"], capsys)
    assert code == 0
    expected = [core.to_json_line(q) for q in core.enumerate_lower_sets(2, 3)]
    assert out == "\n".join(expected) + "\n"
    assert len(expected) == 3


def test_enumerate_empty_size(capsys):
    code, out, _ = run(["enumerate", "--d", "3", "--n", "0"], capsys)
    assert code == 0
    assert out == "[]\n"


def test_enumerate_deep_chain(capsys):
    code, out, _ = run(["enumerate", "--d", "1", "--n", "3000"], capsys)
    assert code == 0
    assert json.loads(out) == [[i] for i in range(3000)]


def test_enumerate_budget_exceeded(monkeypatch, capsys):
    monkeypatch.setenv(cli.BUDGET_ENV, "2")
    assert run(["enumerate", "--d", "2", "--n", "6"], capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ["enumerate", "--d", "1", "--n", "100000000"],
    ["count", "--d", "100", "--n", "100", "--method", "dfs"],
    ["discretize", "--d", "1", "--n", "100000000", "--m", "5", "--seed", "1"],
])
def test_budget_below_the_cross_fails_fast(argv, monkeypatch, capsys):
    monkeypatch.setenv(cli.BUDGET_ENV, "10")
    tracemalloc.start()
    try:
        code, out, err = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: budget exceeded")
    assert peak < 1_000_000


def test_enumerate_rejects_bad_dim(capsys):
    assert run(["enumerate", "--d", "0", "--n", "3"], capsys)[0] == 1


# -- bounds ----------------------------------------------------------------------

def test_bounds_sweep_all_pass(capsys):
    code, out, _ = run(["bounds", "--d", "2..4", "--n", "3..8"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == bnd.BOUNDS_CSV_HEADER
    assert len(lines) == 1 + 18
    for line in lines[1:]:
        flags = line.split(",")[-1]
        assert ":fail" not in flags and ":boundary" not in flags


def test_bounds_edge_row_is_boundary_not_failure(capsys):
    code, out, _ = run(["bounds", "--d", "2", "--n", "2"], capsys)
    assert code == 0
    assert "thm1:boundary" in out.strip().split("\n")[1]


def test_bounds_n_one_skips_ratio_bound(capsys):
    code, out, _ = run(["bounds", "--d", "2", "--n", "1"], capsys)
    assert code == 0
    assert "thm2:skipped" in out.strip().split("\n")[1]


def test_bounds_requires_d_at_least_two(capsys):
    code, _, err = run(["bounds", "--d", "1", "--n", "5"], capsys)
    assert code == 1
    assert "d >= 2" in err


def test_bounds_jsonl_round_trip(capsys):
    code, out, _ = run(
        ["bounds", "--d", "2", "--n", "4..5", "--format", "jsonl"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["n"] for r in rows] == [4, 5]
    header = bnd.BOUNDS_CSV_HEADER.split(",")
    assert all(list(r) == header for r in rows)
    assert all(r["flags"].count(":") == r["flags"].count(";") + 1 for r in rows)


def test_bounds_json_rows_equal_csv_rows(capsys):
    def cell(value):
        if value is None:
            return ""
        return value if isinstance(value, str) else repr(value)

    for argv, rows in ((["bounds", "--d", "2..4", "--n", "1..8"], 24),
                       (["count", "--d", "1..4", "--n", "0..8"], 36),
                       (["count", "--d", "1..4", "--n", "0..8", "--method", "dfs"], 36),
                       (["count", "--d", "2", "--n", "1000"], 1)):
        code, out, _ = run(argv, capsys)
        assert code == 0
        header, *lines = out.splitlines()
        csv_rows = [line.split(",") for line in lines]
        assert len(csv_rows) == rows

        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        objs = json.loads(out)
        code, out, _ = run(argv + ["--format", "jsonl"], capsys)
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == objs
        assert [list(o) for o in objs] == [header.split(",")] * len(csv_rows)
        assert [[cell(v) for v in o.values()] for o in objs] == csv_rows
    assert objs == [{"d": 2, "n": 1000, "p_d_n": core.count_lower_sets(2, 1000)}]
    assert objs[0]["p_d_n"] > 2**63


def test_bounds_csv_row_shape(capsys):
    code, out, _ = run(["bounds", "--d", "2", "--n", "1"], capsys)
    assert code == 0
    header, line = out.splitlines()
    assert header == bnd.BOUNDS_CSV_HEADER
    row = line.split(",")
    assert len(row) == 11
    assert row[:2] == ["2", "1"]
    assert row[6] != ""  # hr applies at d = 2
    assert row[7] == "" and row[9] == ""  # ratio and staircase need n >= 2


# -- discretize ------------------------------------------------------------------

def test_discretize_grid_certifies_exactly(capsys):
    code, out, _ = run(
        ["discretize", "--d", "1", "--n", "2", "--m", "2", "--grid"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["c1"] == 1.0
    assert payload["c2"] == 1.0
    assert payload["m"] == 2


@pytest.mark.parametrize("d, m, side", [
    (30, 3, 2),  # 2**30 points would take 8 GiB
    (70, 3, 2),  # numpy rejects more than 64 axes
    (10**9, 3, 2),
    (2, 10**400, 10**200),  # m overflows a float
])
def test_discretize_grid_over_budget_fails_before_allocating(d, m, side, capsys):
    tracemalloc.start()
    try:
        code, out, err = run(
            ["discretize", "--d", str(d), "--n", "2", "--m", str(m), "--grid"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == "error: --grid needs %d^%d points, over the node budget of %d\n" % (
        side, d, core.DEFAULT_NODE_BUDGET)
    assert peak < 2_000_000


def test_discretize_grid_budget_is_exact(monkeypatch, capsys):
    argv = ["discretize", "--d", "2", "--n", "2", "--m", "9", "--grid"]
    monkeypatch.setenv(cli.BUDGET_ENV, "9")  # a 3 x 3 grid
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["m"] == 9
    monkeypatch.setenv(cli.BUDGET_ENV, "8")
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --grid needs 3^2 points, over the node budget of 8\n"


def test_discretize_m_over_budget_fails_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(
            ["discretize", "--d", "2", "--n", "2", "--m", str(10**30), "--seed", "1"],
            capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: --m needs %d points, over the node budget of %d\n" % (
        10**30, core.DEFAULT_NODE_BUDGET)
    assert peak < 2_000_000


def test_discretize_m_budget_is_exact(monkeypatch, capsys):
    argv = ["discretize", "--d", "2", "--n", "2", "--m", "9", "--seed", "1"]
    monkeypatch.setenv(cli.BUDGET_ENV, "9")
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["m"] == 9
    monkeypatch.setenv(cli.BUDGET_ENV, "8")
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: --m needs 9 points, over the node budget of 8\n"


def test_discretize_search_stops_at_the_budget(monkeypatch, capsys):
    argv = ["discretize", "--d", "1", "--n", "2", "--search", "--seed", "1",
            "--trials", "1", "--c1", "0.9999999", "--c2", "1.0000001",
            "--m-max", str(10**12)]
    monkeypatch.setenv(cli.BUDGET_ENV, "64")
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: search needs 128 points, over the node budget of 64\n"


def test_discretize_search_qualifying_under_the_budget_is_unaffected(monkeypatch, capsys):
    # It qualifies at m = 8 and samples no more, so a budget of 8 points
    # holds it although --m-max lies far above the budget.
    argv = ["discretize", "--d", "2", "--n", "3", "--search", "--seed", "1",
            "--m-max", str(10**12)]
    _, expected, _ = run(argv, capsys)
    assert json.loads(expected)["search"]["m_found"] == 8
    monkeypatch.setenv(cli.BUDGET_ENV, "8")
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (0, expected, "")
    monkeypatch.setenv(cli.BUDGET_ENV, "7")
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: search needs 8 points, over the node budget of 7\n"


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 8.00 GiB", "error: Unable to allocate 8.00 GiB\n"),
    ("", "error: out of memory\n"),
])
def test_memory_error_is_one_line(monkeypatch, capsys, message, line):
    def exhausted(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(core, "count_table", exhausted)
    code, out, err = run(["count", "--d", "2", "--n", "5"], capsys)
    assert (code, out, err) == (1, "", line)


def test_discretize_single_point_fails_targets(capsys):
    code, out, _ = run(
        ["discretize", "--d", "2", "--n", "3", "--m", "1", "--seed", "5"],
        capsys)
    assert code == 3
    assert json.loads(out)["c1"] < 1e-9


def test_discretize_deep_dimension_reports_the_cross(capsys):
    code, out, err = run(
        ["discretize", "--d", "400", "--n", "2", "--m", "3", "--seed", "1"], capsys)
    assert code == 3
    assert json.loads(out)["bounds"]["hyperbolic_size"] == 401
    assert err == ""


def test_discretize_bound_beyond_a_double_is_one_line(monkeypatch, capsys):
    def no_walk(*args):
        raise AssertionError("the bound is checked before the walk")

    monkeypatch.setattr(disc, "_walk", no_walk)
    base = ["discretize", "--d", "1400", "--n", "2", "--seed", "1"]
    for extra in (["--m", "3"], ["--search"]):
        code, out, err = run(base + extra, capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: hyperbolic cross bound")


def test_discretize_search_reports_m_found(capsys):
    code, out, _ = run(
        ["discretize", "--d", "2", "--n", "3", "--search", "--seed", "7",
         "--trials", "20"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["search"]["m_found"] == payload["m"]
    assert payload["c1"] >= 0.5 and payload["c2"] <= 1.5


def test_discretize_search_exhaustion_exits_three(capsys):
    code, _, err = run(
        ["discretize", "--d", "2", "--n", "3", "--search", "--seed", "1",
         "--c1", "0.999", "--c2", "1.001", "--m-max", "4"], capsys)
    assert code == 3
    assert "no qualifying m" in err


def test_discretize_search_budget_exceeded(monkeypatch, capsys):
    base = ["discretize", "--d", "2", "--n", "6", "--seed", "7"]
    monkeypatch.setenv(cli.BUDGET_ENV, "3")
    assert run(base + ["--m", "50"], capsys)[0] == 2
    code, out, err = run(base + ["--search", "--trials", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_discretize_nonpositive_search_limits_rejected(capsys):
    base = ["discretize", "--d", "2", "--n", "3", "--search", "--seed", "1"]
    for extra, flag in ((["--trials", "0"], "--trials"),
                        (["--trials", "-2"], "--trials"),
                        (["--m-max", "0"], "--m-max")):
        code, out, err = run(base + extra, capsys)
        assert code == 1
        assert out == ""
        assert "error: %s must be positive" % flag in err
        assert "Traceback" not in err


def test_discretize_randomized_needs_seed(capsys):
    code, _, err = run(["discretize", "--d", "2", "--n", "3", "--m", "8"],
                       capsys)
    assert code == 1
    assert "seed" in err


def test_discretize_m_and_search_conflict(capsys):
    code, _, _ = run(
        ["discretize", "--d", "2", "--n", "3", "--m", "8", "--search",
         "--seed", "1"], capsys)
    assert code == 1


def test_discretize_grid_with_search_rejected(capsys):
    code, _, _ = run(
        ["discretize", "--d", "2", "--n", "3", "--search", "--grid",
         "--seed", "1"], capsys)
    assert code == 1


def test_discretize_bad_targets_rejected(capsys):
    code, _, err = run(
        ["discretize", "--d", "2", "--n", "3", "--m", "8", "--seed", "1",
         "--c1", "1.2"], capsys)
    assert code == 1
    assert "c1" in err


def test_discretize_points_out(tmp_path, capsys):
    report = tmp_path / "report.json"
    points = tmp_path / "points.csv"
    code, _, _ = run(
        ["discretize", "--d", "2", "--n", "3", "--m", "16", "--seed", "7",
         "--out", str(report), "--points-out", str(points)], capsys)
    assert code == 0
    assert json.loads(report.read_text())["m"] == 16
    rows = points.read_text().strip().split("\n")
    assert len(rows) == 16
    assert all(len(row.split(",")) == 2 for row in rows)


def test_discretize_unwritable_out_is_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        ["discretize", "--d", "2", "--n", "3", "--m", "8", "--seed", "1",
         "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(target) in err


def test_discretize_eigensolver_failure_is_one_line(monkeypatch, capsys):
    def nan_spectrum(a):
        return np.full(a.shape[:-1], np.nan)
    monkeypatch.setattr(disc.np.linalg, "eigvalsh", nan_spectrum)
    code, out, err = run(
        ["discretize", "--d", "2", "--n", "3", "--m", "8", "--seed", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: non-finite Gram eigenvalue for n=3 m=8\n"


# -- atomic output files -----------------------------------------------------------

def _discretize_to(report, points):
    return ["discretize", "--d", "2", "--n", "3", "--m", "16", "--seed", "7",
            "--out", str(report), "--points-out", str(points)]


def test_successful_run_leaves_only_targets(tmp_path, capsys):
    report, points = tmp_path / "report.json", tmp_path / "points.csv"
    points.write_text("stale\n")
    assert run(_discretize_to(report, points), capsys)[0] == 0
    assert sorted(os.listdir(tmp_path)) == ["points.csv", "report.json"]
    assert len(points.read_text().splitlines()) == 16
    mask = os.umask(0)
    os.umask(mask)
    for target in (report, points):
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask


def test_failing_points_out_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    report, points = tmp_path / "report.json", tmp_path / "points.csv"
    points.write_text("stale\n")
    real_replace = os.replace

    def replace(src, dst):  # the rename onto the points file fails after the write
        if dst == str(points):
            raise OSError(errno.EIO, os.strerror(errno.EIO), src, None, dst)
        real_replace(src, dst)
    monkeypatch.setattr(cli.os, "replace", replace)
    code, out, err = run(_discretize_to(report, points), capsys)
    assert code == 1
    assert out == ""
    assert err == "error: [Errno %d] %s: '%s'\n" % (
        errno.EIO, os.strerror(errno.EIO), points)
    assert sorted(os.listdir(tmp_path)) == ["points.csv", "report.json"]
    assert points.read_text() == "stale\n"


def test_directory_target_is_one_line(tmp_path, capsys):
    target = tmp_path / "points"
    target.mkdir()
    code, out, err = run(["count", "--d", "2", "--n", "5", "--out", str(target)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: [Errno %d] %s: '%s'\n" % (
        errno.EISDIR, os.strerror(errno.EISDIR), target)
    assert os.listdir(tmp_path) == ["points"]
    assert os.listdir(target) == []


def _count_to(target):
    return ["count", "--d", "2", "--n", "5", "--out", str(target)]


COUNT_2_5 = "d,n,p_d_n\n2,5,7\n"


def test_existing_target_keeps_its_mode(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    assert run(_count_to(target), capsys)[0] == 0
    assert target.read_text() == COUNT_2_5
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert os.listdir(tmp_path) == ["counts.csv"]


def test_fifo_target_is_written_not_replaced(tmp_path, capsys):
    fifo = tmp_path / "counts.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(_count_to(fifo), capsys)[0] == 0
    reader.join(timeout=10)
    assert got == [COUNT_2_5]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["counts.fifo"]


def test_links_are_written_through(tmp_path, capsys):
    target, hard, soft = tmp_path / "counts.csv", tmp_path / "hard.csv", tmp_path / "soft.csv"
    target.write_text("old\n")
    os.link(target, hard)
    soft.symlink_to(target)
    assert run(_count_to(hard), capsys)[0] == 0
    assert target.read_text() == COUNT_2_5
    assert os.path.samefile(target, hard)
    target.write_text("old\n")
    assert run(_count_to(soft), capsys)[0] == 0
    assert soft.is_symlink()
    assert target.read_text() == COUNT_2_5
    assert sorted(os.listdir(tmp_path)) == ["counts.csv", "hard.csv", "soft.csv"]


def test_read_only_target_is_refused_as_open_would(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    target.write_text("old\n")
    target.chmod(0o444)
    try:  # the superuser may still open it for writing
        open(target, "a").close()
        writable = True
    except PermissionError:
        writable = False
    code, _, err = run(_count_to(target), capsys)
    assert code == (0 if writable else 1)
    assert target.read_text() == (COUNT_2_5 if writable else "old\n")
    if not writable:
        assert err == "error: [Errno %d] %s: '%s'\n" % (
            errno.EACCES, os.strerror(errno.EACCES), target)
    assert stat.S_IMODE(target.stat().st_mode) == 0o444
    assert os.listdir(tmp_path) == ["counts.csv"]


def test_target_in_read_only_directory_is_written(tmp_path, capsys):
    folder = tmp_path / "locked"
    folder.mkdir()
    target = folder / "counts.csv"
    target.write_text("old\n")
    folder.chmod(0o555)
    try:
        assert run(_count_to(target), capsys)[0] == 0
        assert target.read_text() == COUNT_2_5
        assert os.listdir(folder) == ["counts.csv"]
    finally:
        folder.chmod(0o755)


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "counts.csv"
    target.write_text("old\n")

    def no_rename(src, dst):
        raise OSError(errno.EIO, os.strerror(errno.EIO), src, None, dst)
    monkeypatch.setattr(cli.os, "replace", no_rename)
    code, _, err = run(["count", "--d", "2", "--n", "5", "--out", str(target)], capsys)
    assert code == 1
    assert err == "error: [Errno %d] %s: '%s'\n" % (errno.EIO, os.strerror(errno.EIO), target)
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["counts.csv"]


# -- reproducibility ---------------------------------------------------------------

def test_seeded_runs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for label in ("first", "second"):
        report = tmp_path / ("%s.json" % label)
        points = tmp_path / ("%s.csv" % label)
        code, _, _ = run(
            ["discretize", "--d", "2", "--n", "4", "--search", "--seed", "11",
             "--trials", "5", "--out", str(report),
             "--points-out", str(points)], capsys)
        assert code == 0
        outputs.append((report.read_bytes(), points.read_bytes()))
    assert outputs[0] == outputs[1]


def test_unseeded_deterministic_commands_repeat(capsys):
    first = run(["bounds", "--d", "2..3", "--n", "2..5"], capsys)
    second = run(["bounds", "--d", "2..3", "--n", "2..5"], capsys)
    assert first == second


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "lowersets.cli", "count", "--d", "2", "--n", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "d,n,p_d_n\n2,4,5\n"
