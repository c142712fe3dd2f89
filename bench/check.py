"""Independent correctness checks for benchmark invocations.

Nothing here imports ``lowersets``: counts come from recurrences written
out below (Euler's pentagonal recurrence for d = 2, MacMahon's sigma_2
recurrence for d = 3) and from published tables for d = 4 and d = 5, and
eigenvalues are recomputed directly with numpy.  Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

# Solid partitions, OEIS A000293 (Knuth, Math. Comp. 24 (1970) 955-961).
SOLID_PARTITIONS = (1, 1, 4, 10, 26, 59, 140, 307, 684, 1464, 3122, 6500, 13426)
# Four-dimensional partitions, OEIS A000334.
FOUR_DIM_PARTITIONS = (1, 1, 5, 15, 45, 120, 326, 835, 2145, 5345, 13220)

BOUNDS_KEYS = ("d", "n", "ln_p", "thm1_lo", "thm1_hi", "cohen", "hr",
               "c_prime_ratio", "c_upper", "eq_a", "flags")
TOL = 1e-9


@lru_cache(maxsize=None)
def _partitions(n_max: int) -> tuple[int, ...]:
    """p(0..n_max) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return tuple(p)


@lru_cache(maxsize=None)
def _plane_partitions(n_max: int) -> tuple[int, ...]:
    """PP(0..n_max) by MacMahon: n PP(n) = sum_k sigma_2(k) PP(n - k)."""
    sigma2 = [0] * (n_max + 1)
    for a in range(1, n_max + 1):
        for b in range(a, n_max + 1, a):
            sigma2[b] += a * a
    pp = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = sum(sigma2[k] * pp[n - k] for k in range(1, n + 1))
        assert total % n == 0
        pp[n] = total // n
    return tuple(pp)


def expected_count(d: int, n: int) -> int:
    """Number of lower sets of size n in Z_+^d, from the sources above."""
    if d == 1 or n == 0:
        return 1
    if d == 2:
        return _partitions(max(n, 128))[n]
    if d == 3:
        return _plane_partitions(max(n, 128))[n]
    table = {4: SOLID_PARTITIONS, 5: FOUR_DIM_PARTITIONS}.get(d, ())
    if n >= len(table):
        raise KeyError("no reference count for d=%d n=%d" % (d, n))
    return table[n]


def walk_nodes(d: int, n: int) -> int:
    """Sets of size 1..n, which is what one tally walk to size n visits."""
    return sum(expected_count(d, k) for k in range(1, n + 1))


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]
    if fmt == "json":
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines()]


def check_count(text: str, fmt: str, ds: range, ns: range) -> list[str]:
    rows = _rows(text, fmt)
    cells = [(d, n) for d in ds for n in ns]
    if len(rows) != len(cells):
        return ["expected %d rows, got %d" % (len(cells), len(rows))]
    problems = []
    for (d, n), row in zip(cells, rows):
        got = (int(row["d"]), int(row["n"]), int(row["p_d_n"]))
        if got != (d, n, expected_count(d, n)):
            problems.append("row %r != (%d, %d, %d)" % (got, d, n, expected_count(d, n)))
    return problems


def check_bounds(text: str, fmt: str, ds: range, ns: range) -> list[str]:
    """Every applicable flag passes and ln_p is the log of the true count."""
    rows = _rows(text, fmt)
    cells = [(d, n) for d in ds for n in ns]
    if len(rows) != len(cells):
        return ["expected %d rows, got %d" % (len(cells), len(rows))]
    problems = []
    for (d, n), row in zip(cells, rows):
        if tuple(row) != BOUNDS_KEYS:
            problems.append("columns %r" % (tuple(row),))
            continue
        if (int(row["d"]), int(row["n"])) != (d, n):
            problems.append("cell (%s, %s) != (%d, %d)" % (row["d"], row["n"], d, n))
            continue
        ln_p = math.log(expected_count(d, n))
        if abs(float(row["ln_p"]) - ln_p) > TOL * max(1.0, ln_p):
            problems.append("d=%d n=%d ln_p %s != %r" % (d, n, row["ln_p"], ln_p))
        want = ["thm1:pass", "cohen:pass", "hr:pass" if d == 2 else "hr:skipped",
                "thm2:pass", "eq_a:pass"]
        if row["flags"].split(";") != want:
            problems.append("d=%d n=%d flags %s" % (d, n, row["flags"]))
    return problems


def _lower_set_problem(points: list, d: int, n: int) -> str | None:
    pts = [tuple(p) for p in points]
    if len(pts) != n:
        return "size %d != %d" % (len(pts), n)
    if any(len(p) != d or min(p) < 0 for p in pts):
        return "bad point in %r" % (pts,)
    if any(a >= b for a, b in zip(pts, pts[1:])):
        return "points not strictly lex-increasing"
    members = set(pts)
    for p in pts:
        for i, c in enumerate(p):
            if c and p[:i] + (c - 1,) + p[i + 1:] not in members:
                return "%r lacks a predecessor" % (p,)
    return None


def check_enumerate(text: str, d: int, n: int) -> list[str]:
    """One line per lower set, all of them, strictly lex-increasing."""
    lines = text.splitlines()
    want = expected_count(d, n)
    if len(lines) != want:
        return ["expected %d lines, got %d" % (want, len(lines))]
    problems = []
    prev = None
    for i, line in enumerate(lines):
        pts = tuple(tuple(p) for p in json.loads(line))
        bad = _lower_set_problem(pts, d, n)
        if bad:
            problems.append("line %d: %s" % (i, bad))
        if prev is not None and not prev < pts:
            problems.append("line %d not after line %d" % (i, i - 1))
        prev = pts
        if len(problems) > 5:
            break
    return problems


def gram_extremes(points: np.ndarray, freqs: list) -> tuple[float, float]:
    """Smallest (clamped at 0) and largest eigenvalue of (1/m) V* V."""
    v = np.exp(2j * np.pi * (points @ np.asarray(freqs, dtype=float).T))
    eigs = np.linalg.eigvalsh(v.conj().T @ v / points.shape[0])
    return max(float(eigs[0]), 0.0), float(eigs[-1])


def _report_problems(report: dict, d: int, n: int, m: int | None) -> list[str]:
    problems = []
    if (report["d"], report["n"]) != (d, n):
        problems.append("report is for d=%r n=%r" % (report["d"], report["n"]))
    if m is not None and report["m"] != m:
        problems.append("report m=%r != %d" % (report["m"], m))
    for key in ("c1", "c2"):
        bad = _lower_set_problem(report["witness_sets"][key], d, n)
        if bad:
            problems.append("%s witness: %s" % (key, bad))
    return problems


def _witness_problems(report: dict, points: np.ndarray) -> list[str]:
    c1, _ = gram_extremes(points, report["witness_sets"]["c1"])
    _, c2 = gram_extremes(points, report["witness_sets"]["c2"])
    problems = []
    if abs(c1 - report["c1"]) > TOL:
        problems.append("c1 %r but its witness gives %r" % (report["c1"], c1))
    if abs(c2 - report["c2"]) > TOL:
        problems.append("c2 %r but its witness gives %r" % (report["c2"], c2))
    return problems


def sample(d: int, m: int, seed: int) -> np.ndarray:
    """The documented sampler: m uniform rows from default_rng(seed)."""
    return np.random.default_rng(seed).random((m, d))


def check_grid(text: str, d: int, n: int, m: int) -> list[str]:
    """A tensor grid with side >= n integrates the family exactly."""
    report = json.loads(text)
    problems = _report_problems(report, d, n, m)
    if abs(report["c1"] - 1.0) > TOL or abs(report["c2"] - 1.0) > TOL:
        problems.append("grid c1=%r c2=%r, expected 1" % (report["c1"], report["c2"]))
    return problems


def check_mcert(text: str, d: int, n: int, m: int, seed: int, ref: dict) -> list[str]:
    report = json.loads(text)
    problems = _report_problems(report, d, n, m)
    if not report["c1"] <= 1.0 + TOL or not report["c2"] >= 1.0 - TOL:
        problems.append("c1=%r c2=%r do not bracket 1" % (report["c1"], report["c2"]))
    for key in ("c1", "c2"):
        if abs(report[key] - ref[key]) > TOL:
            problems.append("%s=%r, reference %r" % (key, report[key], ref[key]))
    return problems + _witness_problems(report, sample(d, m, seed))


def check_search(text: str, d: int, n: int, seed: int, trials: int, ref: dict) -> list[str]:
    report = json.loads(text)
    problems = _report_problems(report, d, n, None)
    m = report["search"]["m_found"]
    if m != ref["m_found"] or report["m"] != m:
        problems.append("m_found=%r, reference %r" % (m, ref["m_found"]))
    for key in ("c1", "c2"):
        if abs(report[key] - ref[key]) > TOL:
            problems.append("%s=%r, reference %r" % (key, report[key], ref[key]))
    if problems:
        return problems
    # The witness draw is one of the seeded trials at the found size.
    for t in range(trials):
        if not _witness_problems(report, sample(d, m, seed + t)):
            return []
    return ["no trial draw reproduces the witness eigenvalues"]
