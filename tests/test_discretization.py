"""Gram spectra, universal constants, the minimal-m search and the
hyperbolic cross helpers.

The identity-Gram cases are exact by orthogonality of the exponential
system on aligned grids, so tolerances there only absorb rounding.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
import pytest
from pytest import approx

from bruteforce import candidate_cells
from lowersets import core, discretization as d


def _ls(dim, pts):
    return core.LowerSet.from_points(dim, pts)


# -- basis and point sets -----------------------------------------------------

def test_basis_value_examples():
    assert d.basis_value((0, 0), (0.25, 0.9)) == approx(1.0)
    assert d.basis_value((1, 0), (0.5, 0.3)) == approx(-1.0)


def test_basis_value_unimodular():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = tuple(rng.integers(0, 9, size=3))
        x = tuple(rng.random(3))
        assert abs(d.basis_value(k, x)) == approx(1.0, abs=1e-12)


def test_basis_value_dimension_mismatch():
    with pytest.raises(ValueError):
        d.basis_value((1, 2), (0.5,))


def test_condition_e_bound_examples():
    assert d.condition_e_bound(_ls(2, [(0, 0), (1, 0), (0, 1)])) == 3
    q = _ls(1, [(0,)])
    assert d.condition_e_bound(q) / len(q) == 1


def test_sample_points_seeded_and_in_range():
    a = d.sample_points(3, 50, seed=11)
    bb = d.sample_points(3, 50, seed=11)
    assert np.array_equal(a.points, bb.points)
    assert a.points.shape == (50, 3)
    assert np.all(a.points >= 0) and np.all(a.points < 1)
    assert a.seed == 11


def test_tensor_grid_example():
    xs = d.tensor_grid(2, [2, 2])
    assert [tuple(r) for r in xs.points] == [
        (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def test_point_set_validation():
    with pytest.raises(ValueError):
        d.PointSetTorus(2, np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        d.PointSetTorus(2, np.zeros((0, 2)))
    xs = d.sample_points(2, 3, seed=0)
    with pytest.raises(ValueError):
        xs.points[0, 0] = 0.5  # read-only


# -- Gram spectra -------------------------------------------------------------

def test_gram_identity_on_aligned_grid():
    q = _ls(1, [(0,), (1,)])
    xs = d.tensor_grid(1, [2])
    g = d.gram_matrix(q, xs)
    assert np.allclose(g, np.eye(2), atol=1e-12)
    spec = d.gram_spectrum(q, xs)
    assert spec.lambda_min == approx(1.0, abs=1e-9)
    assert spec.lambda_max == approx(1.0, abs=1e-9)


def test_gram_rank_deficiency_single_point():
    q = _ls(2, [(0, 0), (1, 0), (0, 1)])
    xs = d.PointSetTorus(2, np.array([[0.3, 0.7]]))
    spec = d.gram_spectrum(q, xs)
    assert spec.lambda_min == approx(0.0, abs=1e-12)
    assert spec.lambda_max == approx(3.0, abs=1e-12)  # trace collapses


def test_gram_trace_is_subspace_size():
    q = _ls(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    xs = d.sample_points(2, 37, seed=5)
    g = d.gram_matrix(q, xs)
    assert float(np.trace(g).real) == approx(len(q), abs=1e-12)
    spec = d.gram_spectrum(q, xs)
    assert spec.lambda_min <= 1.0 <= spec.lambda_max


def test_rayleigh_quotients_within_spectrum():
    q = _ls(2, [(0, 0), (1, 0), (0, 1)])
    xs = d.sample_points(2, 25, seed=9)
    g = d.gram_matrix(q, xs)
    spec = d.gram_spectrum(q, xs)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        quot = float((c.conj() @ g @ c).real / (c.conj() @ c).real)
        assert spec.lambda_min - 1e-9 <= quot <= spec.lambda_max + 1e-9


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        d.gram_matrix(_ls(2, [(0, 0)]), d.sample_points(3, 4, seed=0))


# -- universal constants ------------------------------------------------------

def test_universal_constants_grid_exact():
    for dim in (1, 2):
        for n in range(1, 6):
            xs = d.tensor_grid(dim, [n] * dim)
            rep = d.universal_constants(dim, n, xs)
            assert rep.c1 == approx(1.0, abs=1e-9)
            assert rep.c2 == approx(1.0, abs=1e-9)


def test_universal_constants_anchor():
    # regression anchor: 16 uniform points, seed 7
    xs = d.sample_points(2, 16, seed=7)
    rep = d.universal_constants(2, 3, xs)
    assert rep.c1 == approx(0.739025050647132, abs=1e-9)
    assert rep.c2 == approx(1.3243716504711887, abs=1e-9)
    assert rep.c1 > 0
    assert len(rep.witness_min) == 3 and len(rep.witness_max) == 3


def test_universal_constants_report_fields():
    xs = d.sample_points(2, 8, seed=1)
    rep = d.universal_constants(2, 3, xs)
    assert (rep.d, rep.n, rep.m) == (2, 3, 8)
    assert rep.regime == "n < d^d"
    assert rep.bounds["thm6"] == approx(9 * math.log(2))
    assert rep.bounds["thm6_b"] == approx(3 ** 1.5 * 2 ** math.log(2))
    assert rep.bounds["hyperbolic_size"] == 5
    assert rep.bounds["hyperbolic_bound"] == approx(3 * (1 + math.log(3)) ** 1)


def test_universal_constants_budget():
    xs = d.sample_points(2, 4, seed=1)
    with pytest.raises(core.BudgetExceededError, match="smaller n or d"):
        d.universal_constants(2, 6, xs, budget=3)


def test_family_budget_below_the_cross_fails_before_building_it():
    # the d = 1 cross of size 10**8 would take gigabytes; the budget stops it
    xs = d.sample_points(1, 4, seed=1)
    with pytest.raises(core.BudgetExceededError, match="smaller n or d"):
        d.universal_constants(1, 10**8, xs, budget=10)
    xs = d.sample_points(100, 4, seed=1)
    with pytest.raises(core.BudgetExceededError, match="smaller n or d"):
        d.universal_constants(100, 100, xs, budget=1000)


# -- batched sweep against the per-set reference ------------------------------

def _assert_sweep_matches_reference(dim, n, xs):
    """Every set's batched extremes equal gram_spectrum's, and the report's
    constants and witnesses follow from them."""
    cells, index = d._family(dim, n, core.DEFAULT_NODE_BUDGET)
    lo, hi = d._extremes(cells, index, xs)
    specs = [d.gram_spectrum(q, xs) for q in core.enumerate_lower_sets(dim, n)]
    assert len(specs) == len(lo) == len(hi)
    for spec, row, a, b in zip(specs, index, lo, hi):
        assert tuple(cells[i] for i in row) == spec.subspace.points
        assert a == approx(spec.lambda_min, abs=1e-12)
        assert b == approx(spec.lambda_max, abs=1e-12)
    rep = d.universal_constants(dim, n, xs)
    assert rep.c1 == approx(min(s.lambda_min for s in specs), abs=1e-12)
    assert rep.c2 == approx(max(s.lambda_max for s in specs), abs=1e-12)
    assert d.gram_spectrum(rep.witness_min, xs).lambda_min == approx(rep.c1, abs=1e-12)
    assert d.gram_spectrum(rep.witness_max, xs).lambda_max == approx(rep.c2, abs=1e-12)
    # witnesses skip validation, so run them through the public constructor
    for q in (rep.witness_min, rep.witness_max):
        assert q == core.LowerSet(q.dim, q.points)
    return rep


@pytest.mark.parametrize("dim,n,m,seed", [
    (1, 6, 9, 1), (2, 6, 30, 2), (3, 5, 40, 3), (4, 4, 50, 4)])
def test_sweep_matches_per_set_reference(dim, n, m, seed):
    _assert_sweep_matches_reference(dim, n, d.sample_points(dim, m, seed))


def test_sweep_rank_deficient_draw():
    # m < n: every Gram in the family is singular
    rep = _assert_sweep_matches_reference(2, 6, d.sample_points(2, 4, seed=5))
    assert rep.c1 == approx(0.0, abs=1e-12)


def test_sweep_tensor_grid():
    rep = _assert_sweep_matches_reference(2, 5, d.tensor_grid(2, [5, 5]))
    assert rep.c1 == approx(1.0, abs=1e-12)
    assert rep.c2 == approx(1.0, abs=1e-12)


def test_sweep_family_larger_than_one_chunk():
    p = core.count_lower_sets(4, 10)
    assert p * 10 * 10 > d._CHUNK_ENTRIES
    _assert_sweep_matches_reference(4, 10, d.sample_points(4, 60, seed=6))


def test_sweep_independent_of_chunk_size(monkeypatch):
    xs = d.sample_points(3, 7, seed=8)
    cells, index = d._family(3, 7, core.DEFAULT_NODE_BUDGET)
    lo, hi = d._extremes(cells, index, xs)
    rep = d.universal_constants(3, 7, xs)
    monkeypatch.setattr(d, "_CHUNK_ENTRIES", 1)
    lo1, hi1 = d._extremes(cells, index, xs)
    assert np.array_equal(lo, lo1) and np.array_equal(hi, hi1)
    assert d.universal_constants(3, 7, xs) == rep


def test_family_cells_are_the_shifted_hyperbolic_cross():
    for dim in (1, 2, 3, 4):
        for n in range(1, 9):
            cells, index = d._family(dim, n, core.DEFAULT_NODE_BUDGET)
            assert cells == candidate_cells(dim, n)
            assert len(cells) == d.hyperbolic_cross_size(dim, n)
            assert index.shape == (core.count_lower_sets(dim, n), n)
            assert np.all(np.diff(index, axis=1) > 0)
            # every cell of the cross lies in some set of the family
            assert np.array_equal(np.unique(index), np.arange(len(cells)))


def test_non_finite_points_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            d.PointSetTorus(2, np.array([[bad, 0.1], [0.2, 0.3]]))


def test_non_finite_spectrum_raises_eigen_solver_error():
    xs = d.sample_points(2, 6, seed=1)
    poisoned = xs.points.copy()
    poisoned[0, 0] = math.nan
    object.__setattr__(xs, "points", poisoned)  # past PointSetTorus validation
    with pytest.raises(d.EigenSolverError):
        d.universal_constants(2, 3, xs)


def test_lost_positivity_raises_eigen_solver_error(monkeypatch):
    def negative(a):
        return np.full(a.shape[:-1], -1e-6)
    monkeypatch.setattr(d.np.linalg, "eigvalsh", negative)
    with pytest.raises(d.EigenSolverError, match="positivity"):
        d.universal_constants(2, 3, d.sample_points(2, 8, seed=1))


# -- minimal-m search ---------------------------------------------------------

def test_search_small_one_dimensional():
    res = d.search_minimal_m(1, 2, 0.5, 1.5, trials_per_m=20, seed=7)
    assert res.m <= 4
    assert res.report.c1 >= 0.5 and res.report.c2 <= 1.5


def test_search_anchor_and_audit():
    res = d.search_minimal_m(2, 3, 0.5, 1.5, trials_per_m=20, seed=7)
    assert res.m == 8  # regression anchor
    again = d.universal_constants(2, 3, res.witness)
    assert again.c1 == res.report.c1
    assert again.c2 == res.report.c2


def test_search_monotone_headroom():
    # a found m stays well under the generous reference cap
    for n in (3, 4):
        p = core.count_lower_sets(2, n)
        cap = math.ceil(8 * n * math.log(n * p)) * 4
        res = d.search_minimal_m(2, n, trials_per_m=20, seed=7, m_max=cap)
        assert res.m <= cap


def test_search_exhausted_carries_best():
    with pytest.raises(d.SearchExhausted) as err:
        d.search_minimal_m(2, 3, 0.999999, 1.000001, trials_per_m=2, seed=7, m_max=8)
    assert err.value.best_m >= 1
    assert err.value.best_c1 < 0.999999 or err.value.best_c2 > 1.000001


def _probes(monkeypatch) -> list:
    """Record the (m, seed) of every draw the search samples."""
    calls = []
    sample = d.sample_points

    def recorded(dim, m, seed):
        calls.append((m, seed))
        return sample(dim, m, seed)

    monkeypatch.setattr(d, "sample_points", recorded)
    return calls


# Doubling to 16, then bisection: 12 misses, 14 and 13 qualify.
_FOUND_AT_13 = [(1, 1), (2, 1), (4, 1), (8, 1), (16, 1), (12, 1), (14, 1), (13, 1)]


@pytest.mark.parametrize("trials, probes", [
    (1, _FOUND_AT_13),
    (2, [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2), (16, 1),
         (12, 1), (12, 2), (14, 1), (13, 1)]),
])
def test_search_probe_order_when_found(monkeypatch, trials, probes):
    calls = _probes(monkeypatch)
    res = d.search_minimal_m(2, 3, 0.5, 1.5, trials_per_m=trials, seed=1)
    assert calls == probes
    assert res.m == res.report.m == 13
    assert (res.report.c1, res.report.c2) == (
        approx(0.5804445421611897, abs=1e-9), approx(1.4490722827117943, abs=1e-9))


# The exhausted searches probe every size up to m_max; ties in the score
# keep the first attempt (m_max = 1, two trials of c1 = 0, c2 = 3).
@pytest.mark.parametrize("m_max, trials, probes, best, text", [
    (1, 1, [(1, 1)], (1, 0.0, 3.0), "m=1 gave c1=0 c2=3"),
    (1, 2, [(1, 1), (1, 2)], (1, 0.0, 3.0), "m=1 gave c1=0 c2=3"),
    (3, 1, [(1, 1), (2, 1), (3, 1)], (3, 4.2445295627285134e-05, 2.178436388310563),
     "m=3 gave c1=4.24453e-05 c2=2.17844"),
    (3, 2, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)],
     (3, 0.08966522920427505, 1.8358875665118333), "m=3 gave c1=0.0896652 c2=1.83589"),
    (8, 1, [(1, 1), (2, 1), (4, 1), (8, 1)], (8, 0.3154899476192776, 1.6796506137645595),
     "m=8 gave c1=0.31549 c2=1.67965"),
    (8, 2, [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)],
     (8, 0.3154899476192776, 1.6796506137645595), "m=8 gave c1=0.31549 c2=1.67965"),
])
def test_search_probe_order_when_exhausted(monkeypatch, m_max, trials, probes, best, text):
    calls = _probes(monkeypatch)
    with pytest.raises(d.SearchExhausted) as err:
        d.search_minimal_m(2, 3, 0.999, 1.001, trials_per_m=trials, seed=1, m_max=m_max)
    assert calls == probes
    m, c1, c2 = best
    exc = err.value
    assert (exc.best_m, exc.best_c1, exc.best_c2) == (
        m, approx(c1, abs=1e-9), approx(c2, abs=1e-9))
    assert str(exc) == "no qualifying m found; best attempt " + text


def test_search_validates_targets():
    with pytest.raises(ValueError):
        d.search_minimal_m(2, 3, 1.5, 2.0, seed=1)
    with pytest.raises(ValueError):
        d.search_minimal_m(2, 3, 0.5, 1.5, trials_per_m=0, seed=1)


# -- hyperbolic cross ---------------------------------------------------------

def test_hyperbolic_cross_examples():
    assert d.hyperbolic_cross_size(2, 4) == 8
    assert d.hyperbolic_cross_size(1, 7) == 7
    assert d.hyperbolic_cross_size(3, 0) == 0
    # the cells 0, e_i (and 2e_i) of deep crosses, with no recursion per axis
    assert d.hyperbolic_cross_size(1200, 2) == 1201
    assert d.hyperbolic_cross_size(1200, 3) == 2401


def test_hyperbolic_cross_bound_beyond_a_double_is_a_value_error():
    # (1 + ln 2)^1347 is finite but twice it is inf; the next power raises
    # OverflowError
    for dim in (1348, 1349, 1400):
        with pytest.raises(ValueError, match="exceeds a double"):
            d.hyperbolic_cross_bound(dim, 2)
    assert d.hyperbolic_cross_bound(1347, 2) < math.inf


def test_hyperbolic_cross_against_product_scan():
    import itertools

    for dim in (2, 3):
        for n in range(1, 25):
            direct = sum(
                1
                for k in itertools.product(range(1, n + 1), repeat=dim)
                if math.prod(k) <= n
            )
            assert d.hyperbolic_cross_size(dim, n) == direct


def test_hyperbolic_cross_bound_holds():
    # Strict inequality holds for dim >= 2 and n >= 2.
    for dim in range(2, 6):
        for n in range(2, 201):
            assert d.hyperbolic_cross_size(dim, n) < d.hyperbolic_cross_bound(dim, n)


def test_hyperbolic_cross_bound_edge_equalities():
    # At dim = 1 the bound degenerates to n itself; at n = 1 both sides are 1.
    for n in (1, 2, 5, 50, 200):
        assert d.hyperbolic_cross_size(1, n) == n
        assert d.hyperbolic_cross_bound(1, n) == approx(n)
    for dim in range(1, 6):
        assert d.hyperbolic_cross_size(dim, 1) == 1
        assert d.hyperbolic_cross_bound(dim, 1) == approx(1.0)


def test_hyperbolic_cross_monotone():
    for dim in (1, 2, 3, 4):
        for n in range(1, 40):
            assert d.hyperbolic_cross_size(dim, n) <= d.hyperbolic_cross_size(dim, n + 1)
            assert d.hyperbolic_cross_size(dim, n) <= d.hyperbolic_cross_size(dim + 1, n)


def test_lower_sets_embed_in_hyperbolic_cross():
    for dim in (1, 2, 3):
        for n in range(1, 9):
            cross = None
            for q in core.enumerate_lower_sets(dim, n):
                for p in q.points:
                    assert math.prod(c + 1 for c in p) <= n
            cross = d.hyperbolic_cross_size(dim, n)
            assert core.count_lower_sets(dim, n) <= 2**cross


def test_regime_table():
    assert d.regime_table(2, 3)[0] == "n < d^d"
    assert d.regime_table(2, 5)[0] == "n >= d^d"
    assert d.regime_table(3, 1000)[0] == "n >= d^d"
    label, square, cross = d.regime_table(2, 5)
    assert square == approx(25 * math.log(2))
    assert cross == approx(5 * (1 + math.log(5)))


# -- serialization ------------------------------------------------------------

def test_report_json_fields():
    xs = d.tensor_grid(2, [3, 3])
    rep = d.universal_constants(2, 3, xs)
    payload = json.loads(d.report_json(rep))
    assert set(payload) == {
        "d", "n", "m", "c1", "c2", "witness_sets", "bounds", "regime"}
    assert set(payload["bounds"]) == {
        "thm6", "thm6_b", "hyperbolic_size", "hyperbolic_bound"}
    assert payload["m"] == 9
    assert all(len(p) == 2 for p in payload["witness_sets"]["c1"])


def test_points_csv_roundtrip():
    xs = d.sample_points(2, 4, seed=21)
    text = d.points_csv(xs)
    rows = [line.split(",") for line in text.strip().split("\n")]
    back = np.array([[float(c) for c in row] for row in rows])
    assert np.array_equal(back, xs.points)


def test_family_rejects_dimension_below_one():
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        d.search_minimal_m(0, 3)
