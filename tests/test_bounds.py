"""Bound formulas, constants and report assembly.

Counts feeding the comparisons come from the counting oracles; the
binomial identities are cross-checked against an additive Pascal
triangle.  All log-scale values are plain doubles, compared with
tolerances well above their rounding error.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from pytest import approx

from bruteforce import pascal_binomial
from lowersets import bounds as b
from lowersets import core


# -- constants ----------------------------------------------------------------

def test_alpha2_value():
    assert b.ALPHA2 == approx(2.565099, abs=5e-6)
    assert b.ALPHA2 == approx(2.0 * math.sqrt(b.zeta(2)), abs=1e-12)


def test_beta2_value():
    assert b.BETA2 == approx(13.0019, abs=5e-4)


def test_zeta_against_closed_forms():
    assert b.zeta(2) == approx(math.pi**2 / 6, abs=1e-12)
    assert b.zeta(4) == approx(math.pi**4 / 90, abs=1e-12)
    assert b.zeta(3) == approx(1.2020569031595943, abs=1e-12)
    with pytest.raises(ValueError):
        b.zeta(1)


def test_rho_values():
    assert b.rho_d(2) == approx(b.ALPHA2, abs=1e-9)
    assert b.rho_d(3) == approx(2.00945, abs=5e-5)
    assert b.rho_d(4) == approx(1.78982, abs=5e-5)


def test_rho_strictly_decreasing():
    vals = [b.rho_d(d) for d in range(2, 21)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert b.rho_d(20) < b.rho_d(8) < b.rho_d(4)


def test_lambda_examples():
    assert b.lambda_d(2) == approx(math.sqrt(2), abs=1e-12)
    # lambda_d increases toward e, so lambda_d*ln2 stays below e*ln2
    vals = [b.lambda_d(d) * b.LN2 for d in range(2, 60)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert all(v < math.e * b.LN2 for v in vals)
    assert math.e * b.LN2 == approx(1.8841, abs=1e-4)


def test_lambda_rate_beats_conjectured_rate_from_8():
    for d in range(8, 51):
        assert b.lambda_d(d) * b.LN2 > b.rho_d(d)
    # sharp: the proven rate still loses at d = 7
    assert b.lambda_d(7) * b.LN2 < b.rho_d(7)


def test_ln_bigcount_precision():
    assert b.ln_bigcount(2**200) == approx(200 * b.LN2, abs=1e-12)
    assert b.ln_bigcount(1) == 0.0
    with pytest.raises(ValueError):
        b.ln_bigcount(0)


# -- simple bounds ------------------------------------------------------------

def test_power_bounds_example():
    lo, hi = b.power_bounds(2, 5)
    assert lo == approx(math.log(16 / 24), abs=1e-12)
    assert hi == approx(math.log(16), abs=1e-12)
    assert lo < math.log(7) <= hi


def test_power_bounds_sandwich_sweep():
    for d in range(2, 6):
        for n in range(3, 10):
            p = core.count_lower_sets(d, n)
            assert d ** (n - 1) < p * math.factorial(n - 1)
            assert p <= d ** (n - 1)


def test_power_bounds_equality_edges():
    # exact integer comparisons: both estimates collapse at n = 1, 2
    for d in range(2, 9):
        assert d ** 0 == 1 * math.factorial(0)
        assert d ** 1 == d * math.factorial(1)


def test_uniform_upper_examples():
    assert b.uniform_upper(2, 3) == approx(math.log(8), abs=1e-12)
    assert b.uniform_upper(10, 2) == approx(math.log(10), abs=1e-12)


def test_uniform_upper_dominates_counts():
    for d in range(2, 5):
        for n in range(1, 10):
            p = core.count_lower_sets(d, n)
            assert p <= 2 ** (d * n)
            assert p <= d ** (n - 1) * math.factorial(n - 1)


def test_hardy_ramanujan_examples():
    assert b.hardy_ramanujan_upper(1) == approx(2.565099660323728, abs=1e-12)
    assert b.hardy_ramanujan_upper(4) == approx(2 * b.ALPHA2, abs=1e-12)


def test_hardy_ramanujan_dominates_partition_counts():
    table = core.partition_oracle_2d(40)
    for n in range(1, 41):
        assert b.ln_bigcount(table[n]) <= b.hardy_ramanujan_upper(n) + 1e-9


# -- normalized ratio ---------------------------------------------------------

def test_ratio_bounds_example():
    c_lo, c_hi = b.ratio_bounds(2, 4)
    assert c_lo == approx((1 / 9) * math.sqrt(2) * b.LN2, abs=1e-12)
    assert c_hi == approx(b.ALPHA2 * 2 ** math.log(2), abs=1e-12)


def test_ratio_bounds_hold_on_grid():
    for d in range(2, 6):
        for n in range(2, 10):
            p = core.count_lower_sets(d, n)
            ratio = b.ln_bigcount(p) / n ** (1 - 1 / d)
            c_lo, c_hi = b.ratio_bounds(d, n)
            assert c_lo - 1e-9 <= ratio <= c_hi + 1e-9


def test_rate_upper_matches_ratio_ceiling():
    for d in range(2, 30):
        assert b.rate_upper(d) == approx(b.ratio_bounds(d, 2)[1], abs=0)
        assert b.rate_upper(d) == approx(b.ALPHA2 * d ** math.log(d), rel=1e-12)


def test_rate_upper_caps_log_counts():
    for d in range(2, 5):
        for n in range(1, 10):
            p = core.count_lower_sets(d, n)
            assert b.ln_bigcount(p) <= b.rate_upper(d) * n ** (1 - 1 / d) + 1e-9


# -- staircase family ---------------------------------------------------------

def test_staircase_numbers_example():
    sn = b.staircase_numbers(2, 3)
    assert (sn.a, sn.b) == (4, 10)


def test_staircase_numbers_against_pascal():
    for d in range(1, 8):
        for m in range(0, 30):
            sn = b.staircase_numbers(d, m)
            assert sn.a == pascal_binomial(m + d - 1, d - 1)
            assert sn.b == pascal_binomial(m + d, d)
            assert sn.b * d == sn.a * (m + d)


def test_staircase_level_examples():
    assert b.staircase_level(2, 8) == 2
    assert b.staircase_level(2, 2) == 0
    assert b.staircase_level(3, 2) == 0


def test_staircase_level_brackets():
    for d in range(1, 6):
        for n in range(2, 50):
            m = b.staircase_level(d, n)
            assert b.staircase_numbers(d, m).b < n <= b.staircase_numbers(d, m + 1).b


def test_staircase_lower_bound_examples():
    assert b.staircase_lower_bound(2, 8) == approx(3 * b.LN2, abs=1e-12)
    assert b.staircase_lower_bound(3, 5) == approx(math.log(1.5) + 3 * b.LN2, abs=1e-12)
    assert b.staircase_lower_bound(2, 2) == approx(b.LN2, abs=1e-12)


def test_staircase_lower_bound_holds():
    for d in range(2, 5):
        for n in range(2, 10):
            p = core.count_lower_sets(d, n)
            a = b.staircase_numbers(d, b.staircase_level(d, n)).a
            assert d * 2**a <= 2 * p


def test_build_staircase_family_example():
    fam = b.build_staircase_family(2, 8, [(2, 0), (1, 1), (0, 2)], axis=0)
    assert fam.points == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 0), (4, 0))


def test_build_staircase_family_counts_distinct_members():
    # all selectors containing the axis vertex give distinct size-n sets
    import itertools

    m = b.staircase_level(2, 8)
    top = [(m, 0), (m - 1, 1), (m - 2, 2)]
    members = set()
    for r in range(len(top)):
        for extra in itertools.combinations(top[1:], r):
            fam = b.build_staircase_family(2, 8, [top[0], *extra], axis=0)
            assert len(fam) == 8
            members.add(fam.points)
    a = b.staircase_numbers(2, m).a
    assert len(members) == 2 ** (a - 1)


def test_build_staircase_family_rejects_bad_selectors():
    with pytest.raises(ValueError):
        b.build_staircase_family(2, 8, [(1, 1)], axis=0)  # vertex missing
    with pytest.raises(ValueError):
        b.build_staircase_family(2, 8, [(2, 0), (3, 1)], axis=0)  # off layer
    with pytest.raises(ValueError):
        b.build_staircase_family(2, 8, [(2, 0)], axis=5)


# -- recursion certificate ----------------------------------------------------

def test_induction_ratio_certificate():
    assert b.induction_ratio(3) < 2.057
    assert 3 ** math.log(3) / 2 ** math.log(2) > 2.06
    assert b.induction_ratio(3) < 3 ** math.log(3) / 2 ** math.log(2)


def test_recursion_step_closes_for_all_small_d():
    for d in range(3, 51):
        assert b.sigma_margins_hold(d)
        assert b.rate_upper(d - 1) * b.induction_ratio(d) < b.rate_upper(d)


def test_product_rate_bound():
    assert b.product_rate_bound(2) == approx(b.ALPHA2, abs=1e-12)
    assert b.product_rate_bound(3) == approx(b.ALPHA2 * math.sqrt(3), abs=1e-12)
    for d in range(2, 31):
        assert b.product_rate_bound(d) <= b.rate_upper(d) + 1e-12


# -- reports ------------------------------------------------------------------

def test_verify_bounds_all_pass_row():
    r = b.verify_bounds(2, 10, 42)
    assert r.ln_p == approx(math.log(42), abs=1e-12)
    assert r.flags == (
        "thm1:pass", "cohen:pass", "hr:pass", "thm2:pass", "eq_a:pass")


def test_verify_bounds_boundary_rows():
    assert "thm1:boundary" in b.verify_bounds(5, 2, 5).flags
    r1 = b.verify_bounds(2, 1, 1)
    assert "thm1:boundary" in r1.flags
    assert "thm2:skipped" in r1.flags
    assert "eq_a:skipped" in r1.flags


def test_verify_bounds_skips_hr_outside_d2():
    assert "hr:skipped" in b.verify_bounds(3, 4, 13).flags


def test_verify_bounds_flags_wrong_count():
    r = b.verify_bounds(2, 5, 100)  # impossible count, above d^(n-1)
    assert "thm1:fail" in r.flags


def test_verify_bounds_takes_one_log_and_one_level_per_row(monkeypatch):
    calls = {"ln": 0, "level": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(b, "_ln_mp", counted("ln", b._ln_mp))
    monkeypatch.setattr(b, "staircase_level", counted("level", b.staircase_level))
    rows = [(d, n) for d in (2, 3, 4) for n in range(1, 9)]
    for d, n in rows:
        b.verify_bounds(d, n, core.count_lower_sets(d, n))
    assert calls["ln"] == len(rows)
    assert calls["level"] == sum(n >= 2 for _, n in rows)  # n = 1 has no level


# Count tables per dimension, small enough that the d >= 4 walks stay fast.
_REPORT_TABLES = {2: 60, 3: 40, 4: 12, 5: 10, 6: 9}


@pytest.mark.parametrize("d, n_max", sorted(_REPORT_TABLES.items()))
def test_verify_bounds_fields_equal_public_helpers(d, n_max):
    table = core.count_table(d, n_max)
    for n in range(1, n_max + 1):
        p = table[n]
        for exact in (p, 1, p + 1, 10**40):  # the count, then wrong counts
            r = b.verify_bounds(d, n, exact)
            assert (r.d, r.n) == (d, n)
            assert r.ln_p == b.ln_bigcount(exact)
            assert (r.power_lo, r.power_hi) == b.power_bounds(d, n)
            assert r.uniform == b.uniform_upper(d, n)
            ln_mp = b._ln_mp(exact)
            if d == 2:
                assert r.hr == b.hardy_ramanujan_upper(n)
                hr_ok = ln_mp <= r.hr + b._RATIO_TOL
                assert ("hr:pass" if hr_ok else "hr:fail") in r.flags
            else:
                assert r.hr is None and "hr:skipped" in r.flags
            if n == 1:
                assert (r.c_prime, r.c_upper, r.staircase_lo) == (None, None, None)
                assert "thm2:skipped" in r.flags and "eq_a:skipped" in r.flags
                continue
            assert (r.c_prime, r.c_upper) == b.ratio_bounds(d, n)
            ratio = ln_mp / n ** (1.0 - 1.0 / d)
            ratio_ok = r.c_prime - b._RATIO_TOL <= ratio <= r.c_upper + b._RATIO_TOL
            assert ("thm2:pass" if ratio_ok else "thm2:fail") in r.flags
            assert r.staircase_lo == b.staircase_lower_bound(d, n)
            a = b.staircase_numbers(d, b.staircase_level(d, n)).a
            eq_ok = d * 2**a <= 2 * exact
            assert ("eq_a:pass" if eq_ok else "eq_a:fail") in r.flags


def test_report_fields_are_the_row_in_header_order():
    names = [f.name for f in dataclasses.fields(b.BoundsReport)]
    assert len(names) == len(b.BOUNDS_CSV_HEADER.split(",")) == 11
    for d, n in ((2, 1), (2, 5), (3, 7)):
        r = b.verify_bounds(d, n, core.count_lower_sets(d, n))
        row = b.bounds_row(r)
        assert row[:-1] == [getattr(r, name) for name in names[:-1]]
        assert (names[-1], row[-1]) == ("flags", ";".join(r.flags))
