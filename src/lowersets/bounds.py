"""Growth bounds for lower-set counts, all in natural-log scale.

Let p_d(n) denote the number of lower sets of size n in Z_+^d.  This
module evaluates the explicit bounds on p_d(n): the elementary sandwich
d^(n-1)/(n-1)! < p_d(n) <= d^(n-1), the uniform upper bounds 2^(dn) and
d^(n-1)*(n-1)!, the square-root regime bound exp(alpha_2*sqrt(n)) for
d = 2, the normalized-ratio constants bounding ln p_d(n) / n^(1-1/d)
from both sides, a staircase-based lower bound (d/2)*2^(a_m), and the
super-exponential upper bound with base gamma_d where
ln gamma_d = alpha_2 * d^(ln d).

Everything is computed and compared in log scale: gamma_d itself
overflows doubles already near d = 12, while its logarithm stays small.
Where a bound and an exact count are both integers the pass/fail
comparison is done in exact integer arithmetic; logs are only reported.
Each row of ``verify_bounds`` takes one high-precision log of its exact
count and finds one staircase level.  ``bounds_row`` says what a row
of the ``bounds`` table holds, one value per ``BoundsReport`` field in
``BOUNDS_CSV_HEADER`` order; ``cli`` writes every table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import mpmath

from .core import Coords, LowerSet

ALPHA2 = math.pi * math.sqrt(2.0 / 3.0)
BETA2 = math.exp(ALPHA2)
LN2 = math.log(2.0)

# Slack exponents for the dimension-recursion certificate.
SIGMA1 = 1.25
SIGMA2 = 2.6

_RATIO_TOL = 1e-9

BOUNDS_CSV_HEADER = "d,n,ln_p,thm1_lo,thm1_hi,cohen,hr,c_prime_ratio,c_upper,eq_a,flags"


def ln_factorial(n: int) -> float:
    if n < 0:
        raise ValueError("factorial of a negative number")
    return math.lgamma(n + 1)


def _ln_mp(value: int, frac_bits: int = 60) -> mpmath.mpf:
    """High-precision natural log of an exact positive count.

    Working precision covers the full integer plus ``frac_bits`` bits
    after the binary point, so comparisons against double-precision
    bounds are never limited by this conversion.
    """
    if value <= 0:
        raise ValueError("logarithm of a non-positive count")
    with mpmath.workprec(max(80, value.bit_length() + frac_bits)):
        return mpmath.log(mpmath.mpf(value))


def ln_bigcount(value: int) -> float:
    return float(_ln_mp(value))


def power_bounds(d: int, n: int) -> tuple[float, float]:
    """Log-scale sandwich d^(n-1)/(n-1)! .. d^(n-1) around p_d(n).

    The lower estimate is strict for n >= 3 and degenerates to equality
    at n = 1 and n = 2.
    """
    if d < 2 or n < 1:
        raise ValueError("requires d >= 2 and n >= 1")
    hi = (n - 1) * math.log(d)
    return hi - ln_factorial(n - 1), hi


def uniform_upper(d: int, n: int) -> float:
    """Better of the uniform upper bounds 2^(dn) and d^(n-1)*(n-1)!."""
    if d < 2 or n < 1:
        raise ValueError("requires d >= 2 and n >= 1")
    return min(d * n * LN2, (n - 1) * math.log(d) + ln_factorial(n - 1))


def hardy_ramanujan_upper(n: int) -> float:
    """Square-root regime upper bound alpha_2 * sqrt(n) on ln p_2(n)."""
    if n < 1:
        raise ValueError("requires n >= 1")
    return ALPHA2 * math.sqrt(n)


def lambda_d(d: int) -> float:
    """d / (d!)^(1/d); increases to e, so lambda_d*ln2 tends to e*ln2."""
    if d < 1:
        raise ValueError("requires d >= 1")
    return d / math.exp(ln_factorial(d) / d)


def ratio_bounds(d: int, n: int) -> tuple[float, float]:
    """Constants (c_lo, c_hi) with c_lo <= ln p_d(n)/n^(1-1/d) <= c_hi.

    c_lo = (1 - min(d/(d+1), e*n^(-1/d)))^2 * lambda_d * ln 2 and
    c_hi = alpha_2 * d^(ln d); valid for n >= 2.
    """
    if d < 2 or n < 2:
        raise ValueError("requires d >= 2 and n >= 2")
    shrink = min(d / (d + 1.0), math.e * n ** (-1.0 / d))
    c_lo = (1.0 - shrink) ** 2 * lambda_d(d) * LN2
    return c_lo, rate_upper(d)


def zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2."""
    if s < 2:
        raise ValueError("requires s >= 2")
    return float(mpmath.zeta(s))


def rho_d(d: int) -> float:
    """Conjectured limit of ln p_d(n) / n^(1-1/d) as n grows.

    rho_d = (d/(d-1)) * ((d-1)*zeta(d))^(1/d); rho_2 recovers alpha_2.
    """
    if d < 2:
        raise ValueError("requires d >= 2")
    return d / (d - 1.0) * ((d - 1.0) * zeta(d)) ** (1.0 / d)


@dataclass(frozen=True)
class StaircaseNumbers:
    """Level m staircase data: a = |{sum k_i = m}|, b = |{sum k_i <= m}|."""

    m: int
    a: int
    b: int


def staircase_numbers(d: int, m: int) -> StaircaseNumbers:
    """Exact layer and volume counts of the simplex staircase at level m."""
    if d < 1 or m < 0:
        raise ValueError("requires d >= 1 and m >= 0")
    a = math.comb(m + d - 1, d - 1)
    b = math.comb(m + d, d)
    if b * d != a * (m + d):
        raise AssertionError("staircase identity broken")
    return StaircaseNumbers(m, a, b)


def staircase_level(d: int, n: int) -> int:
    """Unique m with b_m < n <= b_{m+1}; defined for n >= 2."""
    if d < 1 or n < 2:
        raise ValueError("requires d >= 1 and n >= 2")
    m = 0
    while math.comb(m + 1 + d, d) < n:  # b_{m+1}
        m += 1
    return m


def _staircase(d: int, n: int) -> tuple[int, float]:
    """a_m and ln((d/2) * 2^(a_m)) at m = staircase_level(d, n)."""
    a = math.comb(staircase_level(d, n) + d - 1, d - 1)
    return a, math.log(d / 2.0) + a * LN2


def staircase_lower_bound(d: int, n: int) -> float:
    """ln((d/2) * 2^(a_m)) <= ln p_d(n) with m = staircase_level(d, n)."""
    if d < 2 or n < 2:
        raise ValueError("requires d >= 2 and n >= 2")
    return _staircase(d, n)[1]


def _simplex_points(d: int, m: int) -> list[Coords]:
    out: list[Coords] = []

    def rec(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == d - 1:
            for c in range(left + 1):
                out.append(prefix + (c,))
            return
        for c in range(left + 1):
            rec(prefix + (c,), left - c)

    rec((), m)
    return out


def build_staircase_family(
    d: int, n: int, keep_corners: Iterable[Coords], axis: int = 0
) -> LowerSet:
    """One member of the staircase family of lower sets of size n.

    Takes the full simplex {sum k_i <= m} at m = staircase_level(d, n),
    drops the top-layer corners not listed in ``keep_corners``, and pads
    with a chain along ``axis`` above the vertex m*e_axis up to size n.
    The kept corners must lie on the top layer and must include that
    vertex (otherwise the chain would float).  Distinct keep sets give
    distinct lower sets, 2^(a_m - 1) of them per axis.
    """
    if d < 2 or n < 2:
        raise ValueError("requires d >= 2 and n >= 2")
    if not 0 <= axis < d:
        raise ValueError("axis out of range")
    m = staircase_level(d, n)
    keep = {tuple(p) for p in keep_corners}
    top = {p for p in _simplex_points(d, m) if sum(p) == m}
    vertex = tuple(m if i == axis else 0 for i in range(d))
    if not keep <= top:
        raise ValueError("kept corners must lie on the top layer")
    if vertex not in keep:
        raise ValueError("kept corners must include the axis vertex")
    points = [p for p in _simplex_points(d, m) if sum(p) < m or p in keep]
    tail = n - len(points)
    for j in range(1, tail + 1):
        points.append(tuple(m + j if i == axis else 0 for i in range(d)))
    q = LowerSet(d, tuple(sorted(points)))
    if len(q) != n:
        raise AssertionError("family member has wrong size")
    return q


def rate_upper(d: int) -> float:
    """alpha_2 * d^(ln d): the log of the super-exponential bound base.

    Only ever handled in log scale; exponentiating it overflows doubles
    long before d gets interesting.
    """
    if d < 2:
        raise ValueError("requires d >= 2")
    return ALPHA2 * math.exp(math.log(d) ** 2)


def induction_ratio(d: int) -> float:
    """The exponent ratio r(d) consumed by the dimension recursion.

    r(d) = (sigma_2*d)^(1-d/2) / (d-1)^(ln(d-1))
         + 1 / (sigma_1 * (sigma_2*d)^(d-2)) + d^(1/(d-1)).
    """
    if d < 3:
        raise ValueError("requires d >= 3")
    sd = SIGMA2 * d
    first = sd ** (1.0 - d / 2.0) / (d - 1.0) ** math.log(d - 1.0)
    second = 1.0 / (SIGMA1 * sd ** (d - 2.0))
    return first + second + d ** (1.0 / (d - 1.0))


def sigma_margins_hold(d: int) -> bool:
    """Check d^(sigma_1*d) <= gamma_{d-1} and d^(sigma_2*d) <= gamma_d.

    Both sides compared in log scale, as everywhere else.
    """
    if d < 3:
        raise ValueError("requires d >= 3")
    lnd = math.log(d)
    return SIGMA1 * d * lnd <= rate_upper(d - 1) and SIGMA2 * d * lnd <= rate_upper(d)


def product_rate_bound(d: int) -> float:
    """alpha_2 * prod_{k=3..d} k^(1/(k-1)), a growth-rate upper bound."""
    if d < 2:
        raise ValueError("requires d >= 2")
    log_prod = sum(math.log(k) / (k - 1.0) for k in range(3, d + 1))
    return ALPHA2 * math.exp(log_prod)


@dataclass(frozen=True)
class BoundsReport:
    """Evaluated bounds for one (d, n) cell plus pass/fail flags, one
    field per ``BOUNDS_CSV_HEADER`` column, in its order.

    Flag tokens use the fixed wire names thm1, cohen, hr, thm2, eq_a
    with states pass, fail, boundary (equality at n <= 2) and skipped
    (bound not applicable to the cell).
    """

    d: int
    n: int
    ln_p: float
    power_lo: float
    power_hi: float
    uniform: float
    hr: float | None
    c_prime: float | None
    c_upper: float | None
    staircase_lo: float | None
    flags: tuple[str, ...]


def verify_bounds(d: int, n: int, exact: int) -> BoundsReport:
    """Evaluate every applicable bound against the exact count p_d(n).

    Integer-valued bounds are compared in exact arithmetic, so boundary
    equalities are detected reliably; log-valued bounds use a 1e-9
    comparison tolerance.  Equality in the strict lower estimate is
    classified as a boundary only where it is structural (n <= 2).
    """
    if d < 2 or n < 1:
        raise ValueError("requires d >= 2 and n >= 1")
    if exact < 1:
        raise ValueError("exact count must be positive")
    ln_mp = _ln_mp(exact)
    lo, hi = power_bounds(d, n)
    flags: list[str] = []

    fact = math.factorial(n - 1)
    power_target = d ** (n - 1)
    if exact > power_target:
        flags.append("thm1:fail")
    elif power_target < exact * fact:
        flags.append("thm1:pass")
    elif power_target == exact * fact:
        flags.append("thm1:boundary" if n <= 2 else "thm1:fail")
    else:
        flags.append("thm1:fail")

    cohen_ok = exact <= 2 ** (d * n) and exact <= power_target * fact
    flags.append("cohen:pass" if cohen_ok else "cohen:fail")

    hr = None
    if d == 2:
        hr = hardy_ramanujan_upper(n)
        hr_ok = ln_mp <= hr + _RATIO_TOL
        flags.append("hr:pass" if hr_ok else "hr:fail")
    else:
        flags.append("hr:skipped")

    c_lo = c_hi = None
    if n >= 2:
        c_lo, c_hi = ratio_bounds(d, n)
        ratio = ln_mp / n ** (1.0 - 1.0 / d)
        ratio_ok = c_lo - _RATIO_TOL <= ratio <= c_hi + _RATIO_TOL
        flags.append("thm2:pass" if ratio_ok else "thm2:fail")
    else:
        flags.append("thm2:skipped")

    stair = None
    if n >= 2:
        a, stair = _staircase(d, n)
        flags.append("eq_a:pass" if d * 2**a <= 2 * exact else "eq_a:fail")
    else:
        flags.append("eq_a:skipped")

    return BoundsReport(
        d=d,
        n=n,
        ln_p=float(ln_mp),
        power_lo=lo,
        power_hi=hi,
        uniform=uniform_upper(d, n),
        hr=hr,
        c_prime=c_lo,
        c_upper=c_hi,
        staircase_lo=stair,
        flags=tuple(flags),
    )


def bounds_row(r: BoundsReport) -> list:
    """The values of one row, in ``BOUNDS_CSV_HEADER`` order."""
    return [r.d, r.n, r.ln_p, r.power_lo, r.power_hi, r.uniform, r.hr,
            r.c_prime, r.c_upper, r.staircase_lo, ";".join(r.flags)]
