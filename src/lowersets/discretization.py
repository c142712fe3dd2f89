"""Sampling discretization of trigonometric spaces indexed by lower sets.

For a lower set Q of size n the space T(Q) = span{exp(2*pi*i*<k, x>) :
k in Q} on the torus [0,1)^d is sampled at m points; the quality of the
point set is the spread of the eigenvalues of the n x n Gram matrix
G = (1/m) V* V with V_{jk} = u_k(xi_j).  Every Rayleigh quotient
(1/m)*sum_j |f(xi_j)|^2 / ||f||_2^2 lies in [lambda_min, lambda_max],
so constants valid for all Q of size n are the worst such eigenvalues
over the whole family.  The exponential system is one admissible choice
of uniformly bounded orthonormal basis; its squared sup-norm sum is
exactly n, the best possible.

Every lower set of size n lies in the shifted hyperbolic cross
F = {k : prod(k_i + 1) <= n}, so the family sweep builds V once over F
and the Gram G_F = (1/m) V* V once per point set.  The core walk runs on
indices into the lex-sorted F, and the family reads those index chains
as they are, without re-deriving F from the sets.  The Gram of each
T(Q) is then the principal submatrix of G_F on the rows of Q, and the
submatrices go through ``eigvalsh`` stacked, a bounded chunk at a time.
``gram_matrix`` and ``gram_spectrum`` remain the per-set reference.

Frequencies are taken from Q as-is, without symmetrization.  Eigenvalue
extremes are always computed on the n x n Gram, never on the m x m
frame, since n stays small while m grows.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    Coords,
    LowerSet,
    _cross,
    _walk,
    enumerate_lower_sets,  # noqa: F401  (bench/spans.py wraps it by this name)
)

DEFAULT_C1 = 0.5
DEFAULT_C2 = 1.5
_EIG_CLAMP = 1e-10
# Complex entries (16 bytes each, so 1 MiB) of stacked submatrices per
# eigvalsh call in the family sweep.
_CHUNK_ENTRIES = 1 << 16


class EigenSolverError(RuntimeError):
    """Eigen decomposition of a Gram matrix failed to converge."""


class SearchExhausted(RuntimeError):
    """No sample size up to m_max met the targets.

    Carries the closest attempt: ``best_m`` with its achieved
    ``best_c1`` and ``best_c2``.
    """

    def __init__(self, best_m: int, best_c1: float, best_c2: float):
        super().__init__(
            "no qualifying m found; best attempt m=%d gave c1=%.6g c2=%.6g"
            % (best_m, best_c1, best_c2)
        )
        self.best_m = best_m
        self.best_c1 = best_c1
        self.best_c2 = best_c2


@dataclass(frozen=True, eq=False)
class PointSetTorus:
    """m sample points in [0,1)^dim, rows of a read-only float array."""

    dim: int
    points: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim or arr.shape[0] < 1:
            raise ValueError("points must form a non-empty (m, dim) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("points must be finite")
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ValueError("points must lie in [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GramSpectrum:
    """Eigenvalue extremes of one subspace Gram matrix."""

    lambda_min: float
    lambda_max: float
    subspace: LowerSet


@dataclass(frozen=True)
class DiscretizationReport:
    """Universal constants over all lower sets of size n, with context."""

    d: int
    n: int
    m: int
    c1: float
    c2: float
    witness_min: LowerSet
    witness_max: LowerSet
    bounds: dict[str, float | int] = field(compare=False)
    regime: str = ""


def basis_value(k: Iterable[int], x: Iterable[float]) -> complex:
    """exp(2*pi*i*<k, x>); unimodular for every frequency and point."""
    phase = sum(ki * xi for ki, xi in zip(tuple(k), tuple(x), strict=True))
    return cmath.exp(2j * math.pi * phase)


def condition_e_bound(q: LowerSet) -> int:
    """sup_x sum_k |u_k(x)|^2 over the basis of T(q); exactly |q|."""
    return len(q)


def sample_points(d: int, m: int, seed: int) -> PointSetTorus:
    """m i.i.d. uniform points in [0,1)^d from a seeded generator."""
    if d < 1 or m < 1:
        raise ValueError("requires d >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    return PointSetTorus(d, rng.random((m, d)), seed=seed)


def tensor_grid(d: int, per_axis: Sequence[int]) -> PointSetTorus:
    """The product grid {j/s_i : j < s_i} per axis, in row-major order."""
    if d < 1 or len(per_axis) != d or any(s < 1 for s in per_axis):
        raise ValueError("per_axis must give a positive size for each axis")
    axes = [np.arange(s) / s for s in per_axis]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in mesh], axis=1)
    return PointSetTorus(d, pts)


def gram_matrix(q: LowerSet, xs: PointSetTorus) -> np.ndarray:
    """(1/m) V* V for V_{jk} = u_k(xi_j); Hermitian PSD with unit trace/n."""
    if q.dim != xs.dim:
        raise ValueError("dimension mismatch between frequencies and points")
    if not q.points:
        raise ValueError("empty subspace")
    freqs = np.array(q.points, dtype=float)
    phases = xs.points @ freqs.T
    v = np.exp(2j * np.pi * phases)
    return (v.conj().T @ v) / len(xs)


def gram_spectrum(q: LowerSet, xs: PointSetTorus) -> GramSpectrum:
    """Smallest and largest Gram eigenvalue for the subspace of ``q``.

    Tiny negative rounding noise is clamped to zero; the matrix is
    positive semidefinite by construction.
    """
    g = gram_matrix(q, xs)
    try:
        eigs = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            "eigvalsh failed for n=%d m=%d (fro=%.3g trace=%.3g)"
            % (len(q), len(xs), np.linalg.norm(g), float(np.trace(g).real))
        ) from exc
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo < -_EIG_CLAMP:
        raise EigenSolverError("Gram matrix lost positivity: %g" % lo)
    return GramSpectrum(max(lo, 0.0), hi, q)


def _regime(d: int, n: int) -> str:
    return "n < d^d" if n < d**d else "n >= d^d"


def regime_table(d: int, n: int) -> tuple[str, float, float]:
    """Regime label plus the point-count shapes n^2*ln d and
    n*(1+ln n)^(d-1); the comparison n vs d^d is exact integer work."""
    if d < 2 or n < 1:
        raise ValueError("requires d >= 2 and n >= 1")
    return _regime(d, n), n * n * math.log(d), hyperbolic_cross_bound(d, n)


def _family(d: int, n: int, budget: int) -> tuple[list[Coords], np.ndarray]:
    """The cells F of all lower sets of size n, lex-sorted, and one row
    of indices into F per set, in walk order.

    F is the shifted hyperbolic cross {k : prod(k_i + 1) <= n}, the cell
    list the walk runs on; every cell of F lies in some lower set of size
    n (its box plus a chain along the first axis).  The walk's chains of
    cell indices are the rows as they are, so nothing re-derives F from
    the sets.  Each row is increasing because the walk appends cells in
    lex order.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    try:
        cells = _cross(d, n, budget)
        # each chain is read in full before the walk resumes and mutates it
        flat = np.fromiter(chain.from_iterable(_walk(cells, n, budget)), dtype=np.intp)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            "budget exceeded while enumerating subspaces; try smaller n or d"
        ) from exc
    return cells, flat.reshape(-1, n)


def _extremes(
    cells: list[Coords], index: np.ndarray, xs: PointSetTorus
) -> tuple[np.ndarray, np.ndarray]:
    """Clamped lambda_min and lambda_max of every set's Gram, taken as
    principal submatrices of one Gram over all cells, in stacked chunks."""
    v = np.exp(2j * np.pi * (xs.points @ np.array(cells, dtype=float).T))
    g = (v.conj().T @ v) / len(xs)
    sets, n = index.shape
    lo = np.empty(sets)
    hi = np.empty(sets)
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for a in range(0, sets, step):
        rows = index[a:a + step]
        try:
            eigs = np.linalg.eigvalsh(g[rows[:, :, None], rows[:, None, :]])
        except np.linalg.LinAlgError as exc:
            raise EigenSolverError(
                "eigvalsh failed for n=%d m=%d on sets %d..%d"
                % (n, len(xs), a, a + len(rows) - 1)
            ) from exc
        lo[a:a + len(rows)] = eigs[:, 0]
        hi[a:a + len(rows)] = eigs[:, -1]
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise EigenSolverError("non-finite Gram eigenvalue for n=%d m=%d" % (n, len(xs)))
    if lo.min() < -_EIG_CLAMP:
        raise EigenSolverError("Gram matrix lost positivity: %g" % lo.min())
    return np.maximum(lo, 0.0), hi


def _report(
    d: int, n: int, xs: PointSetTorus, cells: list[Coords], index: np.ndarray
) -> DiscretizationReport:
    lo, hi = _extremes(cells, index, xs)
    wmin, wmax = int(np.argmin(lo)), int(np.argmax(hi))

    def witness(row: int) -> LowerSet:
        return LowerSet._trusted(d, tuple(cells[i] for i in index[row]))

    bounds = {
        "thm6": n * n * math.log(d),
        "thm6_b": n ** (2.0 - 1.0 / d) * math.exp(math.log(d) ** 2),
        "hyperbolic_size": hyperbolic_cross_size(d, n),
        "hyperbolic_bound": hyperbolic_cross_bound(d, n),
    }
    return DiscretizationReport(
        d=d,
        n=n,
        m=len(xs),
        c1=float(lo[wmin]),
        c2=float(hi[wmax]),
        witness_min=witness(wmin),
        witness_max=witness(wmax),
        bounds=bounds,
        regime=_regime(d, n),
    )


def universal_constants(
    d: int, n: int, xs: PointSetTorus, budget: int = DEFAULT_NODE_BUDGET
) -> DiscretizationReport:
    """Worst-case Gram eigenvalue extremes over every lower set of size n.

    c1 is the smallest lambda_min and c2 the largest lambda_max across
    the family, each with the first lower set in walk order achieving
    it.  One Gram over the union of the family's frequencies is built
    from ``xs``; each set's n x n Gram is its principal submatrix, and
    the stacked submatrices go through one batched eigensolve per chunk.
    The report also carries the reference point counts n^2*ln d and
    n^(2-1/d)*d^(ln d), the hyperbolic cross size and its bound, and the
    regime label.  A non-finite eigenvalue, or one below -1e-10, raises
    EigenSolverError.
    """
    if xs.dim != d:
        raise ValueError("dimension mismatch between d and the point set")
    cells, index = _family(d, n, budget)
    return _report(d, n, xs, cells, index)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the minimal-m search: the size, its witness set and
    the full report of that witness."""

    m: int
    witness: PointSetTorus
    report: DiscretizationReport


def search_minimal_m(
    d: int,
    n: int,
    c1_target: float = DEFAULT_C1,
    c2_target: float = DEFAULT_C2,
    trials_per_m: int = 10,
    seed: int = 0,
    m_max: int | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Smallest sample size found whose random draw meets the targets.

    A size m qualifies when any of ``trials_per_m`` seeded draws gives
    universal constants c1 >= c1_target and c2 <= c2_target.  Doubling
    from m = 1 locates a qualifying size, bisection then returns the
    smallest qualifying size on that path.  Trial t always uses seed
    (root seed + t), so outcomes do not depend on scheduling.  When no
    m <= m_max qualifies, SearchExhausted reports the best attempt.  The
    family is enumerated once, under ``budget``, and swept for every draw.
    """
    if not 0.0 < c1_target <= 1.0 <= c2_target:
        raise ValueError("targets must satisfy 0 < c1 <= 1 <= c2")
    if trials_per_m < 1:
        raise ValueError("trials_per_m must be positive")
    if m_max is not None and m_max < 1:
        raise ValueError("m_max must be positive")
    cells, index = _family(d, n, budget)
    if m_max is None:
        p = len(index)
        m_max = math.ceil(32.0 * n * math.log(n * p)) if n * p > 1 else 4 * n

    best = (0, -math.inf, math.inf)

    def qualify(m: int) -> SearchResult | None:
        nonlocal best
        for trial in range(trials_per_m):
            xs = sample_points(d, m, seed + trial)
            report = _report(d, n, xs, cells, index)
            if report.c1 >= c1_target and report.c2 <= c2_target:
                return SearchResult(m, xs, report)
            score = min(report.c1 - c1_target, c2_target - report.c2)
            if score > min(best[1] - c1_target, c2_target - best[2]):
                best = (m, report.c1, report.c2)
        return None

    lo, m = 0, 1
    found = None
    while m < m_max:
        found = qualify(m)
        if found:
            break
        lo, m = m, min(2 * m, m_max)
    if found is None:
        found = qualify(m)
        if found is None:
            raise SearchExhausted(best[0], best[1], best[2])
    hi_result = found
    hi = hi_result.m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = qualify(mid)
        if res is not None:
            hi, hi_result = mid, res
        else:
            lo = mid
    return hi_result


@lru_cache(maxsize=None)
def hyperbolic_cross_size(d: int, n: int) -> int:
    """|{k in N^d : prod k_i <= n}| via the divisor-sum recursion."""
    if d < 1 or n < 0:
        raise ValueError("requires d >= 1 and n >= 0")
    if n == 0:
        return 0
    if d == 1:
        return n
    return sum(hyperbolic_cross_size(d - 1, n // k) for k in range(1, n + 1))


def hyperbolic_cross_bound(d: int, n: int) -> float:
    """The closed bound n*(1+ln n)^(d-1) on the cross size."""
    if d < 1 or n < 1:
        raise ValueError("requires d >= 1 and n >= 1")
    return n * (1.0 + math.log(n)) ** (d - 1)


def _serialized(q: LowerSet) -> list[list[int]]:
    return [list(p) for p in q.points]


def report_json(report: DiscretizationReport, extra: dict | None = None) -> str:
    """Deterministic JSON for a report; key order and floats are fixed."""
    payload: dict = {
        "d": report.d,
        "n": report.n,
        "m": report.m,
        "c1": report.c1,
        "c2": report.c2,
        "witness_sets": {
            "c1": _serialized(report.witness_min),
            "c2": _serialized(report.witness_max),
        },
        "bounds": report.bounds,
        "regime": report.regime,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2)


def points_csv(xs: PointSetTorus) -> str:
    """One point per row, full double precision, no header."""
    rows = [",".join(repr(float(c)) for c in row) for row in xs.points]
    return "\n".join(rows) + "\n"
