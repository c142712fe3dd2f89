"""Lattice lower sets: types, canonical enumeration, exact counting.

A lower set (downward closed set) in Z_+^d is a finite collection of
non-negative integer points that contains, with every point, all of its
coordinatewise predecessors.  Lower sets of cardinality n are in
bijection with d-dimensional integer partitions of n, which gives fast
independent counting routes for d = 2 (ordinary partitions) and d = 3
(plane partitions, by MacMahon's sigma_2 recurrence).

Enumeration uses a canonical depth-first growth: a lower set is built by
appending addable points in strictly lexicographically increasing order.
The lex-sorted listing of any lower set is itself such a growth sequence
(every prefix is downward closed because predecessors are lex-smaller),
and it is the only one, so each lower set is produced exactly once.
One iterative walk with explicit stacks, :func:`_walk`, feeds
enumeration, the DFS count and the discretization family, so depth is
limited by n alone, not by the interpreter's recursion limit.  It builds
and runs on indices into the lex-sorted shifted hyperbolic cross
F_n = {k : prod(k_i + 1) <= n}, which holds every lower set of size at
most n, so index order is lex order.  The recursion that builds F_n
also tables each cell's in-cross successors and its number of
predecessors, so the rule prod(k_i + 1) <= n is stated once; the walk
counts down, per cell, its predecessors not yet in the chain, and a
cell becomes addable when that count reaches 0.  Its output is
lex-sorted and downward closed by construction, so enumeration wraps it
in LowerSet without re-validating; the public constructor still
validates all outside input.  The walk also tallies the sets it visits
per depth; since the growth passes through every lower set of size at
most n, one walk to n yields the whole count table p_d(0..n), and
:func:`count_table` is the one place that picks an oracle or that walk.
Besides the tables of F_n, which holds O(n (1 + ln n)^(d-1)) cells, the
walk keeps O(n) frontiers.  Every cell of F_n is the corner of a box the
walk visits, so F_n is built under the node budget too, and a budget
below |F_n| fails before the tables are complete.  Subtrees are
independent, which would allow parallel exploration.  All functions
here are pure and single threaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

Coords = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10**8
# Default discretization targets (c1, c2) and the discretization errors
# live here, without numpy, so the CLI can name them before it needs it.
DEFAULT_C1 = 0.5
DEFAULT_C2 = 1.5


class BudgetExceededError(RuntimeError):
    """Raised when a depth-first walk visits more nodes than allowed."""


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


def _as_point(p: Iterable[int], dim: int) -> Coords:
    q = tuple(p)
    if len(q) != dim:
        raise ValueError("inconsistent dimension")
    if any(c < 0 for c in q):
        raise ValueError("negative coordinate")
    return q


def _preds_present(p: Coords, members: set[Coords]) -> bool:
    for i, c in enumerate(p):
        if c and p[:i] + (c - 1,) + p[i + 1:] not in members:
            return False
    return True


def is_lower_set(dim: int, points: Iterable[Iterable[int]]) -> bool:
    """True iff ``points`` is downward closed in Z_+^dim.

    Raises ValueError("inconsistent dimension") if the points do not all
    have length ``dim``, and on negative coordinates.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    members = {_as_point(p, dim) for p in points}
    return all(_preds_present(p, members) for p in members)


@dataclass(frozen=True)
class LowerSet:
    """A finite lower set: dimension plus lex-sorted point tuple.

    ``points`` must already be strictly lex-increasing and downward
    closed; use :meth:`from_points` to normalize arbitrary input.
    """

    dim: int
    points: tuple[Coords, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        members = set()
        for p in self.points:
            _as_point(p, self.dim)
            members.add(p)
        if list(self.points) != sorted(members) or len(members) != len(self.points):
            raise ValueError("points must be lex-sorted and distinct")
        for p in self.points:
            if not _preds_present(p, members):
                raise ValueError("not downward closed: %r lacks a predecessor" % (p,))

    @classmethod
    def _trusted(cls, dim: int, points: tuple[Coords, ...]) -> "LowerSet":
        """Wrap walk output, lex-sorted and downward closed by construction."""
        q = object.__new__(cls)
        object.__setattr__(q, "dim", dim)
        object.__setattr__(q, "points", points)
        return q

    @classmethod
    def from_points(cls, dim: int, points: Iterable[Iterable[int]]) -> "LowerSet":
        return cls(dim, tuple(sorted({_as_point(p, dim) for p in points})))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Coords]:
        return iter(self.points)

    def __contains__(self, p: object) -> bool:
        return p in self.points


@dataclass(frozen=True)
class Partition:
    """A d-dimensional integer partition given by its column heights.

    ``heights`` maps positive (d-1)-dimensional bases to column heights;
    heights must be non-increasing along every coordinate direction.
    """

    dim: int
    heights: dict[Coords, int]


def addable_points(q: LowerSet) -> set[Coords]:
    """Points whose addition to ``q`` yields a lower set again.

    The empty lower set admits exactly the origin.
    """
    if not q.points:
        return {(0,) * q.dim}
    members = set(q.points)
    out: set[Coords] = set()
    for p in q.points:
        for i in range(q.dim):
            s = p[:i] + (p[i] + 1,) + p[i + 1:]
            if s in members or s in out:
                continue
            if _preds_present(s, members):
                out.add(s)
    return out


def corners(q: LowerSet) -> set[Coords]:
    """Maximal points of ``q``; removing any subset keeps it a lower set."""
    if not q.points:
        raise ValueError("empty set has no corners")
    members = set(q.points)
    return {
        p
        for p in members
        if all(p[:i] + (p[i] + 1,) + p[i + 1:] not in members for i in range(q.dim))
    }


def _cross(
    dim: int, size: int, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[list[Coords], list[tuple[int, ...]], bytearray]:
    """The shifted hyperbolic cross {k : prod(k_i + 1) <= size}, lex-sorted,
    with its successor rows and predecessor counts, as
    ``(cells, nexts, missing)``.

    A lower set holding k holds the whole box of prod(k_i + 1) cells
    below k, so every lower set of size at most ``size`` lies in the
    cross; its lex-smallest cell is the origin.  Conversely the box of
    each cell is a lower set of size at most ``size``, which the walk
    visits as a node, so a walk over a cross of more than ``budget``
    cells must exceed ``budget``; BudgetExceededError is raised as soon
    as the cross holds that many, before it is built in full.

    Each cell grows from the prefix before its last nonzero coordinate:
    the zero-padded prefix comes first, then, later positions first and
    smaller values first, the cells with one more nonzero coordinate.
    That is lex order, and since every nonzero coordinate at least
    doubles the box, the recursion is at most log2(size) + 1 deep.  Each
    new cell joins the row of successors of each of its predecessors
    (the parent or the previous sibling along its last nonzero axis,
    one looked up by cell along each other), which are lex-smaller and
    already built, so every row is increasing.  ``missing`` holds the
    number of predecessors of each cell.
    """
    cells: list[Coords] = []
    nexts: list[tuple[int, ...]] = []
    missing = bytearray()
    pos: dict[Coords, int] = {}

    def grow(p: Coords, box: int, axes: tuple[int, ...], pred: int) -> int:
        # axes are the nonzero coordinates, pred is the index of k - e_axes[-1]
        j = len(cells)
        k = p + (0,) * (dim - len(p))
        cells.append(k)
        if j >= budget:
            raise BudgetExceededError("budget exceeded")
        pos[k] = j
        nexts.append(())
        missing.append(len(axes))
        if axes:
            nexts[pred] += (j,)
        for t in axes[:-1]:
            nexts[pos[k[:t] + (k[t] - 1,) + k[t + 1:]]] += (j,)
        room = size // box
        if room > 1:
            for a in range(dim - 1, len(p) - 1, -1):
                gap, more, prev = p + (0,) * (a - len(p)), axes + (a,), j
                for c in range(1, room):
                    prev = grow(gap + (c,), box * (c + 1), more, prev)
        return j

    try:
        if size >= 1:
            grow((), 1, (), -1)
    finally:
        # grow refers to itself through its closure; dropping the name
        # breaks that cycle, so its tables are freed when the caller drops
        # them rather than at some later garbage collection
        del grow
    return cells, nexts, missing


def _walk(
    dim: int, size: int, budget: int
) -> tuple[list[Coords], list[int], Iterator[list[int]]]:
    """The canonical growth of lower sets of size ``size`` in Z_+^dim, as
    ``(cells, levels, chains)``.

    ``cells`` and its tables come from ``_cross(dim, size, budget)`` at
    once, so a budget below its size raises here.  ``chains`` yields the
    shared chain of indices into ``cells`` at depth ``size``; the list is
    mutated as the walk goes on, so callers copy what they keep.  ``levels[k]`` is the
    number of sets of size k visited, which is p_dim(k) for every
    k <= size once ``chains`` is exhausted.

    The walk runs on indices into the lex-sorted cross, so index order
    is lex order.  It follows each cell's successor row inside the
    cross; a successor outside the cross never becomes addable before
    depth ``size``, so the walk stays exact.  ``missing`` counts, per
    cell, its predecessors not in the chain: at first all of them, since
    the cross is a lower set.  Pushing a chain cell takes one off the
    count of each successor, and those that reach 0 are the fresh
    addable cells; popping it puts the ones back.  Explicit stacks of
    frontiers and their cursors replace recursion, so the depth is
    bounded by ``size`` alone.  A frontier is a tuple of the
    addable cells lex-greater than the last chain cell, in increasing
    order.  Every visited set of size 1..size, the origin included,
    counts as a node against ``budget``.  Each call has its own counts,
    so walks are independent of each other.
    """
    cells, nexts, missing = _cross(dim, size, budget)
    levels = [1] + [0] * size

    def chains() -> Iterator[list[int]]:
        if size == 0:
            yield []
            return
        # the origin is node 1, and _cross has held it against the budget
        levels[1] = 1
        chain = [0]
        if size == 1:
            yield chain
            return
        for s in nexts[0]:
            missing[s] -= 1
        nodes = 1
        frontiers = [nexts[0]]
        cursors = [0]
        while frontiers:
            frontier = frontiers[-1]
            j = cursors[-1]
            if j == len(frontier):
                frontiers.pop()
                cursors.pop()
                for s in nexts[chain.pop()]:
                    missing[s] += 1
                continue
            cursors[-1] = j + 1
            p = frontier[j]
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("budget exceeded")
            chain.append(p)
            depth = len(chain)
            levels[depth] += 1
            if depth == size:
                yield chain
                chain.pop()
                continue
            row = nexts[p]
            fresh = []
            for s in row:
                c = missing[s]
                if c == 1:  # p was the last predecessor s lacked
                    fresh.append(s)
                missing[s] = c - 1
            frontier = frontier[j + 1:]
            if len(fresh) == len(row) and not frontier:
                frontier = row  # shared, so a long chain allocates no frontiers
            elif fresh:
                fresh.extend(frontier)
                fresh.sort()
                frontier = tuple(fresh)
            frontiers.append(frontier)
            cursors.append(0)

    return cells, levels, chains()


def enumerate_lower_sets(
    dim: int, size: int, budget: int = DEFAULT_NODE_BUDGET
) -> Iterator[LowerSet]:
    """Yield every lower set of the given size in Z_+^dim exactly once.

    The stream is deterministic: children are explored in lex order of
    the appended point.  ``budget`` caps the number of visited sets of
    any size; exceeding it raises BudgetExceededError.  When the cross
    the walk runs on alone holds more than ``budget`` cells, the error
    comes before the first set is yielded.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if size < 0:
        raise ValueError("size must be non-negative")
    cells, _, chains = _walk(dim, size, budget)
    for chain in chains:
        yield LowerSet._trusted(dim, tuple([cells[i] for i in chain]))


def count_table(
    dim: int,
    n_max: int,
    method: str = "auto",
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[int]:
    """Exact counts p_dim(0..n_max) of lower sets, as a list.

    ``method="auto"`` takes the partition oracles for dim <= 3 (every
    count is 1 for dim = 1); ``"dfs"``, and ``"auto"`` for dim >= 4,
    take the per-depth tally of one canonical walk to size ``n_max``.
    Both methods agree on all inputs.  The whole table costs what its
    last entry costs: it raises BudgetExceededError exactly when
    ``count_lower_sets(dim, n_max, method, budget)`` does.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if n_max < 0:
        raise ValueError("size must be non-negative")
    if method not in ("dfs", "auto"):
        raise ValueError("unknown method: %r" % (method,))
    if method == "auto":
        if dim == 1:
            return [1] * (n_max + 1)
        if dim == 2:
            return partition_oracle_2d(n_max)
        if dim == 3:
            return plane_partition_oracle_3d(n_max)
    _, levels, chains = _walk(dim, n_max, budget)
    for _ in chains:
        pass
    return levels


def count_lower_sets(
    dim: int,
    size: int,
    method: str = "auto",
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Number of lower sets of the given size in Z_+^dim, exactly.

    The last entry of :func:`count_table` with the same arguments; a
    count is either exact or BudgetExceededError is raised, never
    approximate.  ``p_1(size)`` is 1 under ``"auto"``, without a table.
    """
    if dim == 1 and method == "auto" and size >= 0:
        return 1
    return count_table(dim, size, method, budget)[size]


def partition_oracle_2d(n_max: int) -> list[int]:
    """Partition numbers p(0..n_max) by the parts-bounded recurrence.

    Independent of the enumeration walk; plain ints keep it exact.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            table[total] += table[total - part]
    return table


def plane_partition_oracle_3d(n_max: int) -> list[int]:
    """Plane partition numbers pp(0..n_max) by MacMahon's recurrence.

    n pp(n) = sum_{k=1..n} sigma_2(k) pp(n - k), where sigma_2(k) is the
    sum of the squares of the divisors of k; it follows from the
    logarithmic derivative of prod_{k>=1} (1 - q^k)^(-k).  O(n^2) exact
    integer work, independent of the enumeration walk.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    sigma2 = [0] * (n_max + 1)
    for a in range(1, n_max + 1):
        for b in range(a, n_max + 1, a):
            sigma2[b] += a * a
    pp = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        pp[n] = sum(sigma2[k] * pp[n - k] for k in range(1, n + 1)) // n
    return pp


def to_partition(q: LowerSet) -> Partition:
    """Column-height representation of ``q`` (dimension at least 2).

    Shifting ``q`` by the all-ones vector gives a positive lower set;
    grouping its points by the leading d-1 coordinates yields columns
    {1..h} in the last coordinate, and h is the recorded height.
    """
    if q.dim < 2:
        raise ValueError("partition form needs dimension at least 2")
    heights: dict[Coords, int] = {}
    for p in q.points:
        base = tuple(c + 1 for c in p[:-1])
        heights[base] = max(heights.get(base, 0), p[-1] + 1)
    return Partition(q.dim, heights)


def from_partition(part: Partition) -> LowerSet:
    """Inverse of :func:`to_partition`.

    Raises ValueError("not a partition") unless heights are positive and
    non-increasing along every coordinate direction (including presence
    of all predecessor bases).
    """
    d = part.dim
    if d < 2:
        raise ValueError("partition form needs dimension at least 2")
    heights = part.heights
    for base, h in heights.items():
        if len(base) != d - 1 or any(c < 1 for c in base) or h < 1:
            raise ValueError("not a partition")
        for i, c in enumerate(base):
            if c > 1:
                pred = base[:i] + (c - 1,) + base[i + 1:]
                if heights.get(pred, 0) < h:
                    raise ValueError("not a partition")
    points = []
    for base, h in heights.items():
        shifted = tuple(c - 1 for c in base)
        for j in range(h):
            points.append(shifted + (j,))
    return LowerSet(d, tuple(sorted(points)))


def slice_decompose(
    q: LowerSet, return_slices: bool = False
) -> list[int] | tuple[list[int], list[LowerSet]]:
    """Greedy hyperplane slicing of a non-empty lower set.

    Repeatedly removes the coordinate hyperplane slice holding the most
    remaining points.  Per axis the largest slice is always the zero
    slice, so each step strips {x_axis = 0} for the best axis (lowest
    index on ties) and renormalizes the rest by decrementing that axis,
    which keeps the remainder a lower set.  Returns the slice sizes,
    non-increasing and summing to len(q); with ``return_slices`` also
    the removed slices as (d-1)-dimensional lower sets.
    """
    if q.dim < 2:
        raise ValueError("slicing needs dimension at least 2")
    if not q.points:
        raise ValueError("cannot slice an empty set")
    pts = set(q.points)
    sizes: list[int] = []
    slices: list[LowerSet] = []
    while pts:
        best_axis, best = 0, -1
        for i in range(q.dim):
            c = sum(1 for p in pts if p[i] == 0)
            if c > best:
                best_axis, best = i, c
        cut = [p for p in pts if p[best_axis] == 0]
        sizes.append(len(cut))
        if return_slices:
            reduced = [p[:best_axis] + p[best_axis + 1:] for p in cut]
            slices.append(LowerSet(q.dim - 1, tuple(sorted(reduced))))
        pts = {
            p[:best_axis] + (p[best_axis] - 1,) + p[best_axis + 1:]
            for p in pts
            if p[best_axis] >= 1
        }
    if return_slices:
        return sizes, slices
    return sizes


def to_json_line(q: LowerSet) -> str:
    """One-line serialization: a JSON array of coordinate arrays."""
    return json.dumps([list(p) for p in q.points], separators=(",", ":"))


def from_json_line(line: str, dim: int | None = None) -> LowerSet:
    """Parse :func:`to_json_line` output; ``dim`` is required when empty."""
    raw = json.loads(line)
    if not raw:
        if dim is None:
            raise ValueError("dimension required for an empty set")
        return LowerSet(dim, ())
    d = dim if dim is not None else len(raw[0])
    return LowerSet.from_points(d, raw)
