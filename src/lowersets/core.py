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
One iterative walk with explicit stacks feeds enumeration, the DFS
count and the discretization family, so depth is limited by n alone, not
by the interpreter's recursion limit.  It runs on indices into the
lex-sorted shifted hyperbolic cross F_n = {k : prod(k_i + 1) <= n},
which holds every lower set of size at most n, so index order is lex
order.  Each walk tables the in-cross successors of every cell once, and
the addability test reads a bytearray of present cells.  Its
output is lex-sorted and downward closed by construction, so
enumeration wraps it in LowerSet without re-validating; the public
constructor still validates all outside input.  The walk also tallies
the sets it visits per depth; since the growth passes through every
lower set of size at most n, one walk to n yields the whole count table
p_d(0..n), and :func:`count_table` is the one place that picks an oracle
or that walk.  Besides the table of F_n, which holds
O(n (1 + ln n)^(d-1)) cells, the walk keeps O(n) frontiers.  Every cell
of F_n is the corner of a box the walk visits, so F_n is built under
the node budget too, and a budget below |F_n| fails before the table
is complete.  Subtrees are independent, which would allow parallel
exploration.  All functions
here are pure and single threaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator

Coords = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when a depth-first walk visits more nodes than allowed."""


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


def _cross(dim: int, size: int, budget: int = DEFAULT_NODE_BUDGET) -> list[Coords]:
    """The shifted hyperbolic cross {k : prod(k_i + 1) <= size}, lex-sorted.

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
    That is lex order, each cell costs O(dim) however wide the cross is,
    and since every nonzero coordinate at least doubles the box, the
    recursion is at most log2(size) + 1 deep.
    """
    cells: list[Coords] = []

    def grow(p: Coords, box: int) -> None:
        cells.append(p + (0,) * (dim - len(p)))
        if len(cells) > budget:
            raise BudgetExceededError("budget exceeded")
        room = size // box
        if room > 1:
            for j in range(dim - 1, len(p) - 1, -1):
                gap = p + (0,) * (j - len(p))
                for c in range(1, room):
                    grow(gap + (c,), box * (c + 1))

    if size >= 1:
        grow((), 1)
    return cells


def _successor_table(
    cells: list[Coords], size: int
) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], ...]]]:
    """Per cell index of ``cells = _cross(dim, size)``, its successors
    k + e_i inside the cross in increasing order, and per successor the
    indices of its other predecessors.

    Equal rows of the second list are one shared tuple, and the
    cell-to-index dict is dropped on return, so a long walk holds only
    the cells and the two lists.
    """
    pos = {p: i for i, p in enumerate(cells)}
    shared: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] = {}
    nexts = []
    needs = []
    for p in cells:
        box = 1
        nonzero = []
        for k, c in enumerate(p):
            if c:
                box *= c + 1
                nonzero.append(k)
        succ = []
        need = []
        # p + e_i is lex-greater for smaller i, so the row comes out sorted;
        # a zero coordinate can grow only while the box can double
        for i in reversed(range(len(p)) if 2 * box <= size else nonzero):
            c = p[i]
            if box // (c + 1) * (c + 2) <= size:
                s = p[:i] + (c + 1,) + p[i + 1:]
                succ.append(pos[s])
                need.append(tuple([pos[s[:k] + (s[k] - 1,) + s[k + 1:]]
                                   for k in nonzero if k != i]))
        nexts.append(tuple(succ))
        need = tuple(need)
        needs.append(shared.setdefault(need, need))
    return nexts, needs


def _walk(cells: list[Coords], size: int, budget: int) -> Generator[list[int], None, list[int]]:
    """The canonical growth over ``cells = _cross(dim, size)``, yielding the
    shared chain of cell indices at depth ``size``.

    The walk runs on indices into the lex-sorted cross, so index order
    is lex order.  It first tables each cell's successors inside the
    cross with their other predecessors (:func:`_successor_table`); a
    successor outside the cross never becomes addable before depth
    ``size``, so the walk stays exact.  A successor of the newest chain
    cell is addable when all of its other predecessors are marked in a
    bytearray of present cells.  Explicit stacks of frontiers and their
    cursors replace recursion, so the depth is bounded by ``size`` alone.
    A frontier is a tuple of the addable cells lex-greater than the last
    chain cell, in increasing order.  Every visited set of size 1..size,
    the origin included, counts as a node against ``budget``.  The
    yielded list is mutated as the walk goes on; callers copy what they
    keep.

    On completion the walk returns ``levels``, where ``levels[k]`` is the
    number of sets of size k it visited, which is p_dim(k) for every
    k <= size.
    """
    if size == 0:
        yield []
        return [1]
    if budget < 1:
        raise BudgetExceededError("budget exceeded")
    nexts, needs = _successor_table(cells, size)
    present = bytearray(len(cells))
    present[0] = 1
    chain = [0]
    nodes = 1
    levels = [1, 1] + [0] * (size - 1)
    if size == 1:
        yield chain
        return levels
    frontiers = [nexts[0]]
    cursors = [0]
    while frontiers:
        frontier = frontiers[-1]
        j = cursors[-1]
        if j == len(frontier):
            frontiers.pop()
            cursors.pop()
            present[chain.pop()] = 0
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
        present[p] = 1
        row = nexts[p]
        fresh = []
        # all(present[o] for o in others), without a generator per successor
        for s, others in zip(row, needs[p]):
            for o in others:
                if not present[o]:
                    break
            else:
                fresh.append(s)
        frontier = frontier[j + 1:]
        if len(fresh) == len(row) and not frontier:
            frontier = row  # shared, so a long chain allocates no frontiers
        elif fresh:
            fresh.extend(frontier)
            fresh.sort()
            frontier = tuple(fresh)
        frontiers.append(frontier)
        cursors.append(0)
    return levels


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
    cells = _cross(dim, size, budget)
    for chain in _walk(cells, size, budget):
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
    walk = _walk(_cross(dim, n_max, budget), n_max, budget)
    while True:
        try:
            next(walk)
        except StopIteration as done:
            return done.value


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
