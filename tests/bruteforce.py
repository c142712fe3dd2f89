"""Independent oracles used to cross-check the package.

Nothing here shares algorithms with the library: the subset filter
walks in/out decisions over box cells in lex order, the combinations
filter literally tests every n-subset, the partition lister builds
non-increasing tuples directly, and plane partitions come from
expanding MacMahon's product rather than from its sigma_2 recurrence.
"""

from __future__ import annotations

import itertools
from typing import Iterator

Point = tuple[int, ...]


def downward_closed(points: set[Point]) -> bool:
    for p in points:
        for i, c in enumerate(p):
            if c and p[:i] + (c - 1,) + p[i + 1:] not in points:
                return False
    return True


def candidate_cells(d: int, n: int) -> list[Point]:
    """Cells of the box {0..n-1}^d that can appear in a size-n lower set.

    A lower set containing p also contains the full box below p, so any
    usable cell satisfies prod(p_i + 1) <= n.  Cells failing that cannot
    occur in any n-subset that passes the closure filter.
    """
    out = []
    for p in itertools.product(range(n), repeat=d):
        prod = 1
        for c in p:
            prod *= c + 1
            if prod > n:
                break
        else:
            out.append(p)
    return sorted(out)


def successor_rows(cells: list[Point]) -> list[tuple[int, ...]]:
    """Per cell, the sorted indices of its successors p + e_i among ``cells``."""
    index = {p: i for i, p in enumerate(cells)}
    rows = []
    for p in cells:
        found = []
        for i in range(len(p)):
            s = p[:i] + (p[i] + 1,) + p[i + 1:]
            if s in index:
                found.append(index[s])
        rows.append(tuple(sorted(found)))
    return rows


def box_filter_lower_sets(d: int, n: int) -> set[tuple[Point, ...]]:
    """All size-n lower sets in the box, by in/out subset recursion.

    Equivalent to filtering every n-subset of the box by downward
    closure: cells are decided in lex order, and a cell may be taken
    only when its predecessors (all lex-earlier, hence already decided)
    were taken, which is exactly the closure condition.
    """
    if n == 0:
        return {()}
    cells = candidate_cells(d, n)
    found: set[tuple[Point, ...]] = set()
    taken: list[Point] = []
    members: set[Point] = set()

    def walk(idx: int) -> None:
        if len(taken) == n:
            found.add(tuple(taken))
            return
        if idx == len(cells) or len(taken) + len(cells) - idx < n:
            return
        cell = cells[idx]
        ok = all(
            not c or cell[:i] + (c - 1,) + cell[i + 1:] in members
            for i, c in enumerate(cell)
        )
        if ok:
            taken.append(cell)
            members.add(cell)
            walk(idx + 1)
            taken.pop()
            members.discard(cell)
        walk(idx + 1)

    walk(0)
    return found


def combinations_filter_lower_sets(d: int, n: int) -> set[tuple[Point, ...]]:
    """Literal filter of all n-subsets of the box; tiny inputs only."""
    box = list(itertools.product(range(n), repeat=d))
    return {
        tuple(sorted(sub))
        for sub in itertools.combinations(box, n)
        if downward_closed(set(sub))
    }


def list_partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples of positive parts."""
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in list_partitions(n - first, first):
            yield (first,) + rest


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) built additively, independent of math.comb."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def plane_partitions_by_product(n_max: int) -> list[int]:
    """PP(0..n_max) as coefficients of prod_{k>=1} (1 - q^k)^(-k).

    Applies the geometric factor (1 - q^k)^(-1) k times for each k;
    cubic in n_max.
    """
    coef = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for _ in range(k):
            for total in range(k, n_max + 1):
                coef[total] += coef[total - k]
    return coef
