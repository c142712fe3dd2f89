"""Core type, enumeration, counting and bijection behavior.

Expected values come from the independent oracles in bruteforce.py or
from hand-checked tiny cases, never from the code under test.
"""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc

import pytest

from bruteforce import (
    box_filter_lower_sets,
    candidate_cells,
    combinations_filter_lower_sets,
    list_partitions,
    pascal_binomial,
    plane_partitions_by_product,
    successor_rows,
)
from lowersets import core
from lowersets.core import LowerSet, Partition
from lowersets.discretization import hyperbolic_cross_size


def _ls(dim, pts):
    return LowerSet.from_points(dim, pts)


# -- predicates and local ops -------------------------------------------------

def test_is_lower_set_examples():
    assert core.is_lower_set(2, [(0, 0), (1, 0), (0, 1)])
    assert not core.is_lower_set(2, [(0, 0), (1, 1)])
    assert core.is_lower_set(1, [])


def test_is_lower_set_dimension_mismatch():
    with pytest.raises(ValueError, match="inconsistent dimension"):
        core.is_lower_set(2, [(0, 0), (1,)])


def test_is_lower_set_rejects_negative():
    with pytest.raises(ValueError):
        core.is_lower_set(2, [(0, -1)])


def test_addable_points_examples():
    assert core.addable_points(_ls(2, [(0, 0)])) == {(1, 0), (0, 1)}
    got = core.addable_points(_ls(2, [(0, 0), (1, 0), (0, 1)]))
    assert got == {(2, 0), (1, 1), (0, 2)}
    assert core.addable_points(LowerSet(3, ())) == {(0, 0, 0)}


def test_addable_points_definition():
    # every claimed point extends to a lower set, every other cell does not
    q = _ls(2, [(0, 0), (1, 0), (2, 0), (0, 1)])
    add = core.addable_points(q)
    cells = set(itertools.product(range(5), repeat=2)) - set(q.points)
    for p in cells:
        extended = set(q.points) | {p}
        assert core.is_lower_set(2, extended) == (p in add)


def test_corners_examples():
    assert core.corners(_ls(3, [(0, 0, 0)])) == {(0, 0, 0)}
    assert core.corners(_ls(2, [(0, 0), (1, 0), (0, 1)])) == {(1, 0), (0, 1)}


def test_corners_empty_error():
    with pytest.raises(ValueError, match="empty set has no corners"):
        core.corners(LowerSet(2, ()))


@pytest.mark.parametrize("d,n", [(2, 5), (2, 6), (3, 5)])
def test_corner_subsets_removable(d, n):
    for q in core.enumerate_lower_sets(d, n):
        cs = sorted(core.corners(q))
        for r in range(len(cs) + 1):
            for drop in itertools.combinations(cs, r):
                rest = set(q.points) - set(drop)
                assert core.is_lower_set(d, rest)


# -- enumeration and counting -------------------------------------------------

def test_enumerate_smallest_cases():
    assert [q.points for q in core.enumerate_lower_sets(2, 0)] == [()]
    assert [q.points for q in core.enumerate_lower_sets(3, 1)] == [((0, 0, 0),)]
    got = {q.points for q in core.enumerate_lower_sets(2, 3)}
    assert got == {
        ((0, 0), (0, 1), (0, 2)),
        ((0, 0), (0, 1), (1, 0)),
        ((0, 0), (1, 0), (2, 0)),
    }


def test_enumerate_yields_each_set_once():
    seen = [q.points for q in core.enumerate_lower_sets(3, 6)]
    assert len(seen) == len(set(seen))


def test_enumerate_chain_only_in_1d():
    (q,) = core.enumerate_lower_sets(1, 5)
    assert q.points == ((0,), (1,), (2,), (3,), (4,))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_enumerate_matches_box_filter_small(d):
    # A strictly lex-increasing stream of the whole family is unique, so
    # passing this pins the stream set for set, not only as a set.
    for n in range(9):
        stream = list(core.enumerate_lower_sets(d, n))
        # walk output skips validation, so run it through the public constructor
        for q in stream:
            assert q == LowerSet(q.dim, q.points)
        points = [q.points for q in stream]
        assert all(a < b for a, b in zip(points, points[1:]))
        assert set(points) == box_filter_lower_sets(d, n)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_walks_are_independent(d):
    # each walk mutates and restores its own per-cell counts as it goes, so
    # interleaved, abandoned and failed walks leave other streams unchanged
    for n in range(1, 8):
        alone = [q.points for q in core.enumerate_lower_sets(d, n)]
        pairs = zip(core.enumerate_lower_sets(d, n), core.enumerate_lower_sets(d, n))
        assert [(a.points, b.points) for a, b in pairs] == [(p, p) for p in alone]
        half = core.enumerate_lower_sets(d, n)
        head = [q.points for q in itertools.islice(half, len(alone) // 2)]
        assert [q.points for q in core.enumerate_lower_sets(d, n)] == alone
        assert head + [q.points for q in half] == alone
        nodes = sum(core.count_table(d, n, "dfs")[1:])
        with pytest.raises(core.BudgetExceededError):
            for _ in core.enumerate_lower_sets(d, n, budget=nodes - 1):
                pass
        assert [q.points for q in core.enumerate_lower_sets(d, n)] == alone


def _check_cross_tables(d, n):
    cells, nexts, missing = core._cross(d, n)
    assert len(cells) == hyperbolic_cross_size(d, n)
    assert nexts == successor_rows(cells)
    assert list(missing) == [d - p.count(0) for p in cells]
    return cells


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_walk_cross_is_the_shifted_hyperbolic_cross(d):
    for n in range(13):
        assert _check_cross_tables(d, n) == candidate_cells(d, n)


@pytest.mark.parametrize("d,n", [(12, 9), (40, 7), (200, 3)])
def test_wide_cross_tables_match_the_reference(d, n):
    # distinct cells of the cross, as many as it holds, are all of it
    cells = _check_cross_tables(d, n)
    assert all(a < b for a, b in zip(cells, cells[1:]))
    assert all(math.prod(c + 1 for c in p) <= n for p in cells)


@pytest.mark.parametrize("d,n,budget", [(1, 3000, 10**8), (3, 12, 10**8), (3, 12, 5)])
def test_cross_leaves_no_garbage_cycle(d, n, budget):
    # tables kept alive by a cycle linger until the collector runs, so a
    # process's peak memory would depend on when it happens to run
    gc.collect()
    gc.disable()
    try:
        try:
            core._cross(d, n, budget)
        except core.BudgetExceededError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 40])
def test_wide_shallow_walks_match_closed_forms(d):
    # size 2: {0, e_i}; size 3: the chains {0, e_i, 2e_i} and the
    # corners {0, e_i, e_j}, i < j; size 4: d chains, 2 C(d, 2) L shapes
    # {0, e_i, 2e_i, e_j}, C(d, 2) squares and C(d, 3) tripods
    c2, c3 = pascal_binomial(d, 2), pascal_binomial(d, 3)
    assert core.count_table(d, 4, "dfs") == [1, 1, d, d + c2, d + 3 * c2 + c3]


def test_wide_shallow_walk_examples():
    assert core.count_lower_sets(200, 3, "dfs") == 20100
    stream = [q.points for q in core.enumerate_lower_sets(40, 3)]
    assert len(stream) == 820
    assert all(a < b for a, b in zip(stream, stream[1:]))


@pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 3), (1, 6)])
def test_box_filter_agrees_with_literal_combinations(d, n):
    assert box_filter_lower_sets(d, n) == combinations_filter_lower_sets(d, n)


def test_count_examples():
    assert core.count_lower_sets(2, 5) == 7
    assert core.count_lower_sets(4, 2) == 4
    assert core.count_lower_sets(3, 4, method="dfs") == 13


def test_count_against_partition_listing():
    for n in range(11):
        assert core.count_lower_sets(2, n, "dfs") == sum(1 for _ in list_partitions(n))


def test_count_methods_agree():
    for d in range(1, 5):
        for n in range(8):
            assert core.count_lower_sets(d, n, "dfs") == core.count_lower_sets(d, n, "auto")


def test_count_rejects_bad_method():
    with pytest.raises(ValueError):
        core.count_lower_sets(2, 3, method="guess")


def test_budget_guard():
    with pytest.raises(core.BudgetExceededError, match="budget exceeded"):
        core.count_lower_sets(3, 9, method="dfs", budget=10)
    with pytest.raises(core.BudgetExceededError):
        list(core.enumerate_lower_sets(3, 9, budget=10))


# Solid partitions, OEIS A000293 (Knuth, Math. Comp. 24 (1970) 955-961),
# and four-dimensional partitions, OEIS A000334: p_4(n) and p_5(n).
SOLID_PARTITIONS = [1, 1, 4, 10, 26, 59, 140, 307, 684, 1464, 3122, 6500, 13426]
FOUR_DIM_PARTITIONS = [1, 1, 5, 15, 45, 120, 326, 835, 2145, 5345, 13220]


@pytest.mark.parametrize("d,table", [(4, SOLID_PARTITIONS), (5, FOUR_DIM_PARTITIONS)])
def test_dfs_counts_match_oeis(d, table):
    assert [core.count_lower_sets(d, n, "dfs") for n in range(len(table))] == table
    # one walk to the largest n tallies every smaller size on the way
    assert core.count_table(d, len(table) - 1, "dfs") == table


@pytest.mark.parametrize("method", ["dfs", "auto"])
@pytest.mark.parametrize("d,n", [(1, 12), (2, 12), (3, 11), (4, 9), (5, 8)])
def test_count_table_matches_per_size_counts(d, n, method):
    table = core.count_table(d, n, method)
    assert table == [core.count_lower_sets(d, k, method) for k in range(n + 1)]


def test_count_table_errors_match_count_lower_sets():
    for args, message in (((0, 3), "dimension"), ((2, -1), "size"),
                          ((0, -1), "dimension")):
        with pytest.raises(ValueError, match=message):
            core.count_table(*args)
        with pytest.raises(ValueError, match=message):
            core.count_lower_sets(*args)
    with pytest.raises(ValueError, match="unknown method"):
        core.count_table(2, 3, method="guess")


def test_origin_counts_against_the_budget():
    with pytest.raises(core.BudgetExceededError):
        core.count_lower_sets(2, 1, "dfs", budget=0)
    with pytest.raises(core.BudgetExceededError):
        list(core.enumerate_lower_sets(3, 1, budget=0))
    assert core.count_lower_sets(2, 1, "dfs", budget=1) == 1
    assert [q.points for q in core.enumerate_lower_sets(3, 1, budget=1)] == [((0, 0, 0),)]
    # size 0 visits no node, so no budget is too small for it
    assert core.count_table(4, 0, "dfs", budget=0) == [1]
    assert [q.points for q in core.enumerate_lower_sets(2, 0, budget=0)] == [()]


def test_dimension_one_auto_count_builds_no_table():
    tracemalloc.start()
    try:
        assert core.count_lower_sets(1, 10**6) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a table of 10**6 + 1 entries takes 8 MB
    with pytest.raises(ValueError, match="size must be non-negative"):
        core.count_lower_sets(1, -1)


def test_deep_chain_has_no_recursion_limit():
    assert core.count_lower_sets(1, 3000, method="dfs") == 1
    (q,) = core.enumerate_lower_sets(1, 3000)
    assert q.points == tuple((i,) for i in range(3000))


@pytest.mark.parametrize("d,n", [(1, 10**8), (100, 100)])
def test_budget_below_the_cross_fails_before_building_it(d, n):
    # every cell of the cross is the corner of a box the walk visits, so a
    # cross larger than the budget raises while it is built, in O(budget)
    tracemalloc.start()
    try:
        for budget in (10, 1000):
            with pytest.raises(core.BudgetExceededError, match="budget exceeded"):
                core.count_table(d, n, "dfs", budget=budget)
            with pytest.raises(core.BudgetExceededError, match="budget exceeded"):
                core.count_lower_sets(d, n, "dfs", budget=budget)
            with pytest.raises(core.BudgetExceededError, match="budget exceeded"):
                next(core.enumerate_lower_sets(d, n, budget=budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000  # 1000 cells of 100 coordinates take about 1 MB


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cross_budget_never_cuts_a_walk_short(d):
    # with budget = the walk's node count the cross always fits; the two
    # are equal for d = 1 and for n <= 2, where every lower set is a box
    for n in range(1, 9):
        nodes = sum(core.count_table(d, n, "dfs")[1:])
        cells, nexts, missing = core._cross(d, n, nodes)
        assert len(cells) == len(nexts) == len(missing) <= nodes
        assert core.count_table(d, n, "dfs", budget=nodes)[n] == core.count_lower_sets(d, n)
        assert len(list(core.enumerate_lower_sets(d, n, budget=nodes))) == \
            core.count_lower_sets(d, n)
        with pytest.raises(core.BudgetExceededError):
            core.count_table(d, n, "dfs", budget=nodes - 1)


@pytest.mark.parametrize("d,n", [(2, 6), (3, 5), (4, 7), (5, 4)])
def test_budget_boundary_is_exact(d, n):
    sizes = {2: core.partition_oracle_2d(n), 3: core.plane_partition_oracle_3d(n),
             4: SOLID_PARTITIONS, 5: FOUR_DIM_PARTITIONS}[d]
    nodes = sum(sizes[1:n + 1])  # the walk visits every set of size 1..n once
    assert core.count_lower_sets(d, n, "dfs", budget=nodes) == sizes[n]
    assert len(list(core.enumerate_lower_sets(d, n, budget=nodes))) == sizes[n]
    with pytest.raises(core.BudgetExceededError):
        core.count_lower_sets(d, n, "dfs", budget=nodes - 1)
    assert core.count_table(d, n, "dfs", budget=nodes) == sizes[:n + 1]
    with pytest.raises(core.BudgetExceededError):
        core.count_table(d, n, "dfs", budget=nodes - 1)
    got = []
    with pytest.raises(core.BudgetExceededError):
        for q in core.enumerate_lower_sets(d, n, budget=nodes - 1):
            got.append(q)
    # Every set of size < n has a child, so the last visited node is the
    # last set of size n.
    assert len(got) == sizes[n] - 1


def test_partition_oracle_2d():
    assert core.partition_oracle_2d(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


# Plane partitions, OEIS A000219.
PLANE_PARTITIONS = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479, 2485,
                    4167, 6879, 11297, 18334, 29601, 47330, 75278]


def test_plane_partition_recurrence_matches_product_expansion():
    assert core.plane_partition_oracle_3d(150) == plane_partitions_by_product(150)
    assert core.plane_partition_oracle_3d(0) == [1]


def test_plane_partition_oracle_3d():
    assert core.plane_partition_oracle_3d(20) == PLANE_PARTITIONS
    # cross-checked against the box filter, an unrelated route
    for n in range(8):
        assert core.plane_partition_oracle_3d(n)[n] == len(box_filter_lower_sets(3, n))


# -- partition bijection ------------------------------------------------------

def test_to_partition_example():
    q = _ls(2, [(0, 0), (1, 0), (0, 1)])
    assert core.to_partition(q).heights == {(1,): 2, (2,): 1}


def test_from_partition_column():
    part = Partition(2, {(1,): 4})
    assert core.from_partition(part).points == ((0, 0), (0, 1), (0, 2), (0, 3))


def test_from_partition_rejects_non_monotone():
    with pytest.raises(ValueError, match="not a partition"):
        core.from_partition(Partition(2, {(1,): 1, (2,): 2}))
    with pytest.raises(ValueError, match="not a partition"):
        core.from_partition(Partition(3, {(2, 1): 1}))


def test_to_partition_needs_two_dims():
    with pytest.raises(ValueError):
        core.to_partition(_ls(1, [(0,)]))


@pytest.mark.parametrize("d", [2, 3])
def test_partition_roundtrip(d):
    for n in range(9):
        for q in core.enumerate_lower_sets(d, n):
            part = core.to_partition(q)
            assert sum(part.heights.values()) == len(q)
            assert core.from_partition(part) == q


# -- slicing ------------------------------------------------------------------

def test_slice_decompose_examples():
    chain = _ls(2, [(i, 0) for i in range(4)])
    assert core.slice_decompose(chain) == [4]
    tri = _ls(2, [(0, 0), (1, 0), (0, 1)])
    assert core.slice_decompose(tri) == [2, 1]


def test_slice_decompose_errors():
    with pytest.raises(ValueError):
        core.slice_decompose(LowerSet(2, ()))
    with pytest.raises(ValueError):
        core.slice_decompose(_ls(1, [(0,)]))


@pytest.mark.parametrize("d", [2, 3])
def test_slice_decompose_properties(d):
    for n in range(1, 7):
        for q in core.enumerate_lower_sets(d, n):
            sizes, slices = core.slice_decompose(q, return_slices=True)
            assert sum(sizes) == len(q)
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            for s in slices:
                assert core.is_lower_set(d - 1, s.points)
            assert [len(s) for s in slices] == sizes


# -- type validation and serialization ---------------------------------------

def test_lowerset_validation():
    with pytest.raises(ValueError):
        LowerSet(2, ((1, 0),))  # origin missing
    with pytest.raises(ValueError):
        LowerSet(2, ((0, 1), (0, 0)))  # not sorted
    with pytest.raises(ValueError):
        LowerSet(0, ())
    with pytest.raises(ValueError, match="inconsistent dimension"):
        LowerSet(2, ((0, 0, 0),))


def test_json_line_roundtrip():
    q = _ls(2, [(0, 0), (1, 0), (0, 1)])
    line = core.to_json_line(q)
    assert line == "[[0,0],[0,1],[1,0]]"
    assert core.from_json_line(line) == q
    assert core.from_json_line("[]", dim=3) == LowerSet(3, ())
    with pytest.raises(ValueError):
        core.from_json_line("[]")
