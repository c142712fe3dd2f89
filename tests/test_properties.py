"""Property tests over generated lower sets and sizes.

Examples are derandomized, so every run checks the same cases; each
property keeps to small sizes so the file runs in well under two
seconds.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import box_filter_lower_sets
from lowersets import core
from lowersets.core import LowerSet

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def lower_sets(draw, min_dim: int = 1, min_size: int = 0) -> LowerSet:
    """The downward closure of a few drawn points in the box {0..3}^d."""
    d = draw(st.integers(min_dim, 4))
    point = st.tuples(*[st.integers(0, 3)] * d)
    tops = draw(st.lists(point, min_size=min_size, max_size=4))
    cells = {p for top in tops for p in itertools.product(*(range(c + 1) for c in top))}
    return LowerSet.from_points(d, cells)


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 6))
def test_enumeration_equals_box_filter(d, n):
    assert {q.points for q in core.enumerate_lower_sets(d, n)} == box_filter_lower_sets(d, n)


@PROPERTY
@given(lower_sets(min_dim=2))
def test_partition_form_round_trips(q):
    part = core.to_partition(q)
    assert sum(part.heights.values()) == len(q)
    assert core.from_partition(part) == q


@PROPERTY
@given(lower_sets())
def test_json_line_round_trips(q):
    assert core.from_json_line(core.to_json_line(q), q.dim) == q


@PROPERTY
@given(lower_sets(min_dim=2, min_size=1))
def test_slice_sizes_non_increasing_and_sum_to_size(q):
    sizes = core.slice_decompose(q)
    assert sum(sizes) == len(q)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 8), st.sampled_from(["auto", "dfs"]))
def test_counts_are_monotone_in_dimension(d, n, method):
    lower = core.count_table(d, n, method)
    higher = core.count_table(d + 1, n, method)
    assert all(a <= b for a, b in zip(lower, higher))
