"""Lower sets in Z_+^d: enumeration, counting, growth bounds and
sampling discretization experiments."""

from importlib import import_module

from .core import (
    BudgetExceededError,
    Coords,
    LowerSet,
    Partition,
    SearchExhausted,
    addable_points,
    corners,
    count_lower_sets,
    count_table,
    enumerate_lower_sets,
    from_json_line,
    from_partition,
    is_lower_set,
    partition_oracle_2d,
    plane_partition_oracle_3d,
    slice_decompose,
    to_json_line,
    to_partition,
)

# bounds (mpmath) and discretization (numpy) load on first use (PEP 562),
# so counting and enumeration start without either library.
_LAZY = {
    "BoundsReport": "bounds",
    "StaircaseNumbers": "bounds",
    "verify_bounds": "bounds",
    "DiscretizationReport": "discretization",
    "GramSpectrum": "discretization",
    "PointSetTorus": "discretization",
    "SearchResult": "discretization",
    "gram_spectrum": "discretization",
    "hyperbolic_cross_size": "discretization",
    "sample_points": "discretization",
    "search_minimal_m": "discretization",
    "tensor_grid": "discretization",
    "universal_constants": "discretization",
}


def __getattr__(name: str):
    if name in ("bounds", "discretization"):
        return import_module("." + name, __name__)
    if name in _LAZY:
        return getattr(import_module("." + _LAZY[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, "bounds", "discretization"})


__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "BoundsReport",
    "Coords",
    "DiscretizationReport",
    "GramSpectrum",
    "LowerSet",
    "Partition",
    "PointSetTorus",
    "SearchExhausted",
    "SearchResult",
    "StaircaseNumbers",
    "addable_points",
    "corners",
    "count_lower_sets",
    "count_table",
    "enumerate_lower_sets",
    "from_json_line",
    "from_partition",
    "gram_spectrum",
    "hyperbolic_cross_size",
    "is_lower_set",
    "partition_oracle_2d",
    "plane_partition_oracle_3d",
    "sample_points",
    "search_minimal_m",
    "slice_decompose",
    "tensor_grid",
    "to_json_line",
    "to_partition",
    "universal_constants",
    "verify_bounds",
]
