"""The package's lazy names, and which libraries each command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lowersets
from lowersets import bounds as bnd
from lowersets import cli, core
from lowersets import discretization as disc

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter and prints, as one JSON object, the libraries
# in sys.modules after the import and after each command, in this order.
CHILD = r"""
import contextlib, io, json, sys

def loaded():
    return [name for name in ("numpy", "mpmath") if name in sys.modules]

import lowersets
report = {"import lowersets": loaded()}
from lowersets import cli
for argv in (["count", "--d", "2..3", "--n", "1..6"],
             ["enumerate", "--d", "3", "--n", "4"],
             ["bounds", "--d", "2", "--n", "3"],
             ["discretize", "--d", "2", "--n", "3", "--m", "16", "--seed", "7"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[argv[0]] = [code] + loaded()
print(json.dumps(report))
"""


def test_each_command_loads_only_the_libraries_it_calls():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == {
        "import lowersets": [],
        "count": [0],
        "enumerate": [0],
        "bounds": [0, "mpmath"],
        "discretize": [0, "numpy", "mpmath"],
    }


@pytest.mark.parametrize("name", lowersets.__all__)
def test_public_name_is_the_submodule_object(name):
    home = next(mod for mod in (core, bnd, disc) if hasattr(mod, name))
    assert getattr(lowersets, name) is getattr(home, name)


def test_lazy_names_are_listed_and_star_importable():
    assert set(lowersets.__all__) <= set(dir(lowersets))
    assert {"bounds", "discretization"} <= set(dir(lowersets))
    assert lowersets.bounds is bnd and lowersets.discretization is disc
    namespace = {}
    exec("from lowersets import *", namespace)
    assert set(lowersets.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lowersets.no_such_name


def test_discretization_reexports_the_core_objects():
    assert disc.SearchExhausted is core.SearchExhausted
    assert disc.EigenSolverError is core.EigenSolverError
    assert (disc.DEFAULT_C1, disc.DEFAULT_C2) == (core.DEFAULT_C1, core.DEFAULT_C2)


def test_discretize_parser_defaults_are_the_library_targets():
    args = cli.build_parser().parse_args(["discretize", "--d", "2", "--n", "3", "--m", "4"])
    assert (args.c1, args.c2) == (disc.DEFAULT_C1, disc.DEFAULT_C2)
    assert disc.search_minimal_m.__defaults__[:2] == (disc.DEFAULT_C1, disc.DEFAULT_C2)
