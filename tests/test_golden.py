"""Replay the recorded CLI outputs in golden.json (written by make_golden.py).

Each run must give the recorded exit code and stderr text, and the
recorded stdout: the same bytes, or for ``bounds`` and ``discretize`` the
same parsed values with floats to 1e-9.
"""

import hashlib
import json

import pytest

from make_golden import GOLDEN, parsed, run, same

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_the_commands():
    commands = {e["argv"][0] for e in ENTRIES if e["argv"]}
    assert commands == {"count", "enumerate", "bounds", "discretize"}
    assert {e["code"] for e in ENTRIES} == {0, 1, 2, 3}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(
    ["%s=%s" % kv for kv in e["env"].items()] + [a[:24] for a in e["argv"]]))
def test_golden(entry):
    argv = entry["argv"]
    code, out, err = run(argv, entry["env"])
    assert (code, err) == (entry["code"], entry["stderr"])
    if "stdout" in entry:
        assert same(parsed(argv, out), entry["stdout"])
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]
