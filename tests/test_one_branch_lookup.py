"""Each branch's noise power is read in one place: `mi._branch`.

`model.py` defines the noise powers and `montecarlo.py` is the independent
finite-size oracle; every other module asks `mi._branch` for a branch's
spectral point and system.
"""

import ast
from pathlib import Path

import pytest

import isac_mi

_NOISE_POWERS = {"sigma_s2", "sigma_c2"}
_READERS = {"mi.py", "model.py", "montecarlo.py"}
_OTHERS = sorted(p for p in Path(isac_mi.__file__).parent.glob("*.py") if p.name not in _READERS)


@pytest.mark.parametrize("path", _OTHERS, ids=lambda p: p.name)
def test_only_the_branch_lookup_reads_noise_powers(path):
    reads = [
        f".{node.attr} at line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in _NOISE_POWERS
    ]
    assert not reads, f"{path.name} reads a noise power outside mi._branch: {reads}"
