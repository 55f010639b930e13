"""The numerical core returns data; only the CLI touches files."""

import ast
from pathlib import Path

import pytest

import isac_mi

_FILE_IO = {"open", "write_text", "read_text", "mkdir"}
_CORE = sorted(p for p in Path(isac_mi.__file__).parent.glob("*.py") if p.name != "cli.py")


@pytest.mark.parametrize("path", _CORE, ids=lambda p: p.name)
def test_core_module_does_no_file_io(path):
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _FILE_IO:
                calls.append(f"{name}() at line {node.lineno}")
    assert not calls, f"{path.name} does file I/O: {calls}"
