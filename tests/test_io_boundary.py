"""Only harness opens files or imports json.

The library modules build each record's JSON object and the record from
one (pade.approximant_to_json, modal.model_to_json and their inverses);
hilbert.json_text turns an object into text.  Reading and writing files is
the harness's work alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pademor"


def file_access(module):
    """The calls to open (a name or an attribute) and the imports of json
    in the source of module, one string each."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                found.append(f"line {node.lineno}: open")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "json"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "json"):
            found.append(f"line {node.lineno}: from {node.module} import")
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "harness"))
def test_library_module_opens_no_file(module):
    assert file_access(module) == []


def test_harness_is_seen_opening_files():
    found = file_access("harness")
    assert any(f.endswith(": open") for f in found)
    assert any(f.endswith(": import json") for f in found)
