"""Only harness opens files, imports json or spells CSV cells.

The library modules build each record's JSON object and the record from
one (pade.approximant_to_json, modal.model_to_json and their inverses);
hilbert.json_bytes turns an object into JSON bytes.  Reading and writing
files, and the '%.17g' spelling of the CSV cells, are the harness's work
alone."""

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


def csv_spellings(module):
    """The string constants of module, docstrings left out, that hold the
    CSV float format '%.17g', one line number each."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "%.17g" in node.value and id(node) not in docstrings]


LIBRARY = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "harness")


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_opens_no_file(module):
    assert file_access(module) == []


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_spells_no_csv_cell(module):
    assert csv_spellings(module) == []


def test_harness_is_seen_opening_files():
    found = file_access("harness")
    assert any(f.endswith(": open") for f in found)
    assert any(f.endswith(": import json") for f in found)
    assert csv_spellings("harness")
