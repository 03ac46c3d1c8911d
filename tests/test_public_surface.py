"""The public surface of pademor is two sets of names: those README writes
as `module.name`, and those the benchmark's tracer (perfbench/tracer.py,
only read) wraps by name.  Every other module-level function or class is
_-prefixed, so that changing it breaks no documented call.  What a caller
may pass as a number is decided in hilbert alone."""

import ast
import importlib
import inspect
import re
from pathlib import Path

from conftest import load_perfbench

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ("cli", "errors", "harness", "hilbert", "modal", "numerics", "pade", "poly")
WRITTEN = set(re.findall(rf"\b({'|'.join(MODULES)})\.(\w+)", README))
TRACED = {(layer, name) for layer, names in load_perfbench("tracer").TRACED.items()
          for name in names}


def module(name):
    return importlib.import_module(f"pademor.{name}")


def test_every_public_function_and_class_is_documented_or_traced():
    # errors holds only the exception classes, which README names bare
    found = [f"{layer}.{name}" for layer in MODULES if layer != "errors"
             for name, value in vars(module(layer)).items()
             if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
             and value.__module__ == f"pademor.{layer}"
             and (layer, name) not in WRITTEN | TRACED]
    assert found == []


def test_every_name_readme_writes_resolves():
    missing = sorted(f"{layer}.{name}" for layer, name in WRITTEN
                     if not hasattr(module(layer), name))
    assert missing == []


def test_readme_names_no_private_name():
    private = {name for layer in MODULES for name in vars(module(layer))
               if name.startswith("_") and not name.startswith("__")}
    named = set(re.findall(r"(?<!\w)_[A-Za-z]\w*", README))
    assert sorted(named & private) == []


def test_only_hilbert_decides_what_a_number_is():
    # modal._point and BuildParams once each tested for numbers and bools
    # themselves; the JSON reader's check that a diagnostic flag is a bool
    # is the one test for a bool outside hilbert
    found = []
    for layer in MODULES:
        if layer == "hilbert":
            continue
        for node in ast.walk(ast.parse(Path(module(layer).__file__).read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                found.append(f"{layer}: import numbers")
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                  in ("isinstance", "issubclass") and len(node.args) == 2
                  and {"bool", "bool_"} & {getattr(n, "id", getattr(n, "attr", None))
                                           for n in ast.walk(node.args[1])}):
                found.append(f"{layer}: {ast.unparse(node)}")
    assert found == ["pade: isinstance(diag[key], bool)"]
