"""The public surface of pademor is two sets of names: those README writes
as `module.name`, and those the benchmark's tracer (perfbench/tracer.py,
only read) wraps by name.  Every other module-level function or class is
_-prefixed, so that changing it breaks no documented call.  What a caller
may pass as a number is decided in hilbert alone, and only hilbert turns an
argument of a documented or traced function into an array."""

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


def test_only_hilbert_turns_an_argument_into_an_array():
    # numerics._jacobi, min_right_singular_vector and polynomial_roots,
    # poly.evaluate and ShiftedPolynomial.__call__ each converted an
    # argument by np.asarray or np.array(..., dtype=...) of their own, and
    # read strings, bools and None as numbers
    found = []
    for layer in MODULES:
        if layer == "hilbert":
            continue
        tree = ast.parse(Path(module(layer).__file__).read_text())
        functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
        for owner, fn in functions:
            if (layer, owner) not in WRITTEN | TRACED | {("numerics", "_jacobi")}:
                continue
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and getattr(node.func.value, "id", None) == "np" and node.args
                        and getattr(node.args[0], "id", None) in params
                        and (node.func.attr == "asarray" or node.func.attr == "array" and (
                            len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords)))):
                    found.append(f"{layer}.{owner}: {ast.unparse(node)}")
    assert found == []
