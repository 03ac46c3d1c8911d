"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name, and its worker calls harness.build_model(harness.load_config(path)).
Renaming or deleting any of them makes `perfbench/run.py --trace 1` fail, so
they are checked here; the tracer file is only read, never changed."""

import importlib
import importlib.util
from pathlib import Path

import pademor.harness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_callable():
    tracer = load_tracer()
    names = [(layer, fname) for layer in tracer.LAYERS for fname in tracer.TRACED[layer]]
    names += [("harness", "build_model"), ("harness", "load_config")]
    missing = [f"{layer}.{fname}" for layer, fname in names
               if not callable(getattr(importlib.import_module(f"pademor.{layer}"),
                                       fname, None))]
    assert missing == []


def test_harness_json_dump_is_reachable():
    # the tracer traces the build artifact's writing through harness.json.dump
    assert callable(pademor.harness.json.dump)
