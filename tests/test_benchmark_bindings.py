"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name, and its worker calls harness.build_model(harness.load_config(path)).
Renaming or deleting any of them makes `perfbench/run.py --trace 1` fail, so
they are checked here; the tracer file is only read, never changed."""

import importlib

import pademor.harness

from conftest import load_perfbench


def test_every_traced_name_is_callable():
    tracer = load_perfbench("tracer")
    names = [(layer, fname) for layer in tracer.LAYERS for fname in tracer.TRACED[layer]]
    names += [("harness", "build_model"), ("harness", "load_config")]
    missing = [f"{layer}.{fname}" for layer, fname in names
               if not callable(getattr(importlib.import_module(f"pademor.{layer}"),
                                       fname, None))]
    assert missing == []


def test_harness_json_dump_is_reachable():
    # harness keeps json as a module attribute because the tracer's install
    # copies harness.json into its own module and wraps that copy's dump;
    # the artifact is written by hilbert.json_bytes, not through json.dump
    assert callable(pademor.harness.json.dump)
