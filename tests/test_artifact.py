"""The text of build artifacts and model files.

Both are written by hilbert.json_bytes (orjson: keys sorted, no spaces,
shortest round-trip spelling, numerators and model arrays straight from
their memory) and must hold the values of an independent json.dumps route,
bit for bit, on the benchmark workloads and on hand-made extreme floats.
Both must be strict JSON: orjson.loads rejects NaN and Infinity."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

import pademor
from pademor import cli, harness, hilbert, modal, pade, poly
from pademor.errors import DimensionMismatch, InvalidWeights, NonFiniteValue

from conftest import load_perfbench
from oracles import approximant_line, model_object

workloads = load_perfbench("workloads")

EXTREMES = [-0.0, 5e-324, 1e-05, 1e16, -sys.float_info.max, 0.1]


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def assert_same_approximant(back, approx):
    for a, b in ((back.numerator.coeffs, approx.numerator.coeffs),
                 (back.denominator.coeffs, approx.denominator.coeffs)):
        assert np.array_equal(bits(a), bits(b))
    assert back.params == approx.params
    assert back.diagnostics == approx.diagnostics


def hand_made(numerator, M=1, variant="fast", cond=math.inf):
    """An approximant of degree M with the given numerator rows."""
    params = pade.BuildParams(0.5j, M, 1, M + 1, variant, 1.0)
    den = poly.ShiftedPolynomial(0.5j, np.array([0.6, 0.8]))
    diag = pade.Diagnostics(1.0, False, condition_estimate=cond)
    return pade.PadeApproximant(poly.ShiftedPolynomial(0.5j, numerator), den, params, diag)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_artifact_lines(workload, tmp_path):
    config = workloads.make_config(workload)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "build.json"
    assert cli.main(["build", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == '{"approximants": [' and lines[-1] == "]}"

    study = harness.parse_config(config)
    model = harness.build_model(study)
    approxs = pade.build(model, harness._params(study, study.M_list, study.N))
    assert len(lines) == len(approxs) + 2
    for line, approx in zip(lines[1:-1], approxs):
        obj = orjson.loads(line.removesuffix(","))
        assert obj == json.loads(approximant_line(approx))
        assert list(obj) == sorted(obj)
        assert_same_approximant(pade.approximant_from_json(obj), approx)


def test_extreme_floats_round_trip():
    big = sys.float_info.max
    pairs = np.array([[[-0.0, 1e16], [5e-324, -big], [1e-05, 0.1]],
                      [[0.1, -0.0], [1e16, 5e-324], [-big, 1e-05]]])
    approx = hand_made(pairs.view(complex)[..., 0])
    line = hilbert.json_bytes(pade.approximant_to_json(approx))
    assert (b'"numerator":[[[-0.0,1e16],[5e-324,-1.7976931348623157e308],'
            b'[0.00001,0.1]],[[0.1,-0.0],[1e16,5e-324],'
            b'[-1.7976931348623157e308,0.00001]]],"params":{' in line)
    assert line.startswith(b'{"denominator":{"center":[0.0,0.5],"coeffs":[[0.6,0.0],')
    # an overflowed diagnostic reads null, which strict JSON holds
    assert b'"diagnostics":{"condition_estimate":null,"degenerate":false,' in line
    assert orjson.loads(line) == json.loads(line) == json.loads(approximant_line(approx))
    back = pade.approximant_from_json(orjson.loads(line))
    assert back.diagnostics.condition_estimate is None
    assert_same_approximant(back, hand_made(pairs.view(complex)[..., 0], cond=None))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_numerator_raises(bad):
    approx = hand_made(np.array([[1.0, 2.0], [3.0, complex(0.0, bad)]]), M=1,
                       variant="standard")
    with pytest.raises(NonFiniteValue, match="standard approximant with M = 1"):
        hilbert.json_bytes(pade.approximant_to_json(approx))


def test_model_file_arrays():
    # -max is a coefficient: an eigenvalue part must stay below
    # modal.COORDINATE_LIMIT
    model = modal.ModalModel(np.array([5e-324, 1e-05, 1e16, 0.0, 0.1]) + 1j,
                             [1.0, 1.0, 1.0, -sys.float_info.max, 1.0],
                             hilbert.InnerProductWeights.l2(5))
    text = hilbert.json_bytes(modal.model_to_json(model))
    assert orjson.loads(text) == json.loads(text) == model_object(model)
    assert text.startswith(b'{"coefficients":[[1.0,0.0],')  # keys sorted
    assert b',"eigenvalues":[[5e-324,1.0],[0.00001,1.0],' in text
    assert text.endswith(b'],"weights":[1.0,1.0,1.0,1.0,1.0]}')
    back = modal.model_from_json(json.loads(text))
    assert np.array_equal(bits(back.eigenvalues), bits(model.eigenvalues))
    assert np.array_equal(bits(back.coefficients), bits(model.coefficients))


def test_non_finite_model_array_raises():
    # the model itself refuses the entry that its JSON could not hold
    with pytest.raises(NonFiniteValue, match="coefficient is not finite"):
        modal.ModalModel([1.0, 2.0], [1.0, math.nan], modal.InnerProductWeights.l2(2))


def artifact_object():
    """The parsed artifact line of a hand-made approximant."""
    return json.loads(hilbert.json_bytes(pade.approximant_to_json(hand_made([[1.0], [2.0]]))))


def test_non_finite_denominator_read_back_raises():
    # Python's json reads NaN; approximant_poles raised a bare IndexError
    obj = artifact_object()
    obj["denominator"]["coeffs"][1] = [math.nan, 0.0]
    with pytest.raises(NonFiniteValue):
        pade.approximant_poles(pade.approximant_from_json(obj))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["numerator", "coeffs", "center", "z0"])
def test_non_finite_entry_is_refused_on_reading(where, value):
    # a numerator row [NaN, 0] loaded, and evaluate then gave nan+nanj
    obj = artifact_object()
    if where == "numerator":
        obj["numerator"][1] = [[value, 0.0]]
    elif where == "coeffs":
        obj["denominator"]["coeffs"][0] = [0.6, value]
    elif where == "center":
        obj["denominator"]["center"] = [value, 0.5]
    else:
        obj["params"]["z0"] = [0.0, value]
    with pytest.raises(NonFiniteValue, match="non-finite"):
        pade.approximant_from_json(obj)


@pytest.mark.parametrize("where, value", [
    ("coeffs", [[0.6, 0.0]]),  # one coefficient for N = 1
    ("coeffs", [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]]),  # three
    ("coeffs", [[[0.6, 0.0]], [[0.8, 0.0]]]),  # a column of coefficients
    ("numerator", [[[1.0, 0.0]]]),  # one row for M = 1
    ("numerator", [[1.0, 0.0], [2.0, 0.0]]),  # scalar rows
    ("numerator", [[[[1.0, 0.0]]], [[[2.0, 0.0]]]]),  # rows of matrices
])
def test_artifact_of_the_wrong_shape_is_refused(where, value):
    obj = artifact_object()
    if where == "coeffs":
        obj["denominator"]["coeffs"] = value
    else:
        obj["numerator"] = value
    with pytest.raises(DimensionMismatch, match="for N = 1, M = 1"):
        pade.approximant_from_json(obj)


def test_z0_that_is_not_a_pair_raises():
    # NumPy's view raised ValueError "When changing to a larger dtype..."
    obj = artifact_object()
    obj["params"]["z0"] = [1.0]
    with pytest.raises(DimensionMismatch):
        pade.approximant_from_json(obj)


def test_cli_import_leaves_orjson_unloaded():
    src = str(Path(pademor.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pademor.cli; "
            "sys.exit('orjson' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, src]).returncode == 0


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# An artifact object damaged in its structure, and the error's text: the
# reader raised KeyError or TypeError on each.
MALFORMED_ARTIFACTS = {
    "empty": (lambda a: {}, "at $.params: missing key"),
    "whole artifact": (lambda a: {"approximants": [a]}, "at $.approximants: unknown key"),
    "a list": (lambda a: [a], "at $: must be a JSON object"),
    "no numerator": (lambda a: without(a, "numerator"), "at $.numerator: missing key"),
    "params a list": (lambda a: {**a, "params": []}, "at $.params: must be a JSON object"),
    "params without M": (lambda a: {**a, "params": without(a["params"], "M")},
                         "at $.params.M: missing key"),
    "denominator a list": (lambda a: {**a, "denominator": a["denominator"]["coeffs"]},
                           "at $.denominator: must be a JSON object"),
    "denominator without center": (lambda a: {**a, "denominator": without(a["denominator"],
                                                                          "center")},
                                   "at $.denominator.center: missing key"),
    "diagnostics without degenerate": (
        lambda a: {**a, "diagnostics": without(a["diagnostics"], "degenerate")},
        "at $.diagnostics.degenerate: missing key"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARTIFACTS))
def test_malformed_artifact_object_raises_value_error(case):
    damage, message = MALFORMED_ARTIFACTS[case]
    with pytest.raises(ValueError) as exc:
        pade.approximant_from_json(damage(artifact_object()))
    assert str(exc.value) == message


# A model object damaged in its structure, and the error's text.
MALFORMED_MODELS = {
    "empty": ({}, "at $.eigenvalues: missing key"),
    "a list": ([], "at $: must be a JSON object"),
    "no weights": ({"eigenvalues": [[1.0, 0.0]], "coefficients": [[1.0, 0.0]]},
                   "at $.weights: missing key"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_object_raises_value_error(case):
    obj, message = MALFORMED_MODELS[case]
    with pytest.raises(ValueError) as exc:
        modal.model_from_json(obj)
    assert str(exc.value) == message


def with_entry(obj, path, value):
    """A copy of obj with the entry at path set to value."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    parent[last] = value
    return obj


# An entry of the right key but wrong contents, the error it raises and
# the start of its text: the reader raised TypeError on the first seven and
# the two of two pairs, and read the other four back as garbage.
MALFORMED_ENTRIES = {
    "weights entry an object": ("model", ("weights", 0), {}, InvalidWeights,
                                "weights are not an array of numbers"),
    "eigenvalue part an object": ("model", ("eigenvalues", 0, 0), {}, DimensionMismatch,
                                  "[re, im] pairs are not an array of numbers"),
    "denominator part an object": ("approximant", ("denominator", "coeffs", 1, 0), {},
                                   DimensionMismatch,
                                   "[re, im] pairs are not an array of numbers"),
    "M a string": ("approximant", ("params", "M"), "2", ValueError,
                   "M = '2' must be an integer"),
    "M null": ("approximant", ("params", "M"), None, ValueError,
               "M = None must be an integer"),
    "unknown key in params": ("approximant", ("params", "K"), 3, ValueError,
                              "at $.params.K: unknown key"),
    "unknown key in diagnostics": ("approximant", ("diagnostics", "K"), 3, ValueError,
                                   "at $.diagnostics.K: unknown key"),
    "rho a string": ("approximant", ("params", "rho"), "x", ValueError,
                     "rho = 'x' must be None or a real number"),
    "functional value a string": ("approximant", ("diagnostics", "functional_value"), "x",
                                  ValueError,
                                  "at $.diagnostics.functional_value: must be a number or null"),
    "degenerate a number": ("approximant", ("diagnostics", "degenerate"), 0, ValueError,
                            "at $.diagnostics.degenerate: must be true or false"),
    "weight true": ("model", ("weights", 1), True, InvalidWeights,
                    "weights are not an array of numbers"),
    "z0 two pairs": ("approximant", ("params", "z0"), [[0.0, 0.5], [1.0, 0.0]],
                     DimensionMismatch, "array of shape (2, 2) is not one [re, im] pair"),
    "center two pairs": ("approximant", ("denominator", "center"), [[0.0, 0.5], [1.0, 0.0]],
                         DimensionMismatch, "array of shape (2, 2) is not one [re, im] pair"),
}


def model_object_of_three():
    model = modal.build_synthetic([1.0, 2.0, 4 + 0.5j], [1.0, 0.5, 0.25])
    return json.loads(hilbert.json_bytes(modal.model_to_json(model)))


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_malformed_entry_raises_a_typed_error(case):
    kind, path, value, error, message = MALFORMED_ENTRIES[case]
    if kind == "model":
        read, obj = modal.model_from_json, model_object_of_three()
    else:
        read, obj = pade.approximant_from_json, artifact_object()
    with pytest.raises(error) as exc:
        read(with_entry(obj, path, value))
    assert str(exc.value).startswith(message)


def test_artifact_object_without_defaulted_keys_reads_their_defaults():
    obj = artifact_object()
    obj["params"] = without(without(obj["params"], "variant"), "rho")
    obj["diagnostics"] = {key: obj["diagnostics"][key] for key in ("functional_value",
                                                                 "degenerate")}
    approx = pade.approximant_from_json(obj)
    assert (approx.params.variant, approx.params.rho) == ("fast", None)
    assert approx.diagnostics == pade.Diagnostics(obj["diagnostics"]["functional_value"],
                                                  obj["diagnostics"]["degenerate"])
