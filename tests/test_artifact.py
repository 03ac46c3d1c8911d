"""The text of build artifacts and model files.

Both are written by hilbert.json_text (orjson: keys sorted, no spaces,
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
from pademor.errors import DimensionMismatch, NonFiniteValue

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
    approxs = [a for pair in harness._pairs(model, study, study.M_list, study.N)
               for a in pair]
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
    line = hilbert.json_text(pade.approximant_to_json(approx))
    assert ('"numerator":[[[-0.0,1e16],[5e-324,-1.7976931348623157e308],'
            '[0.00001,0.1]],[[0.1,-0.0],[1e16,5e-324],'
            '[-1.7976931348623157e308,0.00001]]],"params":{' in line)
    assert line.startswith('{"denominator":{"center":[0.0,0.5],"coeffs":[[0.6,0.0],')
    # an overflowed diagnostic reads null, which strict JSON holds
    assert '"diagnostics":{"condition_estimate":null,"degenerate":false,' in line
    assert orjson.loads(line) == json.loads(line) == json.loads(approximant_line(approx))
    back = pade.approximant_from_json(orjson.loads(line))
    assert back.diagnostics.condition_estimate is None
    assert_same_approximant(back, hand_made(pairs.view(complex)[..., 0], cond=None))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_numerator_raises(bad):
    approx = hand_made(np.array([[1.0, 2.0], [3.0, complex(0.0, bad)]]), M=1,
                       variant="standard")
    with pytest.raises(NonFiniteValue, match="standard approximant with M = 1"):
        hilbert.json_text(pade.approximant_to_json(approx))


def test_model_file_arrays():
    # -max is a coefficient: an eigenvalue part must stay below
    # modal.COORDINATE_LIMIT
    model = modal.ModalModel(np.array([5e-324, 1e-05, 1e16, 0.0, 0.1]) + 1j,
                             [1.0, 1.0, 1.0, -sys.float_info.max, 1.0],
                             hilbert.InnerProductWeights.l2(5))
    text = hilbert.json_text(modal.model_to_json(model))
    assert orjson.loads(text) == json.loads(text) == model_object(model)
    assert text.startswith('{"coefficients":[[1.0,0.0],')  # keys sorted
    assert ',"eigenvalues":[[5e-324,1.0],[0.00001,1.0],' in text
    assert text.endswith('],"weights":[1.0,1.0,1.0,1.0,1.0]}')
    back = modal.model_from_json(json.loads(text))
    assert np.array_equal(bits(back.eigenvalues), bits(model.eigenvalues))
    assert np.array_equal(bits(back.coefficients), bits(model.coefficients))


def test_non_finite_model_array_raises():
    # the model itself refuses the entry that its JSON could not hold
    with pytest.raises(NonFiniteValue, match="coefficient is not finite"):
        modal.ModalModel([1.0, 2.0], [1.0, math.nan], modal.InnerProductWeights.l2(2))


def artifact_object():
    """The parsed artifact line of a hand-made approximant."""
    return json.loads(hilbert.json_text(pade.approximant_to_json(hand_made([[1.0], [2.0]]))))


def test_non_finite_denominator_read_back_raises():
    # Python's json reads NaN; approximant_poles raised a bare IndexError
    obj = artifact_object()
    obj["denominator"]["coeffs"][1] = [math.nan, 0.0]
    with pytest.raises(NonFiniteValue):
        pade.approximant_poles(pade.approximant_from_json(obj))


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
