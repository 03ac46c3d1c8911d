"""Property tests: approximants and models survive a JSON round trip bit
for bit, on random synthetic pole sets, and a damaged object raises a
typed error."""

import json
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pademor import hilbert, modal, pade
from pademor.errors import PadeError
from pademor.hilbert import InnerProductWeights

SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def pole_sets(draw, max_poles=6):
    """Poles at least 0.25 apart in real part, |Im| <= 2, and their residue
    norms."""
    steps = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=max_poles,
                          unique=True))
    imag = draw(st.lists(st.floats(-2, 2), min_size=len(steps), max_size=len(steps)))
    norms = draw(st.lists(st.floats(1e-3, 10), min_size=len(steps), max_size=len(steps)))
    return [complex(k / 4, y) for k, y in zip(steps, imag)], norms


@st.composite
def approximants(draw):
    poles, norms = draw(pole_sets())
    model = modal.build_synthetic(poles, norms)
    # at least 0.5 away from every pole
    z0 = complex(draw(st.floats(-10, 10)),
                 draw(st.sampled_from([-1, 1])) * draw(st.floats(2.5, 5)))
    N = draw(st.integers(0, len(poles)))
    M = draw(st.integers(0, 4))
    extra = draw(st.integers(0, 2))
    if draw(st.booleans()):
        params = pade.BuildParams(z0, M, N, max(M, N) + extra, "fast")
    else:
        rho = draw(st.floats(0.5, 3))
        params = pade.BuildParams(z0, M, N, M + N + extra, "standard", rho)
    return pade.build(model, [params])[0]


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def through_text(obj):
    return json.loads(hilbert.json_bytes(obj))


@SETTINGS
@given(approximants())
def test_approximant_round_trip(approx):
    back = pade.approximant_from_json(through_text(pade.approximant_to_json(approx)))
    assert (hilbert.json_bytes(pade.approximant_to_json(back))
            == hilbert.json_bytes(pade.approximant_to_json(approx)))
    assert np.array_equal(bits(back.numerator.coeffs), bits(approx.numerator.coeffs))
    assert np.array_equal(bits(back.denominator.coeffs), bits(approx.denominator.coeffs))
    assert back.numerator.center == approx.numerator.center
    assert back.params == approx.params
    assert back.diagnostics == approx.diagnostics


@SETTINGS
@given(pole_sets())
def test_synthetic_model_round_trip(poles_norms):
    model = modal.build_synthetic(*poles_norms)
    text = hilbert.json_bytes(modal.model_to_json(model))
    back = modal.model_from_json(json.loads(text))
    assert hilbert.json_bytes(modal.model_to_json(back)) == text
    assert np.array_equal(bits(back.eigenvalues), bits(model.eigenvalues))
    assert np.array_equal(bits(back.coefficients), bits(model.coefficients))
    assert np.array_equal(bits(back.poles), bits(model.poles))
    assert back.residue_norms.tolist() == model.residue_norms.tolist()
    assert back.weights.weights.tolist() == model.weights.weights.tolist()


@SETTINGS
@given(st.lists(st.tuples(st.floats(1, 50), st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=8),
       st.floats(0, 5))
def test_energy_model_round_trip(modes, shift):
    lam, re, im = (np.array(col) for col in zip(*modes))
    model = modal.ModalModel(lam, re + 1j * im, InnerProductWeights.energy(lam, shift))
    text = hilbert.json_bytes(modal.model_to_json(model))
    back = modal.model_from_json(json.loads(text))
    assert hilbert.json_bytes(modal.model_to_json(back)) == text
    assert np.array_equal(bits(back.coefficients), bits(model.coefficients))
    assert back.weights.weights.tolist() == model.weights.weights.tolist()


# A mutation property: a reader given a damaged artifact or model
# object, and the library calls on what it returns, either return or raise
# a PadeError; BuildParams may raise its documented ValueError.
BUILD_PARAMS_ERRORS = ("M and N must be nonnegative", "variant requires", "unknown variant")
MODEL = modal.build_synthetic([1.0, 2.0, 4 + 0.5j], [1.0, 0.5, 0.25])
MODEL_OBJECT = through_text(modal.model_to_json(MODEL))
APPROX_OBJECT = through_text(pade.approximant_to_json(
    pade.build(MODEL, [pade.BuildParams(0.5j, 2, 2, 4)])[0]))


def json_paths(obj, path=()):
    """The path of every number and every list in a JSON object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(obj, list):
        yield path
        for i, value in enumerate(obj):
            yield from json_paths(value, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def mutated(obj, path, mutation):
    """A deep copy of obj with the entry at path replaced by a number, or
    its list shortened by one entry or lengthened by a copy of the last."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    entry = parent[last]
    if not isinstance(entry, list):
        parent[last] = mutation
    elif mutation == "shorten":
        parent[last] = entry[:-1]
    else:
        parent[last] = entry + entry[-1:] if entry else [0.0]
    return obj


@st.composite
def damaged_objects(draw):
    """A model or artifact object, random or the fixed ones above, with
    one number or one list damaged."""
    if draw(st.booleans()):
        kind, obj = "model", MODEL_OBJECT
        if draw(st.booleans()):
            obj = through_text(modal.model_to_json(modal.build_synthetic(*draw(pole_sets()))))
    else:
        kind, obj = "approximant", APPROX_OBJECT
        if draw(st.booleans()):
            obj = through_text(pade.approximant_to_json(draw(approximants())))
    path = draw(st.sampled_from(list(json_paths(obj))))
    entry = obj
    for key in path:
        entry = entry[key]
    options = ["shorten", "lengthen"] if isinstance(entry, list) else [
        math.nan, math.inf, -math.inf, 1e308, -1e308]
    return kind, mutated(obj, path, draw(st.sampled_from(options)))


@settings(max_examples=300, deadline=None, database=None)
@given(damaged_objects())
@example(("model", mutated(MODEL_OBJECT, ("eigenvalues", 0, 0), math.nan)))
@example(("model", mutated(MODEL_OBJECT, ("weights", 1), math.nan)))
@example(("model", mutated(MODEL_OBJECT, ("coefficients", 0, 0), math.inf)))
@example(("model", mutated(MODEL_OBJECT, ("eigenvalues", 1), "shorten")))
@example(("model", mutated(MODEL_OBJECT, ("weights", 2), -1e308)))
@example(("model", {**MODEL_OBJECT, "eigenvalues": [[1.0, 0.0]], "coefficients": [[1.0, 0.0]],
                    "weights": []}))
@example(("approximant", mutated(APPROX_OBJECT, ("denominator", "coeffs", 2, 0), math.nan)))
@example(("approximant", mutated(APPROX_OBJECT, ("numerator", 1, 0, 0), math.nan)))
@example(("approximant", mutated(APPROX_OBJECT, ("params", "z0"), "shorten")))
@example(("approximant", mutated(APPROX_OBJECT, ("denominator", "coeffs", 1), "shorten")))
@example(("approximant", mutated(APPROX_OBJECT, ("numerator", 2, 1), "lengthen")))
def test_damaged_objects_raise_typed_errors(case):
    kind, obj = case
    try:
        if kind == "model":
            model = modal.model_from_json(obj)
            modal.taylor_coefficients(model, 0.5 + 5j, 4)
        else:
            approx = pade.approximant_from_json(obj)
            pade.approximant_poles(approx)
            pade.evaluate(approx, approx.params.z0 + 1.0)
    except PadeError:
        pass
    except ValueError as exc:
        assert any(text in str(exc) for text in BUILD_PARAMS_ERRORS), exc
