"""Property tests: approximants and models survive a JSON round trip bit
for bit, on random synthetic pole sets."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from pademor import hilbert, modal, pade
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
    return pade.build(model, params)


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def through_text(obj):
    return json.loads(hilbert.json_text(obj))


@SETTINGS
@given(approximants())
def test_approximant_round_trip(approx):
    back = pade.approximant_from_json(through_text(pade.approximant_to_json(approx)))
    assert (hilbert.json_text(pade.approximant_to_json(back))
            == hilbert.json_text(pade.approximant_to_json(approx)))
    assert np.array_equal(bits(back.numerator.coeffs), bits(approx.numerator.coeffs))
    assert np.array_equal(bits(back.denominator.coeffs), bits(approx.denominator.coeffs))
    assert back.numerator.center == approx.numerator.center
    assert back.params == approx.params
    assert back.diagnostics == approx.diagnostics


@SETTINGS
@given(pole_sets())
def test_synthetic_model_round_trip(poles_norms):
    model = modal.build_synthetic(*poles_norms)
    text = hilbert.json_text(modal.model_to_json(model))
    back = modal.model_from_json(json.loads(text))
    assert hilbert.json_text(modal.model_to_json(back)) == text
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
    text = hilbert.json_text(modal.model_to_json(model))
    back = modal.model_from_json(json.loads(text))
    assert hilbert.json_text(modal.model_to_json(back)) == text
    assert np.array_equal(bits(back.coefficients), bits(model.coefficients))
    assert back.weights.weights.tolist() == model.weights.weights.tolist()
