"""Arguments that are not numbers, given to the library that README's
Library section documents.

hilbert._is_number is the one test of what a caller may pass as a number:
Python's or NumPy's int, float or complex, never a bool or a string.  Each
documented entry reads its number arguments through it.  One argument at a
time is replaced by a string, None, a bool, a NumPy bool, a dict, a list of
those or a ragged list.  Under warnings as errors every such call raises
ValueError or a PadeError whose message names the argument, never a
TypeError nor a result.  Every entry still accepts Python's and NumPy's
ints, floats and complex numbers, and lists, tuples and arrays of them, in
place of the same valid value."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pademor import hilbert, modal, pade, poly
from pademor.errors import PadeError

MODEL = modal.build_synthetic([1.0, 2.0 + 0.5j], [1.0, 0.5])
W = hilbert.InnerProductWeights.l2(2)
APPROX = pade.build(MODEL, [pade.BuildParams(0.25, 2, 1, 3)])[0]
TAYLOR = modal.taylor_coefficients(MODEL, 0.25, 4)

# Each entry: a call taking its number arguments by keyword, and for each
# of them (kind, valid value, the word its error names).  The valid values
# are exact in float32, so that every spelling of forms() is the same value.
# The arguments that are objects (a model, an approximant, weights) are
# bound.
ENTRIES = {
    "modal.ModalModel": (
        lambda eigenvalues, coefficients: modal.ModalModel(eigenvalues, coefficients, W),
        {"eigenvalues": ("complexes", [1.0, 2.0], "eigenvalues"),
         "coefficients": ("complexes", [1.0, 0.5], "coefficients")}),
    "pade.BuildParams": (
        lambda z0, M, N, E, rho: pade.BuildParams(z0, M, N, E, "standard", rho),
        {"z0": ("complex", 0.25, "z0"), "M": ("int", 1, "M"), "N": ("int", 1, "N"),
         "E": ("int", 2, "E"), "rho": ("real", 1.0, "rho")}),
    "modal.taylor_coefficients": (
        lambda z0, E: modal.taylor_coefficients(MODEL, z0, E),
        {"z0": ("complex", 0.25, "Taylor center"), "E": ("int", 3, "E")}),
    "modal.pole_list": (lambda z0: modal.pole_list(MODEL, z0),
                        {"z0": ("complex", 0.25, "center z0")}),
    "modal.evaluate_exact": (lambda z: modal.evaluate_exact(MODEL, z),
                             {"z": ("complex", 0.5, "point")}),
    "modal.evaluate_exact_grid": (lambda points: modal.evaluate_exact_grid(MODEL, points),
                                  {"points": ("complexes", [0.5, 1.5], "points")}),
    "pade.evaluate at a point": (lambda z: pade.evaluate(APPROX, z),
                                 {"z": ("complex", 0.5, "point")}),
    "pade.evaluate on points": (lambda z: pade.evaluate(APPROX, z),
                                {"z": ("complexes", [0.5, 1.5], "point")}),
    "modal.build_synthetic": (
        modal.build_synthetic,
        {"poles": ("complexes", [1.0, 2.0], "poles"),
         "residue_norms": ("reals", [1.0, 0.5], "residue norms")}),
    "modal.build_rectangle_helmholtz": (
        modal.build_rectangle_helmholtz,
        {"max_index": ("int", 4, "max_index"), "nu_sq": ("real", 12.0, "nu_sq"),
         "theta": ("real", 1.0, "theta"), "quad_order": ("int", 20, "quad_order")}),
    "hilbert.norm": (lambda u: hilbert.norm(u, W), {"u": ("complexes", [1.0, 0.5], "vectors")}),
    "hilbert.InnerProductWeights": (hilbert.InnerProductWeights,
                                    {"weights": ("reals", [1.0, 2.0], "weights")}),
    "hilbert.InnerProductWeights.l2": (hilbert.InnerProductWeights.l2,
                                       {"dimension": ("int", 2, "dimension")}),
    "hilbert.InnerProductWeights.energy": (
        hilbert.InnerProductWeights.energy,
        {"eigenvalues": ("complexes", [1.0, 2.0], "eigenvalues"),
         "shift": ("real", 12.0, "shift")}),
    "poly.ShiftedPolynomial": (
        poly.ShiftedPolynomial,
        {"center": ("complex", 0.25, "polynomial center"),
         "coeffs": ("complexes", [1.0, 0.5], "polynomial coefficients")}),
    "pade.functional_value on a model": (
        lambda E: pade.functional_value(APPROX.denominator, MODEL, E), {"E": ("int", 3, "E")}),
    "pade.functional_value on a Taylor block": (
        lambda E: pade.functional_value(APPROX.denominator, TAYLOR, E, W),
        {"E": ("int", 3, "E")}),
}
ARGUMENTS = [(entry, name) for entry, (_, args) in ENTRIES.items() for name in args]

NOT_NUMBERS = st.sampled_from(["x", "0.5", None, True, np.True_, {}])
BAD = st.one_of(NOT_NUMBERS, st.lists(NOT_NUMBERS, min_size=1, max_size=3),
                st.sampled_from([[0.5, [1.5]], [[0.5], [1.5, 2.5]]]))


def forms(kind, value):
    """Python's and NumPy's spellings of value, a number or a list of
    numbers of kind."""
    if kind == "int":
        return [value, np.int64(value), np.int32(value), np.uint8(value)]
    if kind in ("real", "complex"):
        found = [value, np.float64(value), np.float32(value)]
        if value == int(value):
            found += [int(value), np.int16(value)]
        if kind == "complex":
            found += [complex(value), np.complex128(value), np.complex64(value)]
        return found
    found = [value, tuple(value), np.array(value), np.array(value, np.float32),
             [np.float64(x) for x in value]]
    if all(x == int(x) for x in value):
        found += [[int(x) for x in value], np.array(value, np.int64)]
    if kind == "complexes":
        found += [[complex(x) for x in value], np.array(value, complex),
                  np.array(value, np.complex64)]
    return found


def valid(entry):
    return {name: value for name, (_, value, _) in ENTRIES[entry][1].items()}


@settings(max_examples=400, deadline=None, database=None)
@given(argument=st.sampled_from(ARGUMENTS), bad=BAD)
def test_an_argument_that_is_not_a_number_raises_a_typed_error(argument, bad):
    entry, name = argument
    call, args = ENTRIES[entry]
    with pytest.raises((ValueError, PadeError)) as err:
        call(**{**valid(entry), name: bad})
    assert args[name][2] in str(err.value)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), entry=st.sampled_from(list(ENTRIES)))
def test_numbers_of_every_spelling_are_accepted(data, entry):
    call, args = ENTRIES[entry]
    call(**{name: data.draw(st.sampled_from(forms(kind, value)), label=name)
            for name, (kind, value, _) in args.items()})


@pytest.mark.parametrize("call, message", [
    (lambda: modal.taylor_coefficients(MODEL, 0.25, -1), "E = -1 must be an integer >= 0"),
    (lambda: modal.taylor_coefficients(MODEL, 0.25, 2.5), "E = 2.5 must be an integer >= 0"),
    (lambda: modal.taylor_coefficients(MODEL, 0.25, True), "E = True must be an integer"),
    (lambda: modal.taylor_coefficients(MODEL, 0.25, "3"), "E = '3' must be an integer"),
    (lambda: pade.functional_value(APPROX.denominator, MODEL, -1), "E = -1 must be an integer"),
    (lambda: pade.functional_value(APPROX.denominator, MODEL, 1.5), "E = 1.5 must be an integer"),
    (lambda: pade.functional_value(APPROX.denominator, MODEL, True), "E = True must be an"),
    (lambda: pade.functional_value(APPROX.denominator, TAYLOR, -1, W), "E = -1 must be an"),
    (lambda: pade.functional_value(APPROX.denominator, TAYLOR, 2.0, W), "E = 2.0 must be an"),
    (lambda: modal.build_rectangle_helmholtz(max_index=4.5), "max_index = 4.5 must be an"),
    (lambda: modal.build_rectangle_helmholtz(quad_order="64"), "quad_order = '64' must be an"),
    (lambda: modal.build_rectangle_helmholtz(nu_sq="12"), "nu_sq = '12' must be a real number"),
    (lambda: modal.build_rectangle_helmholtz(theta=None), "theta = None must be a real number"),
    (lambda: hilbert.InnerProductWeights.l2("3"), "dimension = '3' must be an integer"),
    (lambda: hilbert.InnerProductWeights.l2(2.5), "dimension = 2.5 must be an integer"),
    (lambda: hilbert.InnerProductWeights.energy([1.0], "1"), "shift = '1' must be a real"),
])
def test_scalar_argument_not_a_number_of_its_kind(call, message):
    # -1, 2.5 and True were accepted by taylor_coefficients (-1 gave an
    # empty block) and by functional_value's modal route; the others raised
    # TypeError, or NumPy's ValueError on the Taylor route at -1
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).startswith(message)
