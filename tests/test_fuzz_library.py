"""Arguments that are not numbers, or arrays of the wrong rank, given to
the library that README's Library section documents and to the kernels
that the benchmark's tracer wraps (perfbench/tracer.py, TRACED).

hilbert._is_number is the one test of what a caller may pass as a number:
Python's or NumPy's int, float or complex, never a bool or a string.  Each
documented entry reads its number arguments through it.  One argument at a
time is replaced by a string, None, a bool, a NumPy bool, a dict, a list of
those or a ragged list.  Under warnings as errors every such call raises
ValueError or a PadeError whose message names the argument, never a
TypeError nor a result.  Every entry still accepts Python's and NumPy's
ints, floats and complex numbers, and lists, tuples and arrays of them, in
place of the same valid value.  An array argument of one documented rank
refuses a scalar and arrays of one axis fewer or more with a PadeError
naming it: hilbert._number_array alone turns an argument into an array.
Numbers at the edge, non-finite ones, magnitudes near 2^+-1000, empty
stacks, coincident poles and points on a pole, give a result or a
PadeError or ValueError, never another exception or a warning."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pademor import hilbert, modal, numerics, pade, poly
from pademor.errors import DimensionMismatch, PadeError

MODEL = modal.build_synthetic([1.0, 2.0 + 0.5j], [1.0, 0.5])
W = hilbert.InnerProductWeights.l2(2)
APPROX = pade.build(MODEL, [pade.BuildParams(0.25, 2, 1, 3)])[0]
TAYLOR = modal.taylor_coefficients(MODEL, 0.25, 4)
POLY = poly.ShiftedPolynomial(0.25, [1.0, 0.5])
MATRICES = [[[2.0, 0.5], [0.5, 1.0]]]

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
    "poly.ShiftedPolynomial.__call__ at a point": (lambda z: POLY(z),
                                                   {"z": ("complex", 0.5, "point")}),
    "poly.ShiftedPolynomial.__call__ on points": (lambda z: POLY(z),
                                                  {"z": ("complexes", [0.5, 1.5], "point")}),
    "poly.evaluate": (lambda points: poly.evaluate([POLY], points),
                      {"points": ("complexes", [0.5, 1.5], "points")}),
    "numerics.polynomial_roots": (numerics.polynomial_roots,
                                  {"a": ("rows", [[2.0, -3.0, 1.0]], "rows")}),
    "numerics.min_right_singular_vector": (numerics.min_right_singular_vector,
                                           {"R": ("matrices", MATRICES, "factors")}),
    "numerics.hermitian_eigensystem": (numerics.hermitian_eigensystem,
                                       {"matrices": ("matrices", MATRICES, "matrices")}),
    "numerics.hermitian_min_eigenpair": (numerics.hermitian_min_eigenpair,
                                         {"matrices": ("matrices", MATRICES, "matrices")}),
}
# The rank of each array kind; an argument of kind "complexes" that takes
# arrays of every rank (points) or of two (vectors, coefficients) has none.
RANKS = {"complexes": 1, "reals": 1, "rows": 2, "matrices": 3}
ANY_RANK = {("pade.evaluate on points", "z"), ("poly.ShiftedPolynomial.__call__ on points", "z"),
            ("hilbert.norm", "u"), ("poly.ShiftedPolynomial", "coeffs")}
ARGUMENTS = [(entry, name) for entry, (_, args) in ENTRIES.items() for name in args]
RANKED = [(entry, name) for entry, name in ARGUMENTS
          if ENTRIES[entry][1][name][0] in RANKS and (entry, name) not in ANY_RANK]

NOT_NUMBERS = st.sampled_from(["x", "0.5", None, True, np.True_, {}])
BAD = st.one_of(NOT_NUMBERS, st.lists(NOT_NUMBERS, min_size=1, max_size=3),
                st.sampled_from([[0.5, [1.5]], [[0.5], [1.5, 2.5]]]))


def leaves(value, spell):
    """value, a number or nested lists of numbers, each number spelt by spell."""
    return [leaves(x, spell) for x in value] if isinstance(value, list) else spell(value)


def forms(kind, value):
    """Python's and NumPy's spellings of value, a number or nested lists of
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
    a = np.array(value)
    found = [value, tuple(value), a, a.astype(np.float32), leaves(value, np.float64)]
    if (a == a.astype(int)).all():
        found += [leaves(value, int), a.astype(np.int64)]
    if kind != "reals":
        found += [leaves(value, complex), a.astype(complex), a.astype(np.complex64)]
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


def wrong_ranks(entry, name):
    """The valid value of an argument, nested lists of numbers, as a scalar
    and as arrays of one axis fewer (if it has two or more) and of one more:
    a scalar or a 2-d grid where a 1-d array is documented."""
    value = ENTRIES[entry][1][name][1]
    a = np.array(value)
    found = [("a scalar", a.ravel()[0].item()), ("one axis more", [value])]
    return [pytest.param(entry, name, bad, id=f"{entry}-{name}-{label}")
            for label, bad in found + ([("one axis fewer", value[0])] if a.ndim > 1 else [])]


@pytest.mark.parametrize("entry, name, bad", [
    case for entry, name in RANKED for case in wrong_ranks(entry, name)])
def test_an_array_of_the_wrong_rank_raises_a_typed_error(entry, name, bad):
    # a scalar gave ModalModel and build_synthetic NumPy's ValueError, and
    # evaluate_exact_grid an IndexError; poly.evaluate and the kernels
    # solved a 2-d grid or a lone matrix as a stack
    call, args = ENTRIES[entry]
    with pytest.raises(PadeError) as err:
        call(**{**valid(entry), name: bad})
    assert args[name][2] in str(err.value)


M = modal.build_synthetic([1.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize("call, error", [
    (lambda: numerics.polynomial_roots([["1", "2"]]), DimensionMismatch),
    (lambda: numerics.polynomial_roots([[True, 2]]), DimensionMismatch),
    (lambda: numerics.hermitian_min_eigenpair([[["2", "0"], ["0", "1"]]]), DimensionMismatch),
    (lambda: numerics.min_right_singular_vector([[["1", "2"], ["3", "4"]]]), DimensionMismatch),
    (lambda: poly.evaluate([poly.ShiftedPolynomial(0, [1, 2])], ["0.5"]), DimensionMismatch),
    (lambda: poly.ShiftedPolynomial(0, [1, 2])([None]), DimensionMismatch),
    (lambda: poly.ShiftedPolynomial(0, [1, 2])("0.5"), ValueError),
    (lambda: modal.evaluate_exact_grid(M, 0.5), DimensionMismatch),
    (lambda: modal.evaluate_exact_grid(M, [[0.5, 1.5]]), DimensionMismatch),
], ids=["roots of strings", "roots of a bool", "eigenpair of strings", "SVD of strings",
        "evaluate at a string", "call at None", "call at a string", "grid a scalar",
        "grid 2-d"])
def test_input_once_read_as_numbers_is_refused(call, error):
    # each returned a result (None read as nan, "0.5" as 0.5) or raised
    # IndexError
    with pytest.raises(error) as err:
        call()
    assert error is DimensionMismatch or not isinstance(err.value, PadeError)


@pytest.mark.parametrize("call", [
    lambda u: hilbert.norm(u, hilbert.InnerProductWeights.l2(2)),
    lambda u: modal.evaluate_exact_grid(M, u),
    lambda u: poly.ShiftedPolynomial(0.25, u),
], ids=["hilbert.norm", "modal.evaluate_exact_grid", "poly.ShiftedPolynomial"])
def test_arrays_ragged_below_their_first_axis(call):
    # NumPy refuses to make even an object array of these, where it makes
    # one of lists of plain ragged lists such as [[1, 2], [3]]
    with pytest.raises(DimensionMismatch, match="are not an array of numbers"):
        call([np.zeros((2, 2)), np.zeros((2, 3))])


# Numbers at the edge of the float range, and MODEL's poles: a point on a
# pole, and poles or points that coincide when an array repeats one.
EDGE_REALS = [math.nan, math.inf, -math.inf, 2.0**1000, -(2.0**1000), 2.0**-1000, -(2.0**-1000),
              2.0**-1074, 0.0, -0.0, sys.float_info.max, 1.0]
EDGE_COMPLEXES = EDGE_REALS + [complex(math.inf, math.nan), 2.0**1000 * 1j,
                               complex(2.0**-1000, 2.0**1000), 2.0 + 0.5j]
# Small integers only: the bounds of an integer argument are its own checks,
# and a large E, max_index or quad_order asks NumPy for a large array.
EDGE_INTS = [0, -1, 1, 2]
EMPTY = {1: [[]], 2: [[], [[]]], 3: [[], np.zeros((0, 2, 2)), [[[]]]]}
JACOBI = ("numerics.hermitian_eigensystem", "numerics.hermitian_min_eigenpair")


def edges(kind, value):
    """Draws of an argument of kind at the edge: for an array, one entry
    replaced by an edge number, every entry the same number, or an empty
    stack of its rank, as an array or as lists."""
    if kind in ("int", "real", "complex"):
        return st.sampled_from({"int": EDGE_INTS, "real": EDGE_REALS,
                                "complex": EDGE_COMPLEXES}[kind])
    numbers = EDGE_REALS if kind == "reals" else EDGE_COMPLEXES
    a = np.array(value, float if kind == "reals" else complex)

    def replaced(at, x):
        b = a.copy()
        b.flat[at] = x
        return b

    arrays = st.one_of(st.builds(replaced, st.integers(0, a.size - 1), st.sampled_from(numbers)),
                       st.builds(lambda x: np.full(a.shape, x), st.sampled_from(numbers)))
    return st.one_of(st.sampled_from(EMPTY[RANKS[kind]]), arrays,
                     arrays.map(lambda b: b.tolist()))


@settings(max_examples=500, deadline=None, database=None)
@given(data=st.data(), argument=st.sampled_from(ARGUMENTS))
def test_numbers_at_the_edge_give_a_result_or_a_typed_error(data, argument):
    entry, name = argument
    call, args = ENTRIES[entry]
    kind, value, _ = args[name]
    bad = data.draw(edges(kind, value), label=name)
    # test_jacobi_on_entries_near_2_to_the_1000 holds the kernels' one
    # known failure there
    assume(entry not in JACOBI or not np.abs(np.asarray(bad)).max(initial=0.0) > 2.0**511)
    try:
        call(**{**valid(entry), name: bad})
    except (PadeError, ValueError):
        pass


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="the Frobenius norms of _jacobi overflow above about 2^511")
@pytest.mark.parametrize("kernel", JACOBI)
def test_jacobi_on_entries_near_2_to_the_1000(kernel):
    call, _ = ENTRIES[kernel]
    try:
        call([[[2.0**1000, 0.5], [0.5, 1.0]]])
    except PadeError:
        pass
