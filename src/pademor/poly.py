"""Polynomials in the shifted monomial basis (z - z0)^j.

Coefficients are stored ascending, one row per power (row j multiplies
(z - z0)^j): a scalar per row for a denominator Q, a vector of mode
coefficients for a Taylor block or a numerator P.  Denominators live on the
unit coefficient sphere sum |a_j|^2 = 1.

Polynomials are evaluated by Horner: a stack of scalar ones of one degree
by evaluate, rounded as Python's complex arithmetic rounds, and a stack of
one center and coefficient row shape, of any degrees, by _horner, one step
per coefficient row, every value rounded as NumPy's complex array product
rounds, whatever the grid or stack it is evaluated in;
ShiftedPolynomial.__call__ is _horner on a stack of one.
"""

import numpy as np

from . import numerics
from .errors import ConstantPolynomial, DimensionMismatch, NonFiniteValue, ZeroPolynomial
from .hilbert import _number_array, _point, _points


class ShiftedPolynomial:
    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        # ascending in powers of (z - center), one row per power
        coeffs = _number_array(coeffs, "polynomial coefficients", DimensionMismatch, complex)
        self.coeffs, self.center = np.atleast_1d(coeffs), _point(center, "polynomial center")

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        """Horner evaluation at a point, or at each of an array of points:
        one value (a row for a vector polynomial) each, by _horner on a
        stack of one, with no warning where a value overflows or is nan."""
        z = _points(z)
        # points as an array, never a NumPy scalar, whose products round apart
        with np.errstate(over="ignore", invalid="ignore"):
            [values] = _horner([self], z.reshape(-1) - self.center)
        return values.reshape(z.shape + self.coeffs.shape[1:])


def _horner(ps, dz):
    """Horner evaluation of each of ps, polynomials of one coefficient row
    shape listed by degree, highest first, at each offset z - center of a
    1-d array dz: a (len(ps), len(dz)) + row shape array, by one pass.

    The polynomials still active at power d are the prefix acc[:a] of one
    accumulator, each step acc[:a] *= dz; acc[:a] += their rows of power
    d, gathered for that step alone: sum(degree + 1) row steps, each value
    rounded as NumPy's complex array product rounds, whatever the points or
    the stack.  NumPy rounds a product of one element taken in place as
    Python does, without FMA, so such a product is taken out of place, on
    1-d arrays.
    """
    shape = ps[0].coeffs.shape[1:]
    dz = dz.reshape((-1,) + (1,) * len(shape))
    acc = np.zeros((len(ps),) + dz.shape[:1] + shape, complex)
    a = 0
    for d in range(ps[0].degree, -1, -1):
        while a < len(ps) and ps[a].degree >= d:
            a += 1
        head = acc[:a]
        if head.size == 1:  # 1-d: NumPy rounds a broadcast one as well without FMA
            head[...] = head.ravel() * dz.ravel()
        else:
            head *= dz
        head += np.array([p.coeffs[d] for p in ps[:a]]).reshape((a, 1) + shape)
    return acc


def evaluate(ps, points):
    """Horner evaluation of each of a stack of scalar polynomials of one
    degree at each of a 1-d array of points: a (len(ps), n) complex array.

    The rounding contract: each value is rounded as Horner on Python
    complex numbers rounds it (acc = acc * (z - center) + a_j), bit for bit,
    signed zeros, inf and nan included.  Python's complex product rounds
    the four real products, then one difference and one sum, and the
    Horner step adds the coefficient after; NumPy's complex product fuses a
    product into the sum or difference (FMA) on hosts that have it, and
    which one depends on the operand order, so that k * a and a * k may
    differ in the last bit: wherever NumPy's complex product is kept, each
    product keeps its operand order.  So the step runs on the real
    and imaginary parts as real arrays, each real operation a separate
    array operation, which NumPy rounds as IEEE does one float operation,
    whatever the length or layout of the arrays: every value gives the
    bytes it gives alone.
    """
    points = _number_array(points, "points", DimensionMismatch, complex, 1)
    if not ps:
        return np.zeros((0, points.size), complex)
    dz = points - np.array([[p.center] for p in ps])
    dr, di = dz.real, dz.imag
    re = im = np.zeros(dz.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in np.array([p.coeffs for p in ps]).T[::-1, :, None]:
            re, im = re * dr - im * di + a.real, re * di + im * dr + a.imag
    qz = re.astype(complex)
    qz.imag = im
    return qz


def _stacks(items, key):
    """{key(item): indices} of items, each list of indices in order: the
    stacks that one array pass solves together."""
    found = {}
    for i, item in enumerate(items):
        found.setdefault(key(item), []).append(i)
    return found


def roots(ps):
    """Roots of each of ps, sorted by distance from its center (ties by
    (Re, Im)): one pass over all their coefficients, zero-padded to the
    longest.  A vector polynomial raises DimensionMismatch, a non-finite
    coefficient NonFiniteValue, a largest magnitude at or below 1e-300
    ZeroPolynomial.  The trailing coefficients at or below
    numerics.TRIM_THRESHOLD of the largest magnitude, a padded zero always,
    are trimmed (fewer poles in range, not an error), but an effective
    degree 0 raises ConstantPolynomial.  The rows of each effective degree
    are solved as one stack (numerics.polynomial_roots) and ordered by one
    stable lexsort on np.hypot of the parts, as Python's abs of a complex
    number takes it (np.abs may round otherwise), then on Re, then on Im.
    """
    a = np.zeros((len(ps), max((p.coeffs.size for p in ps), default=0)), complex)
    for row, p in zip(a, ps):
        if p.coeffs.ndim != 1:
            raise DimensionMismatch(f"no roots of coefficients of shape {p.coeffs.shape}")
        row[:p.coeffs.size] = p.coeffs
    if not np.isfinite(a).all():
        raise NonFiniteValue("polynomial coefficients have a non-finite entry")
    mags = np.abs(a)
    scale = mags.max(axis=1, initial=0.0)
    if (scale <= 1e-300).any():
        raise ZeroPolynomial("zero polynomial has no well-defined degree")
    # the place of the last coefficient kept by np.where, and the degree
    # check on Python ints: a boolean argmax or an integer comparison runs
    # NumPy code that no other step runs, whose pages add to the RSS
    sizes = np.where(mags > numerics.TRIM_THRESHOLD * scale[:, None],
                     np.arange(1, a.shape[1] + 1), 0).max(axis=1, initial=0).tolist()
    if min(sizes, default=2) < 2:
        raise ConstantPolynomial("polynomial has effective degree 0")
    out, centers = list(ps), np.array([p.center for p in ps])[:, None]
    for n, index in _stacks(sizes, int).items():
        c = centers[index]
        r = numerics.polynomial_roots(a[index, :n]) + c
        d = r - c
        order = np.lexsort((r.imag, r.real, np.hypot(d.real, d.imag)))
        for i, row in zip(index, np.take_along_axis(r, order, axis=1).tolist()):
            out[i] = row
    return out
