"""Polynomials in the shifted monomial basis (z - z0)^j.

Coefficients are stored ascending, one row per power (row j multiplies
(z - z0)^j): a scalar per row for a denominator Q, a vector of mode
coefficients for a Taylor block or a numerator P.  Denominators live on the
unit coefficient sphere sum |a_j|^2 = 1.

Polynomials are evaluated by Horner: a stack of scalar ones of one degree
by evaluate, rounded as Python's complex arithmetic rounds, and one
polynomial, or a vector one whose rows hold a stack side by side, by
ShiftedPolynomial.__call__, every value rounded as NumPy's complex array
product rounds, whatever the grid or stack it is evaluated in.
"""

import numpy as np

from . import numerics
from .errors import ConstantPolynomial, NonFiniteValue, ZeroPolynomial, stacks


class ShiftedPolynomial:
    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        # ascending in powers of (z - center), one row per power
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        self.center = complex(center)

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        """Horner evaluation on NumPy arrays at a point, or at each of an
        array of points: one value (a row for a vector polynomial) each."""
        z = np.asarray(z, dtype=complex)
        # points as an array, never a NumPy scalar, whose products round apart
        dz = z.reshape((-1,) + (1,) * (self.coeffs.ndim - 1)) - self.center
        acc = np.zeros(dz.shape[:1] + self.coeffs.shape[1:], dtype=complex)
        for row in self.coeffs[::-1]:
            if acc.size == 1:  # NumPy rounds a one-element product in place without FMA
                acc = acc * dz
            else:
                acc *= dz
            acc += row
        return acc.reshape(z.shape + self.coeffs.shape[1:])


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
    if not ps:
        return np.zeros((0, np.size(points)), complex)
    dz = np.asarray(points, dtype=complex) - np.array([[p.center] for p in ps])
    dr, di = dz.real, dz.imag
    re = im = np.zeros(dz.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in np.array([p.coeffs for p in ps]).T[::-1, :, None]:
            re, im = re * dr - im * di + a.real, re * di + im * dr + a.imag
    qz = re.astype(complex)
    qz.imag = im
    return qz


def effective_stack(ps):
    """The coefficients of each of ps less the trailing ones at or below
    numerics.TRIM_THRESHOLD of its max magnitude, those of one coefficient
    shape as one array pass.

    A vanishing leading coefficient means fewer poles in range, which is a
    legitimate outcome, not an error.  A non-finite coefficient raises
    NonFiniteValue, a largest magnitude at or below 1e-300 ZeroPolynomial.
    """
    out = [p.coeffs for p in ps]
    for index in stacks(out, np.shape).values():
        a = np.array([out[i] for i in index])
        if not np.isfinite(a).all():
            raise NonFiniteValue("polynomial coefficients have a non-finite entry")
        top = np.abs(a).reshape(len(index), a.shape[1], -1).max(axis=2)  # per row
        scale = top.max(axis=1)
        if (scale <= 1e-300).any():
            raise ZeroPolynomial("zero polynomial has no well-defined degree")
        # the place of the last row kept: np.where, as a boolean argmax runs
        # NumPy code that no other step runs, whose pages add to the RSS
        sizes = np.where(top > numerics.TRIM_THRESHOLD * scale[:, None],
                         np.arange(1, a.shape[1] + 1), 0).max(axis=1)
        for i, row, n in zip(index, a, sizes.tolist()):
            out[i] = row[:n]
    return out


def roots(ps):
    """Roots of each of ps, sorted by distance from its center (ties by
    (Re, Im)), those of one effective degree solved as one stack.  The trim
    (effective_stack), the solve (numerics.polynomial_roots) and the order
    (numerics.nearest_first) are array passes over stacks."""
    coeffs = effective_stack(ps)
    if any(c.size < 2 for c in coeffs):
        raise ConstantPolynomial("polynomial has effective degree 0")
    return numerics.nearest_first(numerics.polynomial_roots(coeffs),
                                  [p.center for p in ps])
