"""Polynomials in the shifted monomial basis (z - z0)^j.

Coefficients are stored ascending, one row per power (row j multiplies
(z - z0)^j): a scalar per row for a denominator Q, a vector of mode
coefficients for a Taylor block or a numerator P.  Denominators live on the
unit coefficient sphere sum |a_j|^2 = 1.

Polynomials are evaluated by Horner, a stack at a time: scalar ones of one
degree by evaluate_stack, rounded as Python's complex arithmetic rounds
(evaluate is a stack of one at one point), and vector ones by
call_stack, rounded as NumPy's complex arrays round
(ShiftedPolynomial.__call__), each value bit-identical to its
polynomial's evaluated alone.
"""

import numpy as np

from . import numerics
from .errors import ConstantPolynomial, NonFiniteValue, PadeError, ZeroPolynomial, settled


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
        dz = np.asarray(z, dtype=complex) - self.center
        acc = np.zeros(dz.shape + self.coeffs.shape[1:], dtype=complex)
        dz = dz.reshape(dz.shape + (1,) * (self.coeffs.ndim - 1))
        for row in self.coeffs[::-1]:
            acc *= dz
            acc += row
        return acc


def evaluate_stack(ps, points):
    """Horner evaluation of each of a stack of scalar polynomials of one
    degree at each of a 1-d array of points: a (len(ps), n) complex array.

    The rounding contract: each value is rounded as Horner on Python
    complex numbers rounds it (acc = acc * (z - center) + a_j), bit for bit,
    signed zeros, inf and nan included.  Python's complex product rounds
    the four real products, then one difference and one sum, and the
    Horner step adds the coefficient after; NumPy's complex product fuses a
    product into the sum or difference (FMA) on hosts that have it, and
    which one depends on the operand order.  So the step runs on the real
    and imaginary parts as real arrays, each real operation a separate
    array operation, which NumPy rounds as IEEE does one float operation,
    whatever the length or layout of the arrays: every value gives the
    bytes it gives alone.
    """
    dz = np.asarray(points, dtype=complex) - np.array([[p.center] for p in ps])
    dr, di = dz.real, dz.imag
    re = im = np.zeros(dz.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in np.array([p.coeffs for p in ps]).T[::-1, :, None]:
            re, im = re * dr - im * di + a.real, re * di + im * dr + a.imag
    qz = re.astype(complex)
    qz.imag = im
    return qz


def call_stack(ps, points):
    """ShiftedPolynomial.__call__ of each of the vector polynomials ps along
    a 1-d array of points, one stack of polynomials of one coefficient
    shape and center at a time: yields the indices of a stack's
    polynomials in ps, in their order, and an (n, len(indices), dimension)
    array of their values, from one Horner pass on the coefficient rows
    of the stack side by side.  No warning is raised where a value
    overflows or is nan.

    Each value is bit-identical to its polynomial's called alone.  NumPy's
    complex product rounds as its array loop does (with FMA where the host
    has it), whatever the length and layout of the arrays, except an
    in-place product of one element, which it rounds as Python does: so a
    polynomial whose Horner steps at the points are each one product (one
    mode at one point) forms a stack of its own."""
    groups = {}
    for i, p in enumerate(ps):
        lone = p.coeffs[0].size * np.size(points) == 1
        # repr tells the signed zeros of a center apart
        groups.setdefault((p.coeffs.shape, repr(p.center), i if lone else -1), []).append(i)
    for index in groups.values():
        with np.errstate(over="ignore", invalid="ignore"):
            values = ShiftedPolynomial(ps[index[0]].center, np.stack(
                [ps[i].coeffs for i in index], axis=1))(points)
        yield index, values


def evaluate(p, z):
    """evaluate_stack of p alone at the one point z: a Python complex."""
    return evaluate_stack([p], [z])[0, 0].item()


def effective_coeffs(p):
    """The coefficients of p less the trailing ones at or below
    numerics.TRIM_THRESHOLD of the max magnitude.

    A vanishing leading coefficient means fewer poles in range, which is a
    legitimate outcome, not an error.  A non-finite coefficient raises
    NonFiniteValue.
    """
    c = p.coeffs
    if not np.isfinite(c).all():
        raise NonFiniteValue("polynomial coefficients have a non-finite entry")
    scale = np.max(np.abs(c))
    if scale <= 1e-300:
        raise ZeroPolynomial("zero polynomial has no well-defined degree")
    keep = np.nonzero(np.abs(c) > numerics.TRIM_THRESHOLD * scale)[0]
    return c[: keep[-1] + 1]


def roots(p):
    """Roots of p, sorted by distance from the center (ties by (Re, Im))."""
    return settled(roots_stack([p]))[0]


def roots_stack(ps):
    """roots of each of ps, those of one effective degree solved as one
    stack (numerics.polynomial_roots_stack): one outcome (errors.settled)
    per polynomial."""
    coeffs = []
    for p in ps:
        try:
            c = effective_coeffs(p)
            if c.size < 2:
                raise ConstantPolynomial("polynomial has effective degree 0")
        except PadeError as exc:
            c = exc
        coeffs.append(c)
    out = numerics.polynomial_roots_stack(coeffs)
    for i, (p, raw) in enumerate(zip(ps, out)):
        if not isinstance(raw, PadeError):
            shifted = [r + p.center for r in raw]
            out[i] = sorted(shifted, key=lambda r: (abs(r - p.center), r.real, r.imag))
    return out
