"""Polynomials in the shifted monomial basis (z - z0)^j.

Coefficients are stored ascending, one row per power (row j multiplies
(z - z0)^j): a scalar per row for a denominator Q, a vector of mode
coefficients for a Taylor block or a numerator P.  Denominators live on the
unit coefficient sphere sum |a_j|^2 = 1; the reversed-index pairing used
when a denominator is assembled from an eigenvector is confined to
``denominator_from_eigvec``.
"""

import numpy as np

from . import numerics
from .errors import ConstantPolynomial, NotNormalized, ZeroPolynomial

TRIM_THRESHOLD = 1e-13


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


def evaluate_points(p, points):
    """Horner evaluation in powers of (z - center) at each of a list of
    Python complex points, on Python complex numbers (bit-identical to
    Horner on NumPy complex scalars): a list of complex values.  One Horner
    step runs over all the points at a time, each point taking the same
    operations in the same order as alone."""
    center = p.center
    dz = [z - center for z in points]
    acc = [0j] * len(dz)
    for a in p.coeffs[::-1].tolist():
        acc = [q * d + a for q, d in zip(acc, dz)]
    return acc


def evaluate(p, z):
    """evaluate_points at the one point z."""
    return evaluate_points(p, [complex(z)])[0]


def denominator_from_eigvec(q, z0):
    """Map a unit eigenvector to the denominator Q = sum_j q_j (z - z0)^{N-j}.

    The eigenvector pairs q_j with the descending power (z - z0)^{N-j}, so
    the ascending storage reads a_{N-j} = q_j.
    """
    q = np.asarray(q, dtype=complex)
    if not abs(np.linalg.norm(q) - 1.0) <= 1e-12:  # a nan norm fails too
        raise NotNormalized(f"eigenvector norm {np.linalg.norm(q):.15e} != 1")
    return ShiftedPolynomial(z0, q[::-1].copy())


def effective_coeffs(p):
    """Trim trailing coefficients below 1e-13 of the max magnitude.

    Returns (coeffs, trimmed flag).  A vanishing leading coefficient means
    fewer poles in range, which is a legitimate outcome, not an error.
    """
    c = p.coeffs
    scale = np.max(np.abs(c))
    if scale <= 1e-300:
        raise ZeroPolynomial("zero polynomial has no well-defined degree")
    keep = np.nonzero(np.abs(c) > TRIM_THRESHOLD * scale)[0]
    last = keep[-1]
    return c[: last + 1], last < c.size - 1


def roots(p):
    """Roots of p, sorted by distance from the center (ties by (Re, Im))."""
    c, _ = effective_coeffs(p)
    if c.size < 2:
        raise ConstantPolynomial("polynomial has effective degree 0")
    raw = numerics.polynomial_roots(c)
    shifted = [r + p.center for r in raw]
    return sorted(shifted, key=lambda r: (abs(r - p.center), r.real, r.imag))
