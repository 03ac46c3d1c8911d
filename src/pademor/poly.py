"""Scalar polynomials in the shifted monomial basis (z - z0)^j.

Coefficients are stored ascending (a_j multiplies (z - z0)^j).  Denominators
live on the unit coefficient sphere sum |a_j|^2 = 1; the reversed-index
pairing used when a denominator is assembled from an eigenvector is confined
to ``denominator_from_eigvec``.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConstantPolynomial, NotNormalized, ZeroPolynomial

TRIM_THRESHOLD = 1e-13


@dataclass(frozen=True)
class ShiftedPolynomial:
    center: complex
    coeffs: np.ndarray  # ascending in powers of (z - center)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "center", complex(self.center))

    @property
    def degree(self):
        return self.coeffs.size - 1


def evaluate(p, z):
    """Horner evaluation in powers of (z - center), on Python complex
    numbers (bit-identical to Horner on NumPy complex scalars)."""
    dz = complex(z) - p.center
    acc = 0j
    for a in p.coeffs[::-1].tolist():
        acc = acc * dz + a
    return acc


def denominator_from_eigvec(q, z0):
    """Map a unit eigenvector to the denominator Q = sum_j q_j (z - z0)^{N-j}.

    The eigenvector pairs q_j with the descending power (z - z0)^{N-j}, so
    the ascending storage reads a_{N-j} = q_j.
    """
    q = np.asarray(q, dtype=complex)
    if abs(np.linalg.norm(q) - 1.0) > 1e-12:
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


def roots(p, tol=1e-10):
    """Roots of p, sorted by distance from the center (ties by (Re, Im))."""
    c, _ = effective_coeffs(p)
    if c.size < 2:
        raise ConstantPolynomial("polynomial has effective degree 0")
    raw = numerics.polynomial_roots(c, tol)
    shifted = [r + p.center for r in raw]
    return sorted(shifted, key=lambda r: (abs(r - p.center), r.real, r.imag))


def poly_to_json(p):
    return {
        "center": [p.center.real, p.center.imag],
        "coeffs": [[a.real, a.imag] for a in p.coeffs],
    }


def poly_from_json(obj):
    center = complex(obj["center"][0], obj["center"][1])
    coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]], dtype=complex)
    return ShiftedPolynomial(center, coeffs)
