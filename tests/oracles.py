"""Reference routines the tests compare the package against."""

import numpy as np

from pademor import modal, numerics, poly
from pademor.errors import ZeroPolynomial


def normalize(p):
    """Scale to the unit coefficient sphere and fix the global phase.

    The largest-magnitude coefficient becomes real positive (lowest index
    on ties).  Idempotent: an already normalized polynomial is returned
    unchanged so repeated calls are bitwise stable.
    """
    mags = np.abs(p.coeffs)
    if np.max(mags) <= 1e-300:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    k = int(np.argmax(mags))
    pivot = p.coeffs[k]
    nrm = np.linalg.norm(p.coeffs)
    if pivot.imag == 0.0 and pivot.real > 0.0 and abs(nrm - 1.0) <= 4 * np.finfo(float).eps:
        return p
    c = numerics.phase_fix(p.coeffs)
    c = c / np.linalg.norm(c)
    return poly.ShiftedPolynomial(p.center, c)


def recursive_taylor(model, z0, E):
    """Taylor coefficients by the shifted-solve recursion: S_0 exactly, then
    each next order divides the previous one by (eigenvalue - z0)."""
    z0 = complex(z0)
    base = model.eigenvalues - z0
    rows = [model.coefficients / base]
    for _ in range(E):
        rows.append(rows[-1] / base)
    return modal.TaylorSeries(z0, np.array(rows))
