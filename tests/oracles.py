"""Reference routines the tests compare the package against."""

import math

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


def numpy_horner(p, z):
    """Horner evaluation of a ShiftedPolynomial on NumPy complex scalars."""
    dz = complex(z) - p.center
    acc = 0.0 + 0.0j
    for a in p.coeffs[::-1]:
        acc = acc * dz + a
    return complex(acc)


def point_errors(model, approx, points, near_distance=1e-6):
    """(error, |Q|, near-pole flag) per point, one point at a time: the
    harness error loop before grid evaluation, with the scalar arithmetic
    of its callees (approximant, exact map, V-norm) written out."""
    out = []
    for z in points:
        z = complex(z)
        qz = numpy_horner(approx.denominator, z)
        dz = z - approx.numerator.center
        pz = np.zeros(approx.numerator.coeffs.shape[1], dtype=complex)
        for row in approx.numerator.coeffs[::-1]:
            pz = pz * dz + row
        with np.errstate(divide="ignore", invalid="ignore"):
            value = pz / qz
        dist = modal.nearest_pole(model, z)[1]
        if dist <= 1e-12:
            error = math.inf
        else:
            diff = model.coefficients / (model.eigenvalues - z) - value
            error = float(np.sqrt(np.sum(model.weights.weights * np.abs(diff) ** 2)))
        out.append((error, abs(qz), dist < near_distance))
    return out
