"""Polynomials in the shifted monomial basis (z - z0)^j.

Coefficients are stored ascending, one row per power (row j multiplies
(z - z0)^j): a scalar per row for a denominator Q, a vector of mode
coefficients for a Taylor block or a numerator P.  Denominators live on the
unit coefficient sphere sum |a_j|^2 = 1.

The module also holds the Gauss-Legendre rule, on the float operations of
numpy.polynomial's, which the package does not import.  In modal, its one
caller, the rule would take that module past its 2,048-token block
(tests/test_token_blocks.py).
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


def _legendre_series(x, c):
    """sum_j c[j] P_j(x) by Legendre's Clenshaw recursion, len(c) >= 2, with
    the float operations of numpy.polynomial.legendre.legval; each c[j] a
    number, or an array whose trailing axis broadcasts against x."""
    c0, c1, nd = c[-2], c[-1], len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on (-1, 1),
    n >= 2, by the float operations of numpy.polynomial.legendre.leggauss
    in the same order, so bit-identical to it: the eigenvalues of the
    symmetric companion matrix of P_n, one Newton step, weights from P_n'
    at the first nodes and P_{n-1} at the new ones, symmetrised and scaled
    to sum to 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    pn = [0.0] * n + [1.0]
    dpn = [0.0] * n  # P_n' = sum of (2j - 1) P_{j-1} over j = n, n - 2, ...
    for j in range(n, 0, -2):
        dpn[j - 1] = 2.0 * j - 1.0
    # P_n and P_n' in one recursion: a trailing zero coefficient adds one
    # step that leaves P_n' as it is
    dy, df = _legendre_series(x, np.array([pn, dpn + [0.0]]).T[..., None])
    x -= dy / df
    fm = _legendre_series(x, pn[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w
