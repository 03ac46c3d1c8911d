"""Meromorphic solution-map backends.

A modal model is the spectral data of a normal operator with compact
resolvent and of the source term over an orthogonal eigenbasis: three
arrays, one eigenvalue, one source coefficient and one inner-product weight
per mode.  The exact spectral Helmholtz backend on (0, pi)^2 and synthetic
pole/residue fixtures both reduce to this form, so evaluation, Taylor
expansion and pole listing are shared.  Its JSON object (model_to_json)
holds the same three arrays and nothing else.  The Helmholtz backend
integrates its source by a Gauss-Legendre rule computed here
(_gauss_legendre), on the float operations of numpy.polynomial's, which
the package does not import; the last GAUSS_RULES_KEPT rules are kept as
read-only arrays.
"""

import functools

import numpy as np

from .errors import (
    CenterOnPole,
    DuplicatePoles,
    EigenvalueTooLarge,
    LengthMismatch,
    NonFiniteValue,
    PoleEvaluation,
    QuadratureNotConverged,
)
from .hilbert import (InnerProductWeights, _finite_array, _known_keys, _pairs_to_array, _rescued,
                      norm)
from .poly import ShiftedPolynomial

POLE_GROUP_TOL = 1e-12
POLE_SEPARATION = 1e-10  # synthetic poles closer than this coincide
POLE_EVAL_TOL = 1e-12  # S is not evaluated this close to a retained pole
CENTER_DISTANCE = 1e-10  # an expansion center this close to a pole lies on it
DROP_THRESHOLD = 1e-14  # relative to ||source||, below which a pole is dropped
DEFAULT_MAX_INDEX = 40
DEFAULT_QUAD_ORDER = 64
GAUSS_RULES_KEPT = 8
# Parts below this bound keep every difference of two points and its modulus
# finite: |a - b| < 2^1022 * sqrt(2).
COORDINATE_LIMIT = 2.0**1021


class ModalModel:
    """Eigenvalues and source coefficients, one entry per mode, in the
    inner product given by weights; the retained poles and their residue
    norms (_retained_poles) are computed once, here."""

    __slots__ = ("eigenvalues", "coefficients", "weights", "poles", "residue_norms")

    def __init__(self, eigenvalues, coefficients, weights):
        lam = np.ascontiguousarray(eigenvalues, dtype=complex)
        coef = np.asarray(coefficients, dtype=complex)
        if not (np.isfinite(lam).all() and np.isfinite(coef).all()):
            raise NonFiniteValue("an eigenvalue or a coefficient is not finite")
        if np.any(abs(lam.view(float)) >= COORDINATE_LIMIT):
            raise EigenvalueTooLarge("an eigenvalue has a part of magnitude >= 2^1021")
        if coef.shape != lam.shape or lam.shape != weights.weights.shape:
            raise LengthMismatch(
                f"{lam.size} eigenvalues, {coef.size} coefficients, "
                f"{weights.weights.size} weights"
            )
        self.eigenvalues, self.coefficients, self.weights = lam, coef, weights
        self.poles, self.residue_norms = _retained_poles(self)

    @property
    def dimension(self):
        return self.eigenvalues.size

    def source_norm(self):
        """V-norm of the source term."""
        return norm(self.coefficients, self.weights)


def _close_pairs(points, tol):
    """The pairs (i, j), i < j, of the complex points within tol of each
    other by Python's abs, each pair compared once."""
    return [(i, j) for j in range(len(points)) for i in range(j)
            if abs(points[i] - points[j]) <= tol]


def build_synthetic(poles, residue_norms):
    """One-mode-per-pole fixture with real residue magnitudes and L2 weights."""
    poles = [complex(p) for p in poles]
    norms = [float(r) for r in residue_norms]
    # built first: it rejects a pole whose differences could overflow below,
    # and residue norms that are not one per pole (LengthMismatch)
    model = ModalModel(poles, norms, InnerProductWeights.l2(len(poles)))
    if pairs := _close_pairs(poles, POLE_SEPARATION):
        i, j = min(pairs)
        raise DuplicatePoles(f"poles {poles[i]} and {poles[j]} coincide")
    if any(r <= 0.0 for r in norms):
        raise ValueError("residue norms must be positive")
    return model


def _legendre_series(x, c):
    """sum_j c[j] P_j(x) by Legendre's Clenshaw recursion, len(c) >= 2, with
    the float operations of numpy.polynomial.legendre.legval; each c[j] a
    number, or an array whose trailing axis broadcasts against x."""
    c0, c1, nd = c[-2], c[-1], len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=GAUSS_RULES_KEPT)
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on (-1, 1),
    n >= 2, by the float operations of numpy.polynomial.legendre.leggauss
    in the same order, so bit-identical to it: the eigenvalues of the
    symmetric companion matrix of P_n, one Newton step, weights from P_n'
    at the first nodes and P_{n-1} at the new ones, symmetrised and scaled
    to sum to 2.

    Computed once per order: every caller gets the same two arrays, read
    only over immutable bytes, so no caller can change what the next one
    gets.  An exception, such as a MemoryError, is not memoized."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    pn = [0.0] * n + [1.0]
    dpn = [0.0] * n
    for j in range(n, 0, -2):
        dpn[j - 1] = 2.0 * j - 1.0
    dy, df = _legendre_series(x, np.array([pn, dpn + [0.0]]).T[..., None])
    x -= dy / df
    fm = _legendre_series(x, pn[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return np.frombuffer(x.tobytes()), np.frombuffer(w.tobytes())


def _bubble_line_integrals(sines, freq, x, w):
    """1-d integrals of x (pi - x) e^{-i freq x} sin(k x) over (0, pi), by
    the rule with nodes x and weights w, from the rows sines = sin(k x)."""
    g = x * (np.pi - x) * np.exp(-1j * freq * x)
    return sines @ (w * g)


def _helmholtz_coefficients(max_index, nu_sq, theta, x, w):
    """L2-projection coefficients of f = -lap(u_ex) - nu^2 u_ex onto the
    normalized eigenfunctions (2/pi) sin(mx) sin(ny), by the quadrature
    rule with nodes x and weights w on (0, pi).

    The exact solution u_ex is the bubble 16/pi^4 x1 x2 (pi-x1) (pi-x2)
    times the plane-wave factor; since u_ex and the eigenfunctions vanish
    on the boundary, Green's identity turns the projection of f into
    (m^2 + n^2 - nu^2) times the projection of u_ex, which factorizes into
    tensor 1-d quadratures.
    """
    nu = np.sqrt(nu_sq)
    k = np.arange(1, max_index + 1)
    sines = np.sin(np.outer(k, x))
    ix = _bubble_line_integrals(sines, nu * np.cos(theta), x, w)
    iy = _bubble_line_integrals(sines, nu * np.sin(theta), x, w)
    proj = (2.0 / np.pi) * (16.0 / np.pi**4) * np.outer(ix, iy)
    lam = (k**2)[:, None] + (k**2)[None, :]
    return (lam - nu_sq) * proj  # indexed [m-1, n-1]


def build_rectangle_helmholtz(
    max_index=DEFAULT_MAX_INDEX,
    nu_sq=12.0,
    theta=np.pi / 3,
    quad_order=DEFAULT_QUAD_ORDER,
):
    """Exact spectral Helmholtz model on (0, pi)^2 with Dirichlet boundary.

    Modes are (m, n) with 1 <= m, n <= max_index and eigenvalue m^2 + n^2,
    in row-major order: mode k is (k // max_index + 1, k % max_index + 1).
    The inner product is the energy one with shift nu_sq.

    The coefficients come from the quad_order-point Gauss-Legendre rule on
    (0, pi), by _gauss_legendre.  They are validated once at build time
    against the same rule applied on each half, (0, pi/2) and (pi/2, pi):
    QuadratureNotConverged unless the two agree to 1e-10 of the largest
    coefficient.
    """
    if max_index < 4:
        raise ValueError("max_index must be >= 4")
    if quad_order < 20:
        raise ValueError("quad_order must be >= 20")
    if not 0.0 < nu_sq < np.inf:
        raise ValueError("nu_sq must be positive and finite")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")

    nodes, wts = _gauss_legendre(quad_order)
    x = 0.5 * np.pi * (nodes + 1.0)
    w = 0.5 * np.pi * wts
    coef = _helmholtz_coefficients(max_index, nu_sq, theta, x, w)
    # the same rule on (0, pi/2) and on (pi/2, pi)
    half_x = np.concatenate([0.5 * x, 0.5 * x + 0.5 * np.pi])
    half_w = np.concatenate([0.5 * w, 0.5 * w])
    check = _helmholtz_coefficients(max_index, nu_sq, theta, half_x, half_w)
    scale = np.max(np.abs(check))
    dev = np.max(np.abs(coef - check))
    if dev > 1e-10 * scale:
        raise QuadratureNotConverged(
            f"coefficients move by {dev / scale:.3e} (relative) when the "
            f"{quad_order}-point rule is applied on each half of (0, pi)"
        )

    m, n = np.indices((max_index, max_index)).reshape(2, -1) + 1
    eigenvalues = m * m + n * n
    weights = InnerProductWeights.energy(eigenvalues, nu_sq)
    return ModalModel(eigenvalues, coef.ravel(), weights)


def _retained_poles(model):
    """Distinct poles sorted by (Re, Im) and the V-norms of their residues.

    Eigenvalues within 1e-12 of the first of a group are one pole; a pole
    is kept if its residue norm exceeds DROP_THRESHOLD * ||source||.
    """
    order = np.lexsort((model.eigenvalues.imag, model.eigenvalues.real))
    lam, coef = model.eigenvalues[order], model.coefficients[order]
    weights = model.weights.weights[order]
    values = lam.tolist()
    starts, first = [0], values[0]
    for k, value in enumerate(values):
        if abs(value - first) > POLE_GROUP_TOL:
            starts.append(k)
            first = value
    # reduceat warns where a group of finite masses overflows only in its sum
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(weights * np.abs(coef) ** 2, starts)
    norms = np.sqrt(sums)
    # a group whose sum hilbert.norm would rescue takes its scaled sum
    bounds = starts + [lam.size]
    for i in _rescued(sums):
        group = slice(bounds[i], bounds[i + 1])
        norms[i] = norm(coef[group], InnerProductWeights(weights[group]))
    keep = norms > DROP_THRESHOLD * model.source_norm()
    return lam[starts][keep], norms[keep]


def pole_list(model, z0):
    """The retained poles as a list of complex numbers sorted by distance
    from z0; ties break by (Re, Im), the order of model.poles, as the sort
    is stable.  Their residue norms are model.residue_norms."""
    order = np.argsort(np.abs(model.poles - complex(z0)), kind="stable")
    return model.poles[order].tolist()


def _nearest_pole(model, z):
    """(pole, distance) of the retained pole nearest to z, ties broken by
    (Re, Im); (None, inf) if the model retains no pole."""
    if model.poles.size == 0:
        return None, np.inf
    dist = np.abs(model.poles - complex(z))
    k = int(np.argmin(dist))
    return complex(model.poles[k]), float(dist[k])


def _source_over(model, denominators):
    """source_coefficient / denominator per mode, broadcast over leading
    axes.  A mode whose coefficient is exactly 0 gives exactly 0, with no
    0/0 where its denominator vanishes: S is analytic at its eigenvalue."""
    coef = model.coefficients
    out = np.zeros(np.broadcast_shapes(coef.shape, denominators.shape), dtype=complex)
    return np.divide(coef, denominators, out=out, where=coef != 0)


def evaluate_exact(model, z):
    """S(z): componentwise source_coefficient / (eigenvalue - z), the row
    of evaluate_exact_grid at z; PoleEvaluation within 1e-12 of a retained
    pole."""
    z = complex(z)
    lam, dist = _nearest_pole(model, z)
    if dist <= POLE_EVAL_TOL:
        raise PoleEvaluation(f"point {z} lies within 1e-12 of pole {lam}", pole=lam)
    return evaluate_exact_grid(model, [z])[0][0]


def evaluate_exact_grid(model, points):
    """S at each of a 1-d array of points as the rows of an (n, dimension)
    array, and each point's distance to a pole of S: to its nearest retained
    pole, or 0 where its row is not finite, as on a dropped pole.  A row
    within 1e-12 of a pole, where evaluate_exact raises PoleEvaluation, is
    inf."""
    points = np.asarray(points, dtype=complex)
    dist = np.abs(model.poles - points[:, None]).min(axis=1, initial=np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = _source_over(model, model.eigenvalues - points[:, None])
    rows[dist <= POLE_EVAL_TOL] = np.inf
    dist[~np.isfinite(rows).all(axis=1)] = 0.0
    return rows, dist


def taylor_coefficients(model, z0, E):
    """The Taylor polynomial of S at z0 to order E, one row of mode
    coefficients per order.  Closed form: component k of order g is
    source_coefficient_k / (eigenvalue_k - z0)^{g+1}, exactly 0 for a mode
    whose coefficient is 0.

    Where the power overflows, the coefficient is the zero it rounds to.  A
    coefficient that is itself not finite, the center being too close to an
    eigenvalue for the order, raises CenterOnPole; a center that is not
    finite raises NonFiniteValue.
    """
    z0 = complex(z0)
    if not np.isfinite(z0):
        raise NonFiniteValue(f"Taylor center {z0} is not finite")
    lam, dist = _nearest_pole(model, z0)
    if dist <= CENTER_DISTANCE:
        raise CenterOnPole(f"point {z0} lies within {CENTER_DISTANCE:g} of pole {lam}")
    base = model.eigenvalues - z0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        powers = base[None, :] ** np.arange(1, E + 2)[:, None]
        coeffs = _source_over(model, powers)
    coeffs[~np.isfinite(powers)] = 0.0
    bad = np.argwhere(~np.isfinite(coeffs))
    if bad.size:
        g, k = bad[0]
        raise CenterOnPole(
            f"point {z0} lies {abs(base[k]):.3e} from eigenvalue "
            f"{model.eigenvalues[k]}: its Taylor coefficient of order {g} is not finite"
        )
    return ShiftedPolynomial(z0, coeffs)


def model_to_json(model):
    """{"eigenvalues": pairs, "coefficients": pairs, "weights": floats} as
    hilbert._finite_array views (NonFiniteValue on a non-finite entry)."""
    arrays = {"eigenvalues": model.eigenvalues, "coefficients": model.coefficients,
              "weights": model.weights.weights}
    return {key: _finite_array(a, f"model {key}") for key, a in arrays.items()}


def model_from_json(obj):
    """The model of model_to_json's object, checked by hilbert's rule for
    the JSON objects the package reads: ValueError ("at $...: ...") if obj
    is not a JSON object or its keys are not the three arrays', and the
    typed errors of InnerProductWeights, ModalModel and
    hilbert._pairs_to_array on the arrays."""
    keys = ("eigenvalues", "coefficients", "weights")
    _known_keys(obj, "$", keys, required=keys)
    return ModalModel(
        _pairs_to_array(obj["eigenvalues"]),
        _pairs_to_array(obj["coefficients"]),
        InnerProductWeights(obj["weights"]),
    )
