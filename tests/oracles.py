"""Reference routines the tests compare the package against."""

import json
import math
from fractions import Fraction

import numpy as np

from pademor import hilbert, modal, numerics, pade, poly
from pademor.errors import NoConvergence, ZeroPolynomial


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


def horner_magnitude(p, z):
    """sum_a |p_a| |z - center|^a at each point z: a row per point for a
    vector polynomial."""
    return poly.ShiftedPolynomial(0.0, np.abs(p.coeffs))(np.abs(z - p.center)).real


def exact_value(coeffs, center, z):
    """The polynomial of ascending float coefficients in powers of
    (z - center) at the float point z, exactly, as an (re, im) pair of
    Fractions: the coefficients, the center and the point are dyadic
    rationals, and Horner runs on (re, im) pairs of Fractions."""
    z, center = complex(z), complex(center)
    dr = Fraction(z.real) - Fraction(center.real)
    di = Fraction(z.imag) - Fraction(center.imag)
    re = im = Fraction(0)
    for a in np.asarray(coeffs, dtype=complex)[::-1].tolist():
        re, im = re * dr - im * di + Fraction(a.real), re * di + im * dr + Fraction(a.imag)
    return re, im


def exact_abs2(p, z):
    """|p(z)|^2 of a scalar polynomial, exactly, as a Fraction."""
    re, im = exact_value(p.coeffs, p.center, z)
    return re * re + im * im


def exact_quotient(a, b):
    """a / b of two (re, im) pairs of Fractions, exactly: a conj(b) / |b|^2."""
    (ar, ai), (br, bi) = a, b
    b2 = br * br + bi * bi
    return (ar * br + ai * bi) / b2, (ai * br - ar * bi) / b2


def exact_error2(model, approx, z):
    """sum_k w_k |S_k(z) - P_k(z)/Q(z)|^2 at the float point z, exactly, as
    a Fraction: P and Q the approximant's float polynomials, and S_k(z) =
    c_k / (lambda_k - z) of the model's float source coefficients,
    eigenvalues and weights, 0 for a mode whose coefficient is 0."""
    z = complex(z)
    Q, P = approx.denominator, approx.numerator
    q = exact_value(Q.coeffs, Q.center, z)
    total = Fraction(0)
    for k, (c, lam, w) in enumerate(zip(model.coefficients.tolist(),
                                        model.eigenvalues.tolist(),
                                        model.weights.weights.tolist())):
        s = (Fraction(0), Fraction(0))
        if c != 0:
            d = (Fraction(lam.real) - Fraction(z.real), Fraction(lam.imag) - Fraction(z.imag))
            s = exact_quotient((Fraction(c.real), Fraction(c.imag)), d)
        v = exact_quotient(exact_value(P.coeffs[:, k], P.center, z), q)
        er, ei = s[0] - v[0], s[1] - v[1]
        total += Fraction(w) * (er * er + ei * ei)
    return total


def pairs(z):
    """[re, im] in place of each complex entry, as nested lists of floats."""
    z = np.asarray(z, dtype=complex)
    return np.stack((z.real, z.imag), -1).tolist()


def approximant_line(approx):
    """An approximant's build-artifact line by a route independent of the
    package's encoder: [re, im] lists built here, a non-finite diagnostic
    as None, json.dumps with keys sorted.  Equal in value to
    hilbert.json_text(pade.approximant_to_json(approx)), not in spelling
    (json.dumps puts spaces after ',' and ':')."""
    den = approx.denominator
    diagnostics = {key: None if isinstance(v, float) and not math.isfinite(v) else v
                   for key, v in approx.diagnostics._asdict().items()}
    return json.dumps({
        "params": {**approx.params._asdict(), "z0": pairs(approx.params.z0)},
        "denominator": {"center": pairs(den.center), "coeffs": pairs(den.coeffs)},
        "diagnostics": diagnostics,
        "numerator": pairs(approx.numerator.coeffs),
    }, sort_keys=True)


def model_object(model):
    """A model file's object by a route independent of the package's
    encoder: [re, im] lists built here, the weights as a list of floats."""
    return {"eigenvalues": pairs(model.eigenvalues),
            "coefficients": pairs(model.coefficients),
            "weights": model.weights.weights.tolist()}


def gauss_rule(order):
    """The order-point Gauss-Legendre rule mapped to (0, pi), as
    modal.build_rectangle_helmholtz maps it."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    return 0.5 * np.pi * (nodes + 1.0), 0.5 * np.pi * wts


def doubled_order_converged(max_index, nu_sq, theta, quad_order):
    """The quadrature check that modal.build_rectangle_helmholtz replaced:
    the coefficients from the quad_order-point rule must agree, to 1e-10 of
    the largest, with those from the rule of order 2 quad_order."""
    coef, check = (
        modal._helmholtz_coefficients(max_index, nu_sq, theta, *gauss_rule(order))
        for order in (quad_order, 2 * quad_order)
    )
    return bool(np.max(np.abs(coef - check)) <= 1e-10 * np.max(np.abs(check)))


def recursive_taylor(model, z0, E):
    """Taylor coefficients by the shifted-solve recursion: S_0 exactly, then
    each next order divides the previous one by (eigenvalue - z0)."""
    z0 = complex(z0)
    base = model.eigenvalues - z0
    rows = [model.coefficients / base]
    for _ in range(E):
        rows.append(rows[-1] / base)
    return poly.ShiftedPolynomial(z0, np.array(rows))


def numpy_horner(p, z):
    """Horner evaluation of a ShiftedPolynomial on NumPy complex scalars."""
    dz = complex(z) - p.center
    acc = 0.0 + 0.0j
    for a in p.coeffs[::-1]:
        acc = acc * dz + a
    return complex(acc)


def list_horner(p, points):
    """Horner of a scalar polynomial at each of a list of points on Python
    complex numbers, one step over all the points at a time: the list
    Horner that poly.evaluate_stack replaced."""
    center = p.center
    dz = [complex(z) - center for z in points]
    acc = [0j] * len(dz)
    for a in p.coeffs[::-1].tolist():
        acc = [q * d + a for q, d in zip(acc, dz)]
    return acc


def approximant_errors(model, approx, points, rows):
    """Error norms and |Q| of one approximant at the points, as lists of
    floats, computed as the harness did one approximant at a time before
    it evaluated every approximant of a command as one stack: Q by
    list_horner, P by ShiftedPolynomial.__call__, one hilbert.norm; rows
    is S at the points (modal.evaluate_exact_grid)."""
    points = np.asarray(points, dtype=complex)
    qz = np.array(list_horner(approx.denominator, points.tolist()), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = approx.numerator(points) / qz[:, None]
        qmag = np.hypot(qz.real, qz.imag)
        errors = hilbert.norm(rows - values, model.weights)
    errors[~np.isfinite(values).all(axis=1)] = math.inf
    return errors.tolist(), qmag.tolist()


def copying_horner(p, z):
    """ShiftedPolynomial.__call__ with a new array per Horner step,
    acc = acc * dz + row, where the package updates acc in place."""
    dz = np.asarray(z, dtype=complex) - p.center
    acc = np.zeros(dz.shape + p.coeffs.shape[1:], dtype=complex)
    dz = dz.reshape(dz.shape + (1,) * (p.coeffs.ndim - 1))
    for row in p.coeffs[::-1]:
        acc = acc * dz + row
    return acc


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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            value = pz / qz
        dist = modal.nearest_pole(model, z)[1]
        if dist <= 1e-12 or not np.isfinite(value).all():
            error = math.inf
        else:
            diff = model.coefficients / (model.eigenvalues - z) - value
            error = float(np.sqrt(np.sum(model.weights.weights * np.abs(diff) ** 2)))
        out.append((error, abs(qz), dist < near_distance))
    return out


def modal_error(model, approx, points):
    """V-norm error of approx at each of a 1-d array of points by the modal
    error identity.  P being the truncation of Q S to degree M >= N - 1,
    mode k of the error is

        (S - P/Q)_k(z) = c_k Q(lambda_k) / (Q(z) (lambda_k - z))
                         * ((z - z0) / (lambda_k - z0))^(M+1),

    c_k the source coefficient and lambda_k the eigenvalue: Q at the points
    and at the eigenvalues, and no P(z), S(z) or subtraction."""
    Q = approx.denominator
    M = approx.numerator.degree
    if M < Q.degree - 1:
        raise ValueError(f"the identity needs M >= N - 1, not M = {M}, N = {Q.degree}")
    z = np.asarray(points, dtype=complex)[:, None]
    lam = model.eigenvalues
    terms = (model.coefficients * Q(lam) / (Q(z) * (lam - z))
             * ((z - Q.center) / (lam - Q.center)) ** (M + 1))
    return hilbert.norm(terms, model.weights)


def residual_norm(model, approx, z):
    """V-norm of the residual H(z) = Q(z) S(z) - P(z)."""
    s = modal.evaluate_exact(model, z)
    qz = poly.evaluate(approx.denominator, z)
    pz = approx.numerator(z)
    return hilbert.norm(qz * s - pz, model.weights)


def inner_product(u, v, w):
    """<u, v> = sum_k w_k u_k conj(v_k); conjugate-linear in v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    hilbert._check_dims(w, u, v)
    return complex(np.sum(w.weights * u * np.conj(v)))


def loop_numerator(taylor, Q, M):
    """Numerator coefficients by the double loop over orders and terms that
    pade.numerator replaced."""
    a = Q.coeffs
    rows = np.zeros((M + 1, taylor.coeffs.shape[1]), dtype=complex)
    for alpha in range(M + 1):
        for l in range(min(alpha, a.size - 1) + 1):
            rows[alpha] += a[l] * taylor.coeffs[alpha - l]
    return poly.ShiftedPolynomial(taylor.center, rows)


def column_mgs(A, w):
    """Weighted modified Gram-Schmidt with one reorthogonalization pass,
    basis as columns and one inner_product call per projection, on one
    quasimatrix: the loop that hilbert.gram_schmidt runs on a stack of
    them.  Returns R."""
    ncols = A.shape[1]
    Q = np.zeros_like(A)
    R = np.zeros((ncols, ncols), dtype=complex)
    first_norm = float(np.sqrt(inner_product(A[:, 0], A[:, 0], w).real))
    for j in range(ncols):
        v = A[:, j].copy()
        for _ in range(2):
            for i in range(j):
                c = inner_product(v, Q[:, i], w)
                R[i, j] += c
                v = v - c * Q[:, i]
        rjj = float(np.sqrt(max(inner_product(v, v, w).real, 0.0)))
        R[j, j] = rjj
        if rjj > pade.QR_DEGENERACY_THRESHOLD * max(first_norm, 1e-300):
            Q[:, j] = v / rjj
    return R


def loop_jacobi(H):
    """Cyclic complex Jacobi with separate A and V arrays, copied columns and
    rows and NumPy scalar algebra: the loop numerics.hermitian_eigensystem
    replaced.  Returns (values, vectors) in the same order, the vectors as
    the rotations leave them; a matrix of order 1 or a zero matrix returns
    the identity without a sweep."""
    A, scale = numerics._check_hermitian(H)
    n = A.shape[0]
    V = np.eye(n, dtype=complex)
    if n == 1 or scale == 0.0:
        return A.real.diagonal().copy(), V

    target = 0.1 * numerics.EIGEN_TOL * scale
    skip = np.finfo(float).eps * scale / n
    mask = ~np.eye(n, dtype=bool)
    for sweep in range(numerics.MAX_JACOBI_SWEEPS + 1):
        off = np.linalg.norm(A[mask])
        if off <= target:
            break
        if sweep == numerics.MAX_JACOBI_SWEEPS:
            raise NoConvergence(
                f"Jacobi sweeps exceeded {numerics.MAX_JACOBI_SWEEPS} without "
                f"reaching off-diagonal target {target:.3e}"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                h = A[p, q]
                ah = abs(h)
                if ah <= skip:
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    continue
                u = h / ah
                tau = (A[q, q].real - A[p, p].real) / (2.0 * ah)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                Ap = A[:, p].copy()
                Aq = A[:, q].copy()
                A[:, p] = c * Ap - s * np.conj(u) * Aq
                A[:, q] = s * u * Ap + c * Aq
                Rp = A[p, :].copy()
                Rq = A[q, :].copy()
                A[p, :] = c * Rp - s * u * Rq
                A[q, :] = s * np.conj(u) * Rp + c * Rq
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                Vp = V[:, p].copy()
                Vq = V[:, q].copy()
                V[:, p] = c * Vp - s * np.conj(u) * Vq
                V[:, q] = s * u * Vp + c * Vq

    vals = A.real.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]
