"""Reference routines the tests compare the package against."""

import json
import math
from fractions import Fraction

import numpy as np

from pademor import harness, hilbert, modal, numerics, pade, poly
from pademor.errors import (ConstantPolynomial, DegenerateLeadingCoefficient, DimensionMismatch,
                            InsufficientTaylorLength, NoConvergence, NonFiniteValue,
                            NonHermitianInput, NotNormalized, PadeError, RhoOverflow,
                            ZeroPolynomial)


def check_stack(stack, alones, same):
    """The failure rule of a stacked pass: stack() raises if and only if one
    of alones, each of its items solved alone, raises, and then an error
    (type and message) that one of them raises; otherwise stack() returns
    one result per item, and same(result, what the item gives alone)
    passes for each."""
    outcomes = []
    for alone in alones:
        try:
            outcomes.append(alone())
        except PadeError as exc:
            outcomes.append(exc)
    failures = {(type(x), str(x)) for x in outcomes if isinstance(x, PadeError)}
    try:
        got = stack()
    except PadeError as exc:
        assert (type(exc), str(exc)) in failures, (exc, failures)
        return
    assert not failures, failures
    assert len(got) == len(outcomes)
    for result, want in zip(got, outcomes):
        same(result, want)


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
    c = numerics._phase_fix(p.coeffs)
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
    hilbert.json_bytes(pade.approximant_to_json(approx)), not in spelling
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
    Horner that poly.evaluate replaced."""
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
    acc = acc * dz + row, where the package updates acc in place; a point
    is taken as a grid of one point, as NumPy scalars round apart."""
    z = np.asarray(z, dtype=complex)
    dz = z.reshape((-1,) + (1,) * (p.coeffs.ndim - 1)) - p.center
    acc = np.zeros(dz.shape[:1] + p.coeffs.shape[1:], dtype=complex)
    for row in p.coeffs[::-1]:
        acc = acc * dz + row
    return acc.reshape(z.shape + p.coeffs.shape[1:])


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
        dist = modal._nearest_pole(model, z)[1]
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
    qz = poly.evaluate([approx.denominator], [z])[0, 0]
    pz = approx.numerator(z)
    return hilbert.norm(qz * s - pz, model.weights)


def inner_product(u, v, w):
    """<u, v> = sum_k w_k u_k conj(v_k); conjugate-linear in v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != w.weights.shape or v.shape != w.weights.shape:
        raise DimensionMismatch(f"vectors of shapes {u.shape} and {v.shape}, "
                                f"{w.weights.size} weights")
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
    quasimatrix: the loop that hilbert._gram_schmidt runs on a stack of
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


def check_hermitian(H):
    """The per-matrix checks that numerics._jacobi runs as
    passes over a stack: square, finite, Hermitian to HERMITIAN_TOL of the
    Frobenius norm; returns the symmetrised matrix and that norm."""
    H = np.ascontiguousarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
        raise NonHermitianInput("expected a square matrix of order >= 1")
    if not np.isfinite(H).all():
        raise NonFiniteValue("matrix has a non-finite entry")
    scale = np.linalg.norm(H)
    dev = np.max(np.abs(H - H.conj().T))
    if dev > numerics.HERMITIAN_TOL * max(scale, 1e-300):
        raise NonHermitianInput(
            f"matrix deviates from Hermitian symmetry by {dev:.3e} "
            f"(scale {scale:.3e})"
        )
    return 0.5 * (H + H.conj().T), scale


def vector_phase_fix(v):
    """numerics._phase_fix of one vector, by Python's abs and a NumPy
    scalar factor: the per-vector form its row pass replaced."""
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    a = abs(v[k])
    if a == 0.0:
        return v.copy()
    out = v * (v[k].conjugate() / a)
    out[k] = a
    return out


def min_eigenpair(vals, vecs, scale):
    """The smallest eigenpair of one eigensystem, of a matrix of Frobenius
    norm scale, with its two phase fixes: the per-item form of
    numerics.hermitian_min_eigenpair.  Returns (value, vector,
    degenerate)."""
    gap_tol = numerics.DEGENERACY_GAP * max(scale, 1e-300)
    near = [vector_phase_fix(vecs[:, j]) for j in np.nonzero(vals - vals[0] < gap_tol)[0]]
    v = min(near, key=lambda u: tuple(np.real(u)) + tuple(np.imag(u)))
    v = v / np.linalg.norm(v)
    return float(vals[0]), vector_phase_fix(v), len(near) > 1


def singular_min_eigen(R):
    """numerics.min_right_singular_vector of one factor, its SVD taken as a
    stack of one and post-processed alone: the per-factor form of its
    passes."""
    R = np.asarray(R, dtype=complex)
    if not np.isfinite(R).all():
        raise NoConvergence("the factor R has a non-finite entry")
    s, Vh = (x[0] for x in np.linalg.svd(R[None])[1:])
    t = s / s[0] if s[0] > 0.0 else s
    gap_tol = numerics.DEGENERACY_GAP * max(np.linalg.norm(t**2), 1e-300)
    degenerate = s.size > 1 and bool(t[-2] ** 2 - t[-1] ** 2 < gap_tol)
    return numerics._MinEigen(float(s[-1]), vector_phase_fix(Vh[-1].conj()), degenerate)


def unit_denominator(q, z0):
    """pade.denominator_from_eigvec with its unit-norm check on the vector
    alone, as it was before the check ran as a pass over a stack."""
    q = np.asarray(q, dtype=complex)
    if not abs(np.linalg.norm(q) - 1.0) <= 1e-12:
        raise NotNormalized(f"eigenvector norm {np.linalg.norm(q):.15e} != 1")
    return poly.ShiftedPolynomial(z0, q[::-1].copy())


def block_scale_exponent(block, weight=0.0):
    """pade._scale_exponents of one block on Python floats: the per-block
    form."""
    amax = float(np.max(np.abs(block), initial=0.0))
    k = math.frexp(amax)[1] - 1
    if amax > 0.0 and (k + weight > pade.SCALE_EXPONENT or k < -pade.SCALE_EXPONENT):
        return max(k, -1023)
    return 0


def loop_jacobi(H):
    """Cyclic complex Jacobi with separate A and V arrays, copied columns and
    rows and NumPy scalar algebra: the loop numerics.hermitian_eigensystem
    replaced.  Returns (values, vectors) in the same order, the vectors as
    the rotations leave them; a matrix of order 1 or a zero matrix returns
    the identity without a sweep."""
    A, scale = check_hermitian(H)
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


def taylor_window(taylor, N, E):
    """Columns S_{E-N}, ..., S_E of a Taylor block as a (dim, N+1) array,
    zero for negative orders."""
    return pade._taylor_rows(taylor, N, E + 1)[E:].T.copy()


def window_gramian(taylor, N, E, w):
    """The block of order E of pade._gramian_blocks from a copy of the
    window alone, columns S_{E-N}..S_E zero for negative orders: the block
    as it was built before the blocks of a stack were sliced from one copy
    of the Taylor rows."""
    S = taylor.coeffs
    if S.shape[0] < E + 1:
        raise InsufficientTaylorLength(
            f"need E+1 = {E + 1} Taylor coefficients, have {S.shape[0]}")
    A = np.zeros((S.shape[1], N + 1), dtype=complex)
    lo = max(E - N, 0)
    A[:, lo - (E - N):] = S[lo : E + 1].T
    G = A.conj().T @ (w.weights[:, None] * A)
    return 0.5 * (G + G.conj().T)


def loop_gramian_sum(taylor, N, M, E, rho, w):
    """The rho-weighted Gramian sum over orders M+1..E and its power-of-two
    exponent, one window_gramian block at a time, as
    pade.denominator_standard built it before it computed each (scale
    exponent, order) block once per stack.  RhoOverflow, and
    InsufficientTaylorLength naming the E + 1 coefficients of its top
    block, as the item raises alone."""
    if 2.0 * (E - M) * math.log10(rho) > 300.0:
        raise RhoOverflow(f"rho^(2(E-M)) overflows for rho={rho}, E-M={E - M}")
    if M < E:
        taylor_window(taylor, N, E)  # raises InsufficientTaylorLength past the block
    weight = (E - M - 1) * math.log2(rho) if rho > 1.0 else 0.0
    k = block_scale_exponent(taylor.coeffs[max(M + 1 - N, 0) : E + 1], weight)
    t = poly.ShiftedPolynomial(taylor.center, taylor.coeffs * 2.0**-k) if k else taylor
    A = np.zeros((N + 1, N + 1), dtype=complex)
    for gamma in range(M + 1, E + 1):
        A += rho ** (2 * (gamma - M - 1)) * window_gramian(t, N, gamma, w)
    j = (block_scale_exponent(A) + 1) // 2
    return A * 4.0**-j if j else A, k + j


def loop_standard_denominator(taylor, N, M, E, rho, w):
    """pade.denominator_standard of one item by the per-item steps it took
    before they ran as passes over the stack: the sum alone
    (loop_gramian_sum), its eigensystem alone (loop_jacobi, whose checks
    are check_hermitian's), min_eigenpair with its two phase fixes, the
    unit-norm check on the vector alone, and the diagnostics: a
    (denominator, diagnostics) pair."""
    A, k = loop_gramian_sum(taylor, N, M, E, rho, w)
    vals, vecs = loop_jacobi(A)
    value, vector, degenerate = min_eigenpair(vals, vecs, np.linalg.norm(A))
    den = unit_denominator(vector, taylor.center)
    top = float(vals[-1])
    return den, pade.Diagnostics(
        pade._scaled(math.sqrt(max(value, 0.0)), rho, M + 1, k), degenerate, False,
        top / max(value, 1e-300) if top > 0 else 1.0)


def null_direction(R, j):
    """pade._null_directions of one factor R, from its rank-deficient column
    j, by NumPy calls on the vector alone: the per-factor form of its
    passes.  A vector whose norm overflows is scaled by the power of two
    that brings its largest part into [1, 2) first."""
    q = np.zeros(R.shape[0], dtype=complex)
    q[j] = 1.0
    q[:j] = np.linalg.solve(R[:j, :j], -R[:j, j])
    with np.errstate(over="ignore"):
        size = np.linalg.norm(q)
    if np.isinf(size):
        parts = q.view(float)
        q = np.ldexp(parts, 1 - np.frexp(np.abs(parts).max())[1]).view(complex)
        size = np.linalg.norm(q)
    q = vector_phase_fix(q / size)
    return numerics._MinEigen(float(np.linalg.norm(R @ q)), q, True)


def loop_fast_denominator(taylor, N, E, w):
    """pade.denominator_fast_qr of one window by the per-item steps it took
    before they ran as passes over the stack: the window scaled alone
    (block_scale_exponent), its factor R (hilbert._gram_schmidt of a stack
    of one), the null direction or the singular pair of R alone
    (null_direction, singular_min_eigen), the unit-norm check on the vector alone, and the
    diagnostics, as loop_standard_denominator."""
    A = taylor_window(taylor, N, E)
    k = block_scale_exponent(A)
    if k:
        A *= 2.0**-k
    R = hilbert._gram_schmidt(A[None], w, pade.QR_DEGENERACY_THRESHOLD)[0]
    d = np.abs(R.diagonal())
    low = d <= pade.QR_DEGENERACY_THRESHOLD * max(d[0], 1e-300)
    res = null_direction(R, int(np.argmax(low))) if low.any() else singular_min_eigen(R)
    den = unit_denominator(res.vector, taylor.center)
    return den, pade.Diagnostics(res.value * 2.0**k, res.degenerate, bool(low.any()),
                                 float(np.max(d)) / max(float(np.min(d)), 1e-300))


def same_denominator(got, want):
    """A stack's denominator against the per-item loop's: the same
    coefficients and diagnostics, byte for byte (signed zeros included)."""
    (den, diag), (den_want, diag_want) = got, want
    assert den.coeffs.tobytes() == den_want.coeffs.tobytes()
    assert den.center == den_want.center
    assert [type(x) for x in diag] == [type(x) for x in diag_want]
    assert np.array(diag, dtype=float).tobytes() == np.array(diag_want, dtype=float).tobytes()


def loop_polynomial_roots(a):
    """numerics.polynomial_roots of the coefficients a by the per-polynomial
    steps it took before they ran as array passes: the finite,
    leading-coefficient and 2^1000 rules with Python's abs, the companion
    solve as a stack of one, the residual check on the row."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise DegenerateLeadingCoefficient("empty coefficient list")
    if not np.isfinite(a).all():
        raise NonFiniteValue("polynomial coefficients have a non-finite entry")
    if a.size == 1:
        return []
    amax = np.max(np.abs(a))
    if abs(a[-1]) <= numerics.TRIM_THRESHOLD * amax:
        raise DegenerateLeadingCoefficient(
            "leading coefficient vanishes relative to the coefficient scale")
    if abs(a[-1]) < 2.0**-1000:
        a, amax = a * 2.0**1000, amax * 2.0**1000
    degree = a.size - 1
    b = (a / a[-1])[None]
    companion = np.zeros((1, degree, degree), dtype=complex)
    companion[:] = np.eye(degree, k=-1)
    companion[:, :, -1] = -b[:, :-1]
    x = np.linalg.eigvals(companion)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        px, dpx = numerics._horner(b, x)
        y = x - px / dpx
        x = np.where(np.abs(numerics._horner(b, y)[0]) < np.abs(px), y, x)
    res = np.abs((x[..., None] ** np.arange(degree + 1)) @ a[None, :, None])[0, :, 0]
    bound = numerics.ROOT_TOL * amax * (1.0 + np.abs(x[0])) ** degree
    if np.any(res > bound):
        worst = float(np.max(res / np.maximum(bound, 1e-300)))
        raise NoConvergence(f"root residual check failed (worst ratio {worst:.3e})")
    return x[0].tolist()


def loop_roots(p):
    """poly.roots of p alone by the per-polynomial steps it took before its
    passes ran over stacks: the trim of one polynomial,
    loop_polynomial_roots, and Python's sort of the shifted roots."""
    c = p.coeffs
    if not np.isfinite(c).all():
        raise NonFiniteValue("polynomial coefficients have a non-finite entry")
    scale = np.max(np.abs(c))
    if scale <= 1e-300:
        raise ZeroPolynomial("zero polynomial has no well-defined degree")
    a = c[: np.nonzero(np.abs(c) > numerics.TRIM_THRESHOLD * scale)[0][-1] + 1]
    if a.size < 2:
        raise ConstantPolynomial("polynomial has effective degree 0")
    shifted = [r + p.center for r in loop_polynomial_roots(a)]
    return sorted(shifted, key=lambda r: (abs(r - p.center), r.real, r.imag))


def loop_config_separation(poles):
    """The message of the first pair of poles within modal.POLE_SEPARATION,
    smallest j, then smallest i, or None: the loop over every pair that
    harness._model_constructor ran before modal._close_pairs."""
    for j, lam in enumerate(poles):
        for i in range(j):
            if not abs(lam - poles[i]) > modal.POLE_SEPARATION:
                return f"at $.model.poles[{j}]: lies within {modal.POLE_SEPARATION} of poles[{i}]"
    return None


def loop_duplicate_poles(poles):
    """The DuplicatePoles message of the first pair of poles within
    modal.POLE_SEPARATION, smallest i, then smallest j, or None: the loop
    over every pair that modal.build_synthetic ran before
    modal._close_pairs."""
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) <= modal.POLE_SEPARATION:
                return f"poles {poles[i]} and {poles[j]} coincide"
    return None


def loop_nearest_root_errors(roots, true_poles):
    """harness._nearest_root_errors of one approximant's roots, a list
    comprehension per pole on Python complex numbers: the loop it
    replaced."""
    dists = [[abs(r - lam) for r in roots] for lam in true_poles]
    best = [int(np.argmin(d)) for d in dists]
    extras = [r for i, r in enumerate(roots) if i not in best]
    return [d[i] for d, i in zip(dists, best)], ";".join(
        "%.17g%+.17gj" % (r.real, r.imag) for r in extras)


def template_sweep(config, model):
    """The sweep's CSV lines, each row by one %-template over Python floats:
    the writer that harness._cells replaced, as are the three below."""
    grid = config.grid()
    approxs = pade.build(model, harness._params(config, config.M_list, config.N))
    errors, qmags, dist = harness._grid_errors(model, approxs[::2] + approxs[1::2], grid)
    near = (dist < harness.NEAR_POLE_DISTANCE).tolist()

    header = ["z", *(f"{cell}_M{M}" for cell in ("abs_error_fast", "abs_error_std",
                                                 "q_magnitude_fast", "q_magnitude_std")
                     for M in config.M_list), "near_pole"]
    row = "%.17g," * (len(header) - 1) + "%d"
    columns = (grid.tolist(), *errors.tolist(), *qmags.tolist(), near)
    return [",".join(header)] + [row % cells for cells in zip(*columns)]


def template_convergence(config, model):
    probes = config.z_probes
    approxs = pade.build(model, harness._params(config, config.M_list, config.N))
    errors, qmags, _ = (a.tolist() for a in harness._grid_errors(
        model, approxs[::2] + approxs[1::2], probes))
    m = len(config.M_list)
    poles = modal.pole_list(model, config.z0)

    header = ["probe", "M", "error_fast", "error_std", "q_magnitude_fast", "q_magnitude_std",
              "fitted_factor_fast", "predicted_factor"]
    row = "%s,%d" + ",%.17g" * (len(header) - 2)
    lines = [",".join(header)]
    for j, z in enumerate(probes):
        fitted = harness._fit_decay_factor(config.M_list, [ef[j] for ef in errors[:m]])
        predicted = harness._predicted_point_factor(poles, config, z)
        for M, ef, es, qf, qs in zip(config.M_list, errors[:m], errors[m:], qmags[:m],
                                     qmags[m:]):
            lines.append(row % (harness._complex_to_text(z), M, ef[j], es[j], qf[j], qs[j],
                                fitted, predicted))
    return lines


def template_poles(config, model):
    N = config.N
    poles = modal.pole_list(model, config.z0)
    true_poles = poles[:N]
    header = ["E", *(f"{cell}_lambda{a}" for cell in ("abs_error_fast", "abs_error_std",
                                                      "predicted_factor")
                     for a in range(1, N + 1)),
              "q_magnitude_fast", "q_magnitude_std", "extra_roots_fast", "extra_roots_std"]
    row = "%d" + ",%.17g" * (len(header) - 3) + ",%s,%s"
    lines = [",".join(header)]
    predicted = [harness._predicted_point_factor(poles, config, lam) ** 2 for lam in true_poles]
    params = harness._params(config, config.E_list, 0)
    dens = [den for den, _ in pade.denominators(model, params, modal.taylor_coefficients(
        model, config.z0, max(p.E for p in params)))]
    errors = [loop_nearest_root_errors(r, true_poles) for r in poly.roots(dens)]
    q0 = [abs(q.coeffs[0]) for q in dens]
    for E, (err_f, extra_f), (err_s, extra_s), q_f, q_s in zip(
            config.E_list, errors[::2], errors[1::2], q0[::2], q0[1::2]):
        lines.append(row % (E, *err_f, *err_s, *predicted, q_f, q_s, extra_f, extra_s))
    return lines


def template_compare(config, model):
    grid = config.grid()
    approxs = pade.build(model, harness._params(config, config.E_list, 0))
    errors, qmags, dist = harness._grid_errors(model, approxs, grid)
    near = (dist < harness.NEAR_POLE_DISTANCE).tolist()
    zs = ["%.17g" % z for z in grid.tolist()]

    header = ["E", "z", "error_fast", "error_std", "ratio",
              "q_magnitude_fast", "q_magnitude_std", "near_pole"]
    row = "%d,%s" + ",%.17g" * (len(header) - 3) + ",%d"
    lines = [",".join(header)]
    for E, err, q in zip(config.E_list, errors.reshape(-1, 2, len(zs)),
                         qmags.reshape(-1, 2, len(zs))):
        (err_f, err_s), (q_f, q_s) = err.tolist(), q.tolist()
        for z, ef, es, qf, qs, flag in zip(zs, err_f, err_s, q_f, q_s, near):
            ratio = ef / es if es > 0 else math.inf
            lines.append(row % (E, z, ef, es, ratio, qf, qs, flag))
    return lines
