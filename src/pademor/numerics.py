"""Dense complex linear-algebra kernels.

Provides a cyclic complex Jacobi eigensolver for small Hermitian matrices,
the minimal right-singular vector of a small triangular factor by LAPACK's
SVD, the roots of each of a stack of polynomials of one degree, in no
set order, as the LAPACK eigenvalues of its companion matrix, each
polished by one Newton step, the power-of-two scalings that keep
weighted sums of squares finite, and the Gauss-Legendre rule that modal
integrates the Helmholtz source with, on the float operations of
numpy.polynomial's, which the package does not import.  Jacobi, not
LAPACK, solves the standard Gramian sum: the committed benchmark
reference holds its roundoff, and a LAPACK eigensolver in its place fails
that reference's check until the reference is retaken.  A matrix with a non-finite entry is refused
(NonFiniteValue).  The Jacobi rotation kernel does the same floating-point
operations on every entry as the plain loop kept in tests/oracles.py
(loop_jacobi) and is bit-identical to it.  Only the vectors compared or
returned are phase-fixed.  All routines are pure functions on value
inputs; gauss_legendre keeps its last GAUSS_RULES_KEPT rules as read-only
arrays.  EIGEN_TOL and ROOT_TOL are the eigen- and root-residual
contracts; a leading coefficient TRIM_THRESHOLD times the largest or
smaller vanishes.  A MinEigen is (value, vector, degenerate) and,
for an eigenpair of hermitian_min_eigenpair, the largest eigenvalue.

The eigensystems, the singular vectors and the roots are solved for a
whole stack at once, each item giving the bytes it gives alone, and so
are the steps around the solves: checks, pick, phase fixes, norms, scale
exponents.  A stack raises the first failure that its passes, check by
check and item by item, meet; an empty stack gives [], or an empty array
of roots.  Each kernel takes a stack of one shape: poly.roots groups the
roots by effective degree.

The rounding contract of the stacks: every item takes the float
operations it takes alone, in the same order.  A real array operation
rounds as IEEE rounds one float operation whatever the array's length or
layout.  NumPy's complex product fuses a product into a sum (FMA) where
the host has it, and which one depends on the operand order: each
complex product keeps its operand order.  A modulus that Python's abs
took is np.hypot of the parts, not np.abs.  A norm that feeds a
threshold or a quotient is the two BLAS dots np.linalg.norm takes of the
row alone, x.real.dot(x.real) + x.imag.dot(x.imag), then sqrt (norms,
on the same strides); a sum along an axis adds in another order.  A
square that Python's ** took stays libm's pow, not NumPy's x * x.  A
power-of-two scaling multiplies only the items with k != 0: a complex
product by 1 turns a real part -0 whose imaginary part is negative into
+0.
"""

import collections
import functools
import itertools
import math

import numpy as np

from .errors import (DegenerateLeadingCoefficient, DimensionMismatch, NoConvergence,
                     NonFiniteValue, NonHermitianInput)

HERMITIAN_TOL = 1e-13
DEGENERACY_GAP = 1e-12
EIGEN_TOL = 1e-12
ROOT_TOL = 1e-10
TRIM_THRESHOLD = 1e-13
MAX_JACOBI_SWEEPS = 100
SCALE_EXPONENT = 400
GAUSS_RULES_KEPT = 8


MinEigen = collections.namedtuple("MinEigen", "value vector degenerate top", defaults=[None])


def phase_fix(v):
    """Rotate each row of the array v, a vector or a stack of them, so that its
    largest-magnitude entry, the first on ties, is real nonnegative.  A
    zero row is returned unchanged.  The index is compared as a float: an
    integer comparison runs NumPy code that no other step runs.
    """
    at = np.arange(v.shape[-1] + 0.0) == np.argmax(np.abs(v), axis=-1)[..., None]
    top = v[at].reshape(*v.shape[:-1], 1)
    a = np.hypot(top.real, top.imag)
    zero = a == 0.0
    out = v * (top.conj() / np.where(zero, 1.0, a))
    out[at] = a.ravel()
    return np.where(zero, v, out)


def norms(X):
    """np.linalg.norm of each row of a 2-d array, by the two BLAS dots it
    takes of the row alone: matmul's vector-vector loop calls the same
    ddot on the same strides."""
    r, i = X.real[:, None], X.imag[:, None]
    return np.sqrt((r @ r.mT + i @ i.mT)[:, 0, 0])


def _jacobi(matrices):
    """Eigenvalues ascending, eigenvectors as columns in their order and the
    Frobenius norm of each of a list of matrices of one order, by cyclic
    Jacobi on all of them in lockstep, each giving what it gives alone.

    Matrices not all square of one order raise NonHermitianInput.  The
    checks (finite, then Hermitian to HERMITIAN_TOL of the Frobenius
    norm), each sweep's convergence test and harvest are passes over the
    stack.  W stacks the [A; V] blocks not yet converged, one column
    rotation turning A and the eigenvectors V together; S keeps each block
    as it converged, and W is S itself until the first harvest.  At each
    pair (p, q) every matrix takes its rotation scalars on Python floats,
    u = h / |h| by NumPy's complex division rule, with the skip rule of a
    matrix alone (|h| <= 2^-52 ||H||_F / n is zeroed, not rotated); the
    rotation, W J then J^H A, is applied once to the matrices that rotate,
    as NumPy products.  The harvest's boolean takes and stores run NumPy
    code that the command path runs anyway, so add no pages to the
    resident peak.
    """
    shapes = {np.shape(H) for H in matrices}
    if len(shapes) != 1 or (s := min(shapes))[:1] * 2 != s or s < (1,):
        raise NonHermitianInput(f"expected square matrices of one order, not {sorted(shapes)}")
    H, n = np.array(matrices, dtype=complex), s[0]
    if not np.isfinite(H).all():
        raise NonFiniteValue("matrix has a non-finite entry")
    scales = norms(H.reshape(-1, n * n))
    devs = np.abs(H - H.conj().mT).max(axis=(1, 2))
    skew = np.flatnonzero(devs > HERMITIAN_TOL * np.maximum(scales, 1e-300))
    if skew.size:
        raise NonHermitianInput(f"matrix deviates from Hermitian symmetry by "
                                f"{devs[skew[0]]:.3e} (scale {scales[skew[0]]:.3e})")
    W = S = np.concatenate((0.5 * (H + H.conj().mT), np.zeros_like(H) + np.eye(n)), axis=1)
    live, mask = np.arange(len(S)), np.eye(n) == 0
    for sweep in range(MAX_JACOBI_SWEEPS + 1):
        done = norms(W[:, :n][:, mask]) <= 0.1 * EIGEN_TOL * scales[live]
        if done.any():
            S[live[done]], W, live = W[done], W[~done], live[~done]
        if not live.size:
            break
        if sweep == MAX_JACOBI_SWEEPS:
            raise NoConvergence(f"Jacobi sweeps exceeded {MAX_JACOBI_SWEEPS} without reaching "
                                f"off-diagonal target {0.1 * EIGEN_TOL * scales[live[0]]:.3e}")
        cols, rows = list(W.transpose(2, 0, 1)), list(W[:, :n].transpose(1, 0, 2))
        Wr, Wi, limits = W.real, W.imag, (2.0**-52 * scales[live] / n).tolist()
        for p in range(n - 1):
            for q in range(p + 1, n):
                rot, coefs = [], []
                for b, (skip, h, dp, dq) in enumerate(zip(
                        limits, W[:, p, q].tolist(), Wr[:, p, p].tolist(), Wr[:, q, q].tolist())):
                    ah = abs(h)
                    if ah <= skip:
                        continue
                    inv = 1.0 / ah
                    hr, hi = h.real, h.imag
                    ur, ui = (hr + hi * 0.0) * inv, (hi - hr * 0.0) * inv
                    tau = (dq - dp) / (2.0 * ah)
                    t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                    if tau < 0.0:
                        t = -t
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    rot.append(b)
                    coefs.append((c, s * complex(ur, -ui), s * complex(ur, ui)))
                if rot:
                    if len(rot) == 1:
                        sel, (c, k, ku) = rot[0], coefs[0]
                    else:
                        sel = slice(None) if len(rot) == len(live) else np.array(rot)
                        c, k, ku = np.array(coefs).T[:, :, None]
                    for X, f, g in ((cols, k, ku), (rows, ku, k)):
                        Xp, Xq = X[p][sel], X[q][sel]
                        X[p][sel], X[q][sel] = c * Xp - f * Xq, g * Xp + c * Xq
                    Wi[sel, p, p] = Wi[sel, q, q] = 0.0
                W[:, p, q] = W[:, q, p] = 0.0
    vals = S.real.diagonal(axis1=1, axis2=2)
    order = np.argsort(vals, axis=1, kind="stable")
    return (np.take_along_axis(vals, order, 1),
            np.take_along_axis(S[:, n:], order[:, None], 2), scales)


def hermitian_eigensystem(matrices):
    """Full eigendecomposition (values ascending, vectors as columns, not
    phase-fixed) of each of a list of Hermitian matrices of one order
    (_jacobi): ||H v - mu v|| <= EIGEN_TOL * ||H||_F."""
    if not len(matrices):
        return []
    return list(zip(*_jacobi(matrices)[:2]))


def hermitian_min_eigenpair(matrices):
    """Smallest eigenpair of each of a list of Hermitian matrices of one
    order (_jacobi), as a MinEigen, the pick, both phase fixes and the
    normalisation as passes over the stack.

    The eigenvector is unit-norm with its largest-magnitude entry real
    nonnegative.  When the two smallest eigenvalues differ by less than
    DEGENERACY_GAP * ||H||_F the result is flagged degenerate and, among the
    near-minimal eigenvectors, the phase-fixed lexicographically smallest
    one (real parts, then imaginary parts) is returned: only a degenerate
    item compares its near-minimal columns, each phase-fixed alone.
    """
    if not len(matrices):
        return []
    vals, vecs, scales = _jacobi(matrices)
    near = vals - vals[:, :1] < DEGENERACY_GAP * np.maximum(scales, 1e-300)[:, None]
    degenerate = near[:, 1:].any(axis=1)
    v = phase_fix(vecs[:, :, 0])
    for b in np.flatnonzero(degenerate):
        v[b] = min(phase_fix(vecs[b].T[near[b]]), key=lambda u: (*u.real, *u.imag))
    return list(map(MinEigen, vals[:, 0].tolist(), phase_fix(v / norms(v)[:, None]),
                    degenerate.tolist(), vals[:, -1].tolist()))


def min_right_singular_vector(R):
    """Right-singular vector for the smallest singular value of each small
    square factor of a (B, n, n) stack, taken as complex, as a MinEigen
    whose value is that singular value, by one SVD, each giving what it
    gives alone; a non-finite entry raises NoConvergence.

    Takes LAPACK's SVD of R itself, so the vector is always a minimiser of
    ||R v|| over unit v, phase-fixed.  The degenerate flag only reports a
    near tie: the two smallest sigma^2 within DEGENERACY_GAP * ||sigma^2||_2
    (that is ||R^H R||_F, as hermitian_min_eigenpair flags R^H R), all
    relative to sigma_max^2 so that no square overflows; it does not change
    the choice.  The gap test's norms and the phase fix are row passes; the
    two squares it compares stay Python's, libm's pow, which NumPy's array
    square does not round alike."""
    R = np.asarray(R, dtype=complex)
    if not len(R):
        return []
    if not np.isfinite(R).all():
        raise NoConvergence("the factor R has a non-finite entry")
    s, Vh = np.linalg.svd(R)[1:]
    t = s / np.where(s[:, :1] > 0.0, s[:, :1], 1.0)
    flags = [len(d) > 1 and d[0] ** 2 - d[1] ** 2 < gap for d, gap in zip(
        t[:, -2:].tolist(), (DEGENERACY_GAP * np.maximum(norms(t**2), 1e-300)).tolist())]
    return list(map(MinEigen, s[:, -1].tolist(), phase_fix(Vh[:, -1].conj()), flags))


def scale_exponents(amax, weights=None):
    """Exponent k of each block of a stack, from the largest modulus amax of
    each and its weight, 0 if none: the largest entry of 2^-k block lies in [1, 2)
    when that entry, times 2^weight, exceeds 2^SCALE_EXPONENT, or when it is
    nonzero and below 2^-SCALE_EXPONENT; k is 0 between, and never below
    -1023.  Sums of squares of the scaled blocks stay finite, and a power
    of two undoes exactly.  Python ints: integer array arithmetic would
    run NumPy code no other step runs, adding to the resident peak.
    """
    return [max(k, -1023) if a > 0.0 and (k + w > SCALE_EXPONENT or k < -SCALE_EXPONENT) else 0
            for a, w in zip(amax, weights or itertools.repeat(0.0))
            for k in [math.frexp(a)[1] - 1]]


def scaled(x, rho, n, k):
    """x rho^n 2^k for x >= 0 and rho > 0 as a float, inf if it overflows
    (the functional value of a scaled standard solve): Python's ** raises
    OverflowError where * gives inf."""
    try:
        return x * rho**n * 2.0**k
    except OverflowError:
        m, e = math.frexp(rho)
        try:
            return math.ldexp(x * m**n, e * n + k)
        except OverflowError:
            return math.inf


def _horner(b, x):
    """p(x) and p'(x) at each entry of each row of x, for the ascending
    coefficients in the same row of b."""
    p = dp = np.zeros_like(x)
    for c in b.T[::-1, :, None]:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def polynomial_roots(a):
    """All roots (with multiplicity) of each of a stack of polynomials of
    one degree n, the rows of a (B, n + 1) array of ascending
    coefficients: a (B, n) complex array, each row giving what it gives
    alone.

    The roots are the eigenvalues of the companion matrix of the monic
    polynomial (np.linalg.eigvals), each followed by one Newton step that is
    kept only where it lowers |p|.  The roots come in no set order (poly.roots
    sorts them), and each satisfies
    |p(root)| <= ROOT_TOL * max|coeff| * (1 + |root|)^degree.  A ragged
    stack (DimensionMismatch), a non-finite coefficient (NonFiniteValue) or
    a vanishing leading coefficient raises before the solve; the finite,
    leading-coefficient and 2^1000 rules and the residual check are passes
    over the stack.  An empty stack gives an empty array.
    """
    if not len(a):
        return np.zeros((0, 0), complex)
    try:
        a = np.array(a, dtype=complex)
    except ValueError as exc:  # rows of unequal lengths
        raise DimensionMismatch(f"not a stack of one degree: {exc}") from None
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a (B, n + 1) stack, not shape {a.shape}")
    if not a.size:
        raise DegenerateLeadingCoefficient("empty coefficient list")
    if not np.isfinite(a).all():
        raise NonFiniteValue("polynomial coefficients have a non-finite entry")
    degree = a.shape[1] - 1
    amax = np.abs(a).max(axis=1)
    lead = np.hypot(a[:, -1].real, a[:, -1].imag)
    if degree and (lead <= TRIM_THRESHOLD * amax).any():
        raise DegenerateLeadingCoefficient(
            "leading coefficient vanishes relative to the coefficient scale")
    small = lead < 2.0**-1000
    a[small], amax[small] = a[small] * 2.0**1000, amax[small] * 2.0**1000
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = a / a[:, -1:]  # 0 / 0 only for a zero constant, which has no roots
        companion = np.zeros((len(a), degree, degree), complex) + np.eye(degree, k=-1)
        companion[:, :, -1:] = -b[:, :-1, None]
        x = np.linalg.eigvals(companion)
        px, dpx = _horner(b, x)
        y = x - px / dpx
        x = np.where(np.abs(_horner(b, y)[0]) < np.abs(px), y, x)

    residuals = np.abs((x[..., None] ** np.arange(degree + 1)) @ a[..., None])[..., 0]
    bounds = ROOT_TOL * amax[:, None] * (1.0 + np.abs(x)) ** degree
    failed = np.flatnonzero((residuals > bounds).any(axis=1))
    if failed.size:
        ratio = np.max(residuals[failed[0]] / np.maximum(bounds[failed[0]], 1e-300))
        raise NoConvergence(f"root residual check failed (worst ratio {ratio:.3e})")
    return x


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
def gauss_legendre(n):
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
