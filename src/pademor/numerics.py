"""Dense complex linear-algebra kernels.

Provides a cyclic complex Jacobi eigensolver for small Hermitian matrices,
the minimal right-singular vector of a small triangular factor by LAPACK's
SVD, and the roots of a polynomial of any degree, in no set order, as the
LAPACK eigenvalues of its companion matrix, each polished by one Newton
step.  Jacobi, not LAPACK, solves the standard Gramian sum: the committed
benchmark reference holds its roundoff, and a LAPACK eigensolver in its
place fails that reference's check until the reference is retaken.  The
Jacobi rotation kernel does the same floating-point operations on every
entry as the plain loop kept in tests/oracles.py (loop_jacobi) and is
bit-identical to it.  Only the vectors compared or returned are
phase-fixed, not whole eigensystems.  All routines are pure functions on
value inputs.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLeadingCoefficient, NoConvergence, NonHermitianInput

HERMITIAN_TOL = 1e-13
DEGENERACY_GAP = 1e-12
EIGEN_TOL = 1e-12  # eigen-residual contract, relative to ||H||_F
ROOT_TOL = 1e-10  # root-residual contract of polynomial_roots
TRIM_THRESHOLD = 1e-13  # a leading coefficient this small against the largest vanishes
MAX_JACOBI_SWEEPS = 100


class MinEigen(NamedTuple):
    value: float
    vector: np.ndarray
    degenerate: bool


def phase_fix(v):
    """Rotate v so its largest-magnitude entry is real nonnegative.

    Ties pick the lowest index.  A zero vector is returned unchanged.
    """
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    a = abs(v[k])
    if a == 0.0:
        return v.copy()
    out = v * (v[k].conjugate() / a)
    out[k] = a  # force exactly real
    return out


def _check_hermitian(H):
    H = np.ascontiguousarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
        raise NonHermitianInput("expected a square matrix of order >= 1")
    scale = np.linalg.norm(H)
    dev = np.max(np.abs(H - H.conj().T))
    if dev > HERMITIAN_TOL * max(scale, 1e-300):
        raise NonHermitianInput(
            f"matrix deviates from Hermitian symmetry by {dev:.3e} "
            f"(scale {scale:.3e})"
        )
    return 0.5 * (H + H.conj().T), scale


def hermitian_eigensystem(H):
    """Full eigendecomposition of a Hermitian matrix by cyclic complex Jacobi.

    Returns (values, vectors) with values ascending and vectors as columns,
    as the rotations leave them (not phase-fixed).  Residuals satisfy
    ||H v - mu v|| <= EIGEN_TOL * ||H||_F.
    """
    A, scale = _check_hermitian(H)
    n = A.shape[0]
    # W = [A; V]: one column rotation turns A and the eigenvectors V together.
    W = np.concatenate((A, np.eye(n, dtype=complex)))
    A = W[:n]
    cols = [W[:, j] for j in range(n)]
    rows = list(A)
    # Quadratic convergence: off-diagonal mass well below EIGEN_TOL * scale
    # gives eigen-residuals within the contract.
    target = 0.1 * EIGEN_TOL * scale
    skip = float(np.finfo(float).eps * scale / n)
    mask = ~np.eye(n, dtype=bool)
    for sweep in range(MAX_JACOBI_SWEEPS + 1):
        off = np.linalg.norm(A[mask])
        if off <= target:
            break
        if sweep == MAX_JACOBI_SWEEPS:
            raise NoConvergence(
                f"Jacobi sweeps exceeded {MAX_JACOBI_SWEEPS} without reaching "
                f"off-diagonal target {target:.3e}"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                h = W.item(p, q)
                ah = abs(h)
                if ah <= skip:
                    W[p, q] = W[q, p] = 0.0
                    continue
                # u = h / |h| by NumPy's complex division rule, which
                # Python's complex / float does not round alike.
                inv = 1.0 / ah
                hr, hi = h.real, h.imag
                ur, ui = (hr + hi * 0.0) * inv, (hi - hr * 0.0) * inv
                tau = (W.item(q, q).real - W.item(p, p).real) / (2.0 * ah)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                k, ku = s * complex(ur, -ui), s * complex(ur, ui)  # s u*, s u
                # The products stay NumPy array operations: its vectorized
                # complex product rounds unlike Python's scalar one.
                Wp, Wq = cols[p], cols[q]  # W <- W J, J the (p,q) rotation
                Wp[:], Wq[:] = c * Wp - k * Wq, ku * Wp + c * Wq
                Ap, Aq = rows[p], rows[q]  # A <- J^H A
                Ap[:], Aq[:] = c * Ap - ku * Aq, k * Ap + c * Aq
                W[p, q] = W[q, p] = 0.0
                W[p, p] = W.item(p, p).real
                W[q, q] = W.item(q, q).real

    vals = A.real.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], W[n:, order]


def hermitian_min_eigenpair(H):
    """Smallest eigenpair of a Hermitian matrix.

    The eigenvector is unit-norm with its largest-magnitude entry real
    nonnegative.  When the two smallest eigenvalues differ by less than
    1e-12 * ||H||_F the result is flagged degenerate and, among the
    near-minimal eigenvectors, the phase-fixed lexicographically smallest
    one (real parts, then imaginary parts) is returned.
    """
    vals, vecs = hermitian_eigensystem(H)
    return min_eigenpair(vals, vecs, np.linalg.norm(np.asarray(H)))


def min_eigenpair(vals, vecs, scale):
    """The smallest eigenpair, with hermitian_min_eigenpair's degeneracy and
    phase rules, from an eigensystem already computed by
    hermitian_eigensystem for a matrix of Frobenius norm `scale`.  Only the
    near-minimal columns, which the tie-break compares, are phase-fixed."""
    gap_tol = DEGENERACY_GAP * max(scale, 1e-300)
    near = [phase_fix(vecs[:, j]) for j in np.nonzero(vals - vals[0] < gap_tol)[0]]
    degenerate = len(near) > 1
    v = min(near, key=lambda u: tuple(np.real(u)) + tuple(np.imag(u)))
    v = v / np.linalg.norm(v)
    return MinEigen(float(vals[0]), phase_fix(v), degenerate)


def min_right_singular_vector(R):
    """Right-singular vector of a small square R for its smallest singular
    value, as a MinEigen whose value is that singular value.

    Takes LAPACK's SVD of R itself, so the vector is always a minimiser of
    ||R v|| over unit v, phase-fixed.  The degenerate flag only reports a
    near tie: the two smallest sigma^2 within DEGENERACY_GAP * ||sigma^2||_2
    (that is ||R^H R||_F, as hermitian_min_eigenpair flags R^H R), all
    relative to sigma_max^2 so that no square overflows; it does not change
    the choice.
    """
    R = np.asarray(R, dtype=complex)
    if not np.isfinite(R).all():
        raise NoConvergence("the factor R has a non-finite entry")
    s, Vh = np.linalg.svd(R)[1:]
    t = s / s[0] if s[0] > 0.0 else s
    gap_tol = DEGENERACY_GAP * max(np.linalg.norm(t**2), 1e-300)
    degenerate = s.size > 1 and bool(t[-2] ** 2 - t[-1] ** 2 < gap_tol)
    return MinEigen(float(s[-1]), phase_fix(Vh[-1].conj()), degenerate)


def _horner(b, x):
    """p(x) and p'(x) at each entry of x, for ascending coefficients b."""
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    for c in b[::-1]:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def polynomial_roots(coeffs):
    """All roots (with multiplicity) of a polynomial in ascending coefficients.

    The roots are the eigenvalues of the companion matrix of the monic
    polynomial (np.linalg.eigvals), each followed by one Newton step that is
    kept only where it lowers |p|.  The roots come in no set order (poly.roots
    sorts them), and each satisfies
    |p(root)| <= ROOT_TOL * max|coeff| * (1 + |root|)^degree.
    """
    a = np.asarray(coeffs, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise DegenerateLeadingCoefficient("empty coefficient list")
    degree = a.size - 1
    if degree == 0:
        return []
    amax = np.max(np.abs(a))
    if abs(a[-1]) <= TRIM_THRESHOLD * amax:  # what poly.effective_coeffs trims
        raise DegenerateLeadingCoefficient(
            "leading coefficient vanishes relative to the coefficient scale"
        )
    if abs(a[-1]) < 2.0**-1000:
        # a / a[-1] may overflow; a power of two scales every entry exactly
        a, amax = a * 2.0**1000, amax * 2.0**1000
    b = a / a[-1]  # monic, ascending
    companion = np.eye(degree, k=-1, dtype=complex)
    companion[:, -1] = -b[:-1]
    x = np.linalg.eigvals(companion)

    # At a multiple root p' vanishes and the step is not finite; the
    # comparison is then false and the eigenvalue stays.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        px, dpx = _horner(b, x)
        y = x - px / dpx
        x = np.where(np.abs(_horner(b, y)[0]) < np.abs(px), y, x)

    powers = np.arange(degree + 1)
    residuals = np.abs((x[:, None] ** powers) @ a)
    bounds = ROOT_TOL * amax * (1.0 + np.abs(x)) ** degree
    if np.any(residuals > bounds):
        worst = float(np.max(residuals / np.maximum(bounds, 1e-300)))
        raise NoConvergence(
            f"root residual check failed (worst ratio {worst:.3e})"
        )
    return x.tolist()
