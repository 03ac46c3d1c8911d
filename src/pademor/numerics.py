"""Dense complex linear-algebra kernels.

Provides a cyclic complex Jacobi eigensolver for small Hermitian matrices,
the minimal right-singular vector of a small triangular factor by LAPACK's
SVD, the roots of a polynomial of any degree, in no set order, as the
LAPACK eigenvalues of its companion matrix, each polished by one Newton
step, the power-of-two scalings that keep weighted sums of squares
finite, and the Gauss-Legendre rule that modal integrates the Helmholtz
source with, on the float operations of numpy.polynomial's, which the
package does not import.  Jacobi, not LAPACK, solves the standard Gramian
sum: the committed benchmark reference holds its roundoff, and a LAPACK
eigensolver in its place fails that reference's check until the reference
is retaken.  A matrix with a non-finite entry is refused
(NonFiniteValue).  The Jacobi rotation kernel does the same floating-point
operations on every entry as the plain loop kept in tests/oracles.py
(loop_jacobi) and is bit-identical to it.  Only the vectors compared or
returned are phase-fixed, not whole eigensystems.  All routines are pure
functions on value inputs.  gauss_legendre also keeps its last
GAUSS_RULES_KEPT rules by order, as read-only arrays that every caller
shares, so a process computes each rule once however many models it
builds.

The eigensystems, the singular vectors and the roots are solved for a
whole stack at once (hermitian_eigensystems, min_right_singular_vectors,
polynomial_roots_stack): Jacobi in lockstep over the stack, one LAPACK call
for the stack, or per degree for roots, each item giving the bytes it gives
alone.  A failed item is recorded in place (errors.settled); the
single-problem routines are stacks of one.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateLeadingCoefficient, NoConvergence, NonFiniteValue,
                     NonHermitianInput, PadeError, settled)

HERMITIAN_TOL = 1e-13
DEGENERACY_GAP = 1e-12
EIGEN_TOL = 1e-12  # eigen-residual contract, relative to ||H||_F
ROOT_TOL = 1e-10  # root-residual contract of polynomial_roots
TRIM_THRESHOLD = 1e-13  # a leading coefficient this small against the largest vanishes
MAX_JACOBI_SWEEPS = 100
SCALE_EXPONENT = 400  # blocks whose entries stay below 2^400 are not scaled
GAUSS_RULES_KEPT = 8  # Gauss-Legendre rules memoized, by order


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
    if not np.isfinite(H).all():  # nan tolerances would never stop the sweeps
        raise NonFiniteValue("matrix has a non-finite entry")
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
    ||H v - mu v|| <= EIGEN_TOL * ||H||_F.  A stack of one of
    hermitian_eigensystems.
    """
    return settled(hermitian_eigensystems([H]))[0]


def hermitian_eigensystems(matrices):
    """hermitian_eigensystem of each of a list of matrices of one order, by
    cyclic Jacobi on all of them in lockstep: one outcome (errors.settled)
    per matrix, each giving what it gives alone.

    The matrices not yet converged form one stack W of [A; V] blocks, made
    again at each sweep without those that have converged.  At each pair
    (p, q) every matrix takes its rotation scalars on Python floats, with
    the skip rule of a matrix alone; the rotation is then applied once to
    the matrices that rotate, with a coefficient column per matrix, or
    Python scalars on 1-d views when only one rotates.
    """
    out, live, blocks = list(matrices), [], []
    for i, H in enumerate(matrices):
        try:
            A, scale = _check_hermitian(H)
        except PadeError as exc:
            out[i] = exc
            continue
        # Quadratic convergence: off-diagonal mass well below EIGEN_TOL *
        # scale gives eigen-residuals within the contract.
        n = A.shape[0]
        live.append((i, 0.1 * EIGEN_TOL * scale, float(np.finfo(float).eps * scale / n)))
        # [A; V]: one column rotation turns A and the eigenvectors V together.
        blocks.append(np.concatenate((A, np.eye(n, dtype=complex))))
    if not live:
        return out
    W = np.array(blocks)
    mask = ~np.eye(n, dtype=bool)
    for sweep in range(MAX_JACOBI_SWEEPS + 1):
        keep = []
        for b, (i, target, _) in enumerate(live):
            A = W[b, :n]
            if np.linalg.norm(A[mask]) <= target:  # a nan target is never met
                vals = A.real.diagonal().copy()
                order = np.argsort(vals, kind="stable")
                out[i] = vals[order], W[b][n:, order]
            else:
                keep.append(b)
        if len(keep) < len(live):
            # np.array, not W[keep]: a 3-d fancy take runs NumPy code that no
            # other step runs, whose pages add 64 KB to the resident peak
            live, W = [live[b] for b in keep], np.array([W[b] for b in keep])
        if not live:
            break
        if sweep == MAX_JACOBI_SWEEPS:
            for i, target, _ in live:
                out[i] = NoConvergence(
                    f"Jacobi sweeps exceeded {MAX_JACOBI_SWEEPS} without reaching "
                    f"off-diagonal target {target:.3e}"
                )
            break
        skips = [skip for _, _, skip in live]
        cols = [W[:, :, j] for j in range(n)]
        rows = [W[:, j] for j in range(n)]
        Wr, Wi = W.real, W.imag
        for p in range(n - 1):
            for q in range(p + 1, n):
                rot, coefs = [], []
                entries = zip(skips, cols[q][:, p].tolist(), Wr[:, p, p].tolist(),
                              Wr[:, q, q].tolist())
                for b, (skip, h, dp, dq) in enumerate(entries):
                    ah = abs(h)
                    if ah <= skip:
                        continue
                    # u = h / |h| by NumPy's complex division rule, which
                    # Python's complex / float does not round alike.
                    inv = 1.0 / ah
                    hr, hi = h.real, h.imag
                    ur, ui = (hr + hi * 0.0) * inv, (hi - hr * 0.0) * inv
                    tau = (dq - dp) / (2.0 * ah)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    rot.append(b)
                    coefs.append((c, s * complex(ur, -ui), s * complex(ur, ui)))  # c, s u*, s u
                if rot:
                    if len(rot) == 1:
                        sel, (c, k, ku) = rot[0], coefs[0]
                    else:  # c complex: NumPy casts a float factor so anyway
                        sel = slice(None) if len(rot) == len(live) else np.array(rot)
                        c, k, ku = np.array(coefs).T[:, :, None]
                    # The products stay NumPy array operations: its
                    # vectorized complex product rounds unlike Python's
                    # scalar one.
                    Wp, Wq = cols[p][sel], cols[q][sel]  # W <- W J, J the (p,q) rotation
                    cols[p][sel], cols[q][sel] = c * Wp - k * Wq, ku * Wp + c * Wq
                    Ap, Aq = rows[p][sel], rows[q][sel]  # A <- J^H A
                    rows[p][sel], rows[q][sel] = c * Ap - ku * Aq, k * Ap + c * Aq
                    Wi[sel, p, p] = Wi[sel, q, q] = 0.0
                W[:, p, q] = W[:, q, p] = 0.0
    return out


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
    the choice.  A stack of one of min_right_singular_vectors.
    """
    return settled(min_right_singular_vectors(np.asarray(R, dtype=complex)[None]))[0]


def min_right_singular_vectors(R):
    """min_right_singular_vector of each factor of a (B, n, n) stack, by one
    SVD of the finite ones, each giving what it gives alone: one outcome
    (errors.settled) per factor, NoConvergence for one with a non-finite
    entry."""
    finite = np.isfinite(R).all(axis=(1, 2))
    svds = zip(*np.linalg.svd(R[finite])[1:])
    out = []
    for ok in finite:
        if not ok:
            out.append(NoConvergence("the factor R has a non-finite entry"))
            continue
        s, Vh = next(svds)
        t = s / s[0] if s[0] > 0.0 else s
        gap_tol = DEGENERACY_GAP * max(np.linalg.norm(t**2), 1e-300)
        degenerate = s.size > 1 and bool(t[-2] ** 2 - t[-1] ** 2 < gap_tol)
        out.append(MinEigen(float(s[-1]), phase_fix(Vh[-1].conj()), degenerate))
    return out


def scale_exponent(block, weight=0.0):
    """Exponent k with the largest entry of 2^-k block in [1, 2) when that
    entry, times 2^weight, exceeds 2^SCALE_EXPONENT, or when it is nonzero
    and below 2^-SCALE_EXPONENT; 0 between; never below -1023, so that
    2^-k is a float.

    Weighted sums of squares of larger entries can overflow, and those of
    smaller ones underflow; scaling by a power of two is exact, so a solve
    on the scaled block undoes it exactly (pade's denominators).
    """
    amax = float(np.max(np.abs(block), initial=0.0))
    k = math.frexp(amax)[1] - 1
    if amax > 0.0 and (k + weight > SCALE_EXPONENT or k < -SCALE_EXPONENT):
        return max(k, -1023)
    return 0


def scaled(x, rho, n, k):
    """x rho^n 2^k for x >= 0 and rho > 0 as a float, inf if it overflows
    (the functional value of a scaled standard solve): Python's ** raises
    OverflowError where * gives inf."""
    try:
        return x * rho**n * 2.0**k
    except OverflowError:
        m, e = math.frexp(rho)  # rho = m 2^e, with m^n < 1
        try:
            return math.ldexp(x * m**n, e * n + k)
        except OverflowError:
            return math.inf


def _horner(b, x):
    """p(x) and p'(x) at each entry of each row of x, for the ascending
    coefficients in the same row of b."""
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    for c in b.T[::-1, :, None]:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def polynomial_roots(coeffs):
    """All roots (with multiplicity) of a polynomial in ascending coefficients.

    The roots are the eigenvalues of the companion matrix of the monic
    polynomial (np.linalg.eigvals), each followed by one Newton step that is
    kept only where it lowers |p|.  The roots come in no set order (poly.roots
    sorts them), and each satisfies
    |p(root)| <= ROOT_TOL * max|coeff| * (1 + |root|)^degree.  A stack of one
    of polynomial_roots_stack.
    """
    return settled(polynomial_roots_stack([coeffs]))[0]


def polynomial_roots_stack(polys):
    """polynomial_roots of each coefficient array of polys, those of one
    degree solved as one stack (one companion eigvals, Newton step and
    residual check), each giving what it gives alone: one outcome
    (errors.settled) per polynomial; an entry that is a PadeError stays."""
    out = list(polys)
    stacks = {}  # degree -> (index, coefficients, max |coefficient|) per polynomial
    for i, a in enumerate(polys):
        if isinstance(a, PadeError):
            continue
        a = np.asarray(a, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            out[i] = DegenerateLeadingCoefficient("empty coefficient list")
            continue
        if a.size == 1:
            out[i] = []
            continue
        amax = np.max(np.abs(a))
        if abs(a[-1]) <= TRIM_THRESHOLD * amax:  # what poly.effective_coeffs trims
            out[i] = DegenerateLeadingCoefficient(
                "leading coefficient vanishes relative to the coefficient scale"
            )
            continue
        if abs(a[-1]) < 2.0**-1000:
            # a / a[-1] may overflow; a power of two scales every entry exactly
            a, amax = a * 2.0**1000, amax * 2.0**1000
        stacks.setdefault(a.size - 1, []).append((i, a, amax))
    for degree, items in stacks.items():
        index, a, amax = map(np.array, zip(*items))
        b = a / a[:, -1:]  # monic, ascending
        companion = np.zeros((len(index), degree, degree), dtype=complex)
        companion[:] = np.eye(degree, k=-1)
        companion[:, :, -1] = -b[:, :-1]
        x = np.linalg.eigvals(companion)

        # At a multiple root p' vanishes and the step is not finite; the
        # comparison is then false and the eigenvalue stays.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            px, dpx = _horner(b, x)
            y = x - px / dpx
            x = np.where(np.abs(_horner(b, y)[0]) < np.abs(px), y, x)

        residuals = np.abs((x[..., None] ** np.arange(degree + 1)) @ a[..., None])[..., 0]
        bounds = ROOT_TOL * amax[:, None] * (1.0 + np.abs(x)) ** degree
        for i, roots, res, bound in zip(index, x, residuals, bounds):
            if np.any(res > bound):
                worst = float(np.max(res / np.maximum(bound, 1e-300)))
                out[i] = NoConvergence(f"root residual check failed (worst ratio {worst:.3e})")
            else:
                out[i] = roots.tolist()
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
    return np.frombuffer(x.tobytes()), np.frombuffer(w.tobytes())
