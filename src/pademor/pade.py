"""Construction and evaluation of fast and standard LS-Pade approximants.

The fast denominator minimizes the norm of the single top-order Taylor
coefficient of Q*S; the standard one minimizes a rho-weighted sum of
coefficient norms.  The standard denominator is the minimal eigenvector
of a small Hermitian Gramian sum.  The fast variant takes the better
conditioned route: a weighted QR factorization of the Taylor-coefficient
quasimatrix, then the minimal right-singular vector of its small factor R
by LAPACK's SVD, never an eigensolve of R^H R.  Its Gramian route, the
standard functional with the single block of order E and rho = 1, is kept
as a cross-check.
"""

import math
from typing import NamedTuple

import numpy as np

from . import hilbert, numerics, poly
from .errors import InsufficientTaylorLength, RhoOverflow
from .modal import ModalModel, taylor_coefficients

QR_DEGENERACY_THRESHOLD = 1e-14
SCALE_EXPONENT = 400  # windows whose entries stay below 2^400 are not scaled


class _BuildFields(NamedTuple):
    z0: complex
    M: int
    N: int
    E: int
    variant: str = "fast"  # "fast" or "standard"
    rho: float | None = None


class BuildParams(_BuildFields):
    """The degrees, variant and rho of one approximant, checked on
    construction (ValueError); a NamedTuple may not define __new__ itself."""

    __slots__ = ()

    def __new__(cls, z0, M, N, E, variant="fast", rho=None):
        z0 = complex(z0)
        if M < 0 or N < 0:
            raise ValueError("M and N must be nonnegative")
        if variant == "fast":
            if E < max(M, N):
                raise ValueError("fast variant requires E >= max(M, N)")
        elif variant == "standard":
            if E < M + N:
                raise ValueError("standard variant requires E >= M + N")
            if rho is None or rho <= 0.0:
                raise ValueError("standard variant requires rho > 0")
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return super().__new__(cls, z0, M, N, E, variant, rho)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it checks too
        return cls(*iterable)


class Diagnostics(NamedTuple):
    functional_value: float  # minimal j-value achieved by the denominator
    # the two smallest eigenvalues (sigma^2 on the QR route) lie within
    # 1e-12 of the matrix's Frobenius norm.  On the QR route only a report:
    # its SVD returns a minimiser either way.  The Gramian routes then take
    # the lexicographically smallest near-minimal eigenvector.
    degenerate: bool
    exact_degeneracy: bool = False  # rank-deficient quasimatrix
    condition_estimate: float | None = None


class PadeApproximant(NamedTuple):
    numerator: poly.ShiftedPolynomial  # shape (M+1, dimension)
    denominator: poly.ShiftedPolynomial
    params: BuildParams
    diagnostics: Diagnostics


def _taylor_window(taylor, N, E):
    """Columns S_{E-N}, ..., S_E as a (dim, N+1) array, zero for negative
    orders."""
    S = taylor.coeffs
    if S.shape[0] < E + 1:
        raise InsufficientTaylorLength(
            f"need E+1 = {E + 1} Taylor coefficients, have {S.shape[0]}"
        )
    cols = np.zeros((S.shape[1], N + 1), dtype=complex)
    lo = max(E - N, 0)
    cols[:, lo - (E - N):] = S[lo : E + 1].T
    return cols


def _scale_exponent(block, weight=0.0):
    """Exponent k with the largest entry of 2^-k block in [1, 2) when that
    entry, times 2^weight, exceeds 2^SCALE_EXPONENT, or when it is nonzero
    and below 2^-SCALE_EXPONENT; 0 between; never below -1023, so that
    2^-k is a float.

    Weighted sums of squares of larger entries can overflow, and those of
    smaller ones underflow; scaling by a power of two is exact, so the
    solves below undo it exactly.
    """
    amax = float(np.max(np.abs(block), initial=0.0))
    k = math.frexp(amax)[1] - 1
    if amax > 0.0 and (k + weight > SCALE_EXPONENT or k < -SCALE_EXPONENT):
        return max(k, -1023)
    return 0


def gramian(taylor, N, E, w):
    """Hermitian PSD matrix of V-inner products of the Taylor window:
    entry (i, j) = <S_{E-N+j}, S_{E-N+i}>."""
    if E < 0:
        raise ValueError("E must be nonnegative")
    A = _taylor_window(taylor, N, E)
    G = A.conj().T @ (w.weights[:, None] * A)
    return 0.5 * (G + G.conj().T)


def _gramian_denominator(taylor, M, N, E, rho, w):
    """Minimal eigenvector of the rho-weighted Gramian sum over orders
    M+1..E, rescaled by rho^{-2(M+1)} before the eigensolve.

    The minimizer is invariant under positive scaling of the matrix, so the
    rescaling only guards against overflow, as do the power-of-two
    scalings (_scale_exponent) of the Taylor windows and of the sum, whose
    entries are squares of window entries times up to rho^{2(E-M-1)}: the
    windows are scaled when their largest entry times rho^{E-M-1} passes
    2^SCALE_EXPONENT, and the Frobenius norm of the sum, which the
    eigensolve takes, stays finite.  Each block is exactly Hermitian, and
    so is their positively weighted sum.
    """
    weight = (E - M - 1) * math.log2(rho) if rho > 1.0 else 0.0
    k = _scale_exponent(taylor.coeffs[max(M + 1 - N, 0) : E + 1], weight)
    if k:
        taylor = poly.ShiftedPolynomial(taylor.center, taylor.coeffs * 2.0**-k)
    A = np.zeros((N + 1, N + 1), dtype=complex)
    for gamma in range(M + 1, E + 1):
        A += rho ** (2 * (gamma - M - 1)) * gramian(taylor, N, gamma, w)
    j = (_scale_exponent(A) + 1) // 2
    if j:
        A = A * 4.0**-j
        k += j
    vals, vecs = numerics.hermitian_eigensystem(A)
    res = numerics.min_eigenpair(vals, vecs, np.linalg.norm(A))
    # Python floats, so that an overflowing ratio is inf without a warning.
    top, bottom = float(vals[-1]), float(vals[0])
    den = poly.denominator_from_eigvec(res.vector, taylor.center)
    mu = max(res.value, 0.0)
    diag = Diagnostics(
        functional_value=_scaled(math.sqrt(mu), rho, M + 1, k),
        degenerate=res.degenerate,
        condition_estimate=top / max(bottom, 1e-300) if top > 0 else 1.0,
    )
    return den, diag


def _scaled(x, rho, n, k):
    """x rho^n 2^k for x >= 0 and rho > 0 as a float, inf if it overflows:
    Python's ** raises OverflowError where * gives inf."""
    try:
        return x * rho**n * 2.0**k
    except OverflowError:
        m, e = math.frexp(rho)  # rho = m 2^e, with m^n < 1
        try:
            return math.ldexp(x * m**n, e * n + k)
        except OverflowError:
            return math.inf


def denominator_fast_gramian(taylor, N, E, w):
    """Fast denominator via the minimal eigenvector of the Gramian: the
    standard functional with the single block of order E."""
    if E < N:
        raise ValueError("fast denominator requires E >= N")
    return _gramian_denominator(taylor, E - 1, N, E, 1.0, w)


def _weighted_mgs(A, w):
    """Modified Gram-Schmidt with one reorthogonalization pass under the
    weighted inner product <u, v> = sum_k w_k u_k conj(v_k).  Returns R;
    its diagonal is real and nonnegative, R[0, 0] the first column norm.

    A vanishing pivot leaves a zero basis vector and a (tiny) diagonal
    entry in R; callers detect this as exact degeneracy.
    """
    ww = w.weights
    ncols = A.shape[1]
    Q = np.zeros((ncols, A.shape[0]), dtype=complex)  # basis vectors as rows
    Qc = np.zeros_like(Q)  # and their conjugates, for the inner products
    R = np.zeros((ncols, ncols), dtype=complex)
    for j in range(ncols):
        v = A[:, j].copy()
        for _ in range(2):  # MGS + one reorthogonalization pass
            for i in range(j):
                c = complex(np.add.reduce(ww * v * Qc[i]))
                R[i, j] += c
                v = v - c * Q[i]
        rjj = float(np.sqrt(max(np.add.reduce(ww * v * v.conj()).real, 0.0)))
        R[j, j] = rjj
        first_norm = R.real.item(0, 0)
        if rjj > QR_DEGENERACY_THRESHOLD * max(first_norm, 1e-300):
            Q[j] = v / rjj
            Qc[j] = Q[j].conj()
        # else: the basis vector stays zero; later projections onto it vanish
    return R


def _null_direction(R, j):
    """Unit vector q with R q ~= 0, built from the rank-deficient column j."""
    q = np.zeros(R.shape[0], dtype=complex)
    q[j] = 1.0
    if j > 0:
        block = R[:j, :j]
        rhs = -R[:j, j]
        q[:j] = np.linalg.solve(block, rhs)
    q = q / np.linalg.norm(q)
    return numerics.phase_fix(q)


def denominator_fast_qr(taylor, N, E, w):
    """Fast denominator via QR of the quasimatrix [S_{E-N} | ... | S_E].

    Better conditioned than the Gramian route: the singular values of R
    are the square roots of the Gramian eigenvalues, and R itself, not
    R^H R, goes to the SVD (numerics.min_right_singular_vector).  A
    rank-deficient quasimatrix (diagonal of R below 1e-14 of the first
    column norm) is surfaced as an exact-degeneracy outcome and the
    denominator is taken from the null direction.
    """
    if E < N:
        raise ValueError("fast denominator requires E >= N")
    A = _taylor_window(taylor, N, E)
    k = _scale_exponent(A)
    R = _weighted_mgs(A * 2.0**-k if k else A, w)
    diags = np.abs(np.diag(R))
    cond = float(np.max(diags)) / max(float(np.min(diags)), 1e-300)
    deficient = np.nonzero(diags <= QR_DEGENERACY_THRESHOLD * max(diags[0], 1e-300))[0]
    exact = deficient.size > 0
    if exact:
        q = _null_direction(R, int(deficient[0]))
        sigma, degenerate = float(np.linalg.norm(R @ q)), True
    else:
        sigma, q, degenerate = numerics.min_right_singular_vector(R)
    diag = Diagnostics(
        functional_value=sigma * 2.0**k,
        degenerate=degenerate,
        exact_degeneracy=exact,
        condition_estimate=cond,
    )
    return poly.denominator_from_eigvec(q, taylor.center), diag


def denominator_standard(taylor, M, N, E, rho, w):
    """Standard denominator: minimal eigenvector of the rho-weighted Gramian
    sum over orders M+1..E."""
    if E < M + N:
        raise ValueError("standard denominator requires E >= M + N")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if 2.0 * (E - M) * math.log10(rho) > 300.0:
        raise RhoOverflow(f"rho^(2(E-M)) overflows for rho={rho}, E-M={E - M}")
    return _gramian_denominator(taylor, M, N, E, rho, w)


def numerator(taylor, Q, M):
    """Numerator coefficients p_a = sum_l a_l S_{a-l} (truncated Cauchy
    product of the denominator with the Taylor series), a = 0..M."""
    S = taylor.coeffs
    if S.shape[0] < M + 1:
        raise InsufficientTaylorLength(
            f"need M+1 = {M + 1} Taylor coefficients, have {S.shape[0]}"
        )
    a = Q.coeffs
    rows = np.zeros((M + 1, S.shape[1]), dtype=complex)
    # l ascending, so that each row adds its terms a_l S_{a-l} in order of l.
    for l in range(min(M, a.size - 1) + 1):
        rows[l:] += a[l] * S[: M + 1 - l]
    return poly.ShiftedPolynomial(taylor.center, rows)


def build(model, params, taylor=None):
    """Assemble a full approximant from the Taylor coefficients of a modal
    model at params.z0.

    taylor, if given, is a block of those coefficients shared by several
    builds: a 2-d array of one row per order, centred at params.z0
    (ValueError otherwise), and of any length from params.E + 1 up.  Row g
    of the block depends only on g, so a build from a longer block is
    bit-identical to one from its own.

    The fast variant uses the QR denominator path.  Deterministic for fixed
    inputs.
    """
    if taylor is None:
        taylor = taylor_coefficients(model, params.z0, params.E)
    elif taylor.coeffs.ndim != 2:
        raise ValueError(
            f"Taylor block of shape {taylor.coeffs.shape}, not one row per order"
        )
    elif taylor.center != params.z0:
        raise ValueError(
            f"Taylor block centred at {taylor.center}, approximant at {params.z0}"
        )
    if params.variant == "fast":
        den, diag = denominator_fast_qr(taylor, params.N, params.E, model.weights)
    else:
        den, diag = denominator_standard(
            taylor, params.M, params.N, params.E, params.rho, model.weights
        )
    num = numerator(taylor, den, params.M)
    return PadeApproximant(num, den, params, diag)


def evaluate(approx, z):
    """P(z)/Q(z) together with |Q(z)|: a (dimension,) array and a float at
    a point, an (n, dimension) array and an (n,) array along a 1-d array
    of points.

    No error or warning is raised near poles of the approximant, where a
    value may overflow to inf or be nan; the caller inspects the returned
    denominator magnitude instead.  Q is evaluated by one Horner pass over
    all the points on Python complex numbers (poly.evaluate_points), which
    round differently from NumPy's array arithmetic, and |Q| by np.hypot,
    bit-identical to Python abs but inf, not OverflowError, where the
    modulus of finite parts overflows; P by Horner on NumPy arrays
    (poly.ShiftedPolynomial).
    """
    points = np.asarray(z, dtype=complex)
    qz = poly.evaluate_points(approx.denominator, points.reshape(-1).tolist())
    qz = np.reshape(qz, points.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = approx.numerator(points) / qz[..., None]
        qmag = np.hypot(qz.real, qz.imag)  # inf where |Q| passes the float range
    return values, (float(qmag) if points.ndim == 0 else qmag)


def approximant_poles(approx):
    """Roots of the denominator, sorted by distance from the center."""
    return poly.roots(approx.denominator)


def functional_value(Q, source, E, w=None):
    """j-functional of a denominator along two independent routes.

    From a Taylor series: the V-norm of the top-order coefficient of Q*S.
    From a modal model: the pole/residue sum obtained by orthogonality of
    the residues.  Both agree to roundoff.
    """
    N = Q.degree
    if isinstance(source, poly.ShiftedPolynomial):
        if w is None:
            raise ValueError("weights are required with a Taylor series")
        A = _taylor_window(source, N, E)
        q = Q.coeffs[::-1]  # q_j pairs with descending powers
        return float(hilbert.norm(A @ q, w))
    if isinstance(source, ModalModel):
        z0 = Q.center
        lam = source.poles
        if lam.size == 0:
            return 0.0
        qz = np.array(poly.evaluate_points(Q, lam.tolist()))
        dist = np.abs(lam - z0)
        # NumPy, not Python floats, whose ** and abs raise where an array
        # gives inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            qmag = np.hypot(qz.real, qz.imag)
            top = source.residue_norms * qmag
            bottom = dist ** (E + 1)
            terms = top / bottom
            # where a factor overflows, the ratio in log form, |Q| as twice
            # |Q / 2|, which is finite wherever Q is
            big = np.isinf(top) | np.isinf(bottom)
            log_q = np.log(np.abs(qz[big] / 2)) + math.log(2)
            terms[big] = np.exp(np.log(source.residue_norms[big]) + log_q
                                - (E + 1) * np.log(dist[big]))
        return hilbert.norm(terms, hilbert.InnerProductWeights.l2(lam.size))
    raise TypeError(f"cannot evaluate functional against {type(source).__name__}")


def approximant_to_json(approx):
    """The JSON object of an approximant, as a build artifact line holds it:
    the BuildParams and Diagnostics fields by name, a non-finite diagnostic
    as its float (hilbert.json_text writes null), complex numbers as
    [re, im] pairs, the denominator as {"center", "coeffs"}, one row of
    pairs per numerator coefficient, the arrays as hilbert.finite_array
    views.  A non-finite numerator entry raises NonFiniteValue."""
    p, den = approx.params, approx.denominator
    what = f"numerator of the {p.variant} approximant with M = {p.M}"
    return {
        "params": {**p._asdict(), "z0": hilbert.finite_array(p.z0, "z0")},
        "denominator": {
            "center": hilbert.finite_array(den.center, "polynomial center"),
            "coeffs": hilbert.finite_array(den.coeffs, "polynomial coefficients"),
        },
        "diagnostics": approx.diagnostics._asdict(),
        "numerator": hilbert.finite_array(approx.numerator.coeffs, what),
    }


def approximant_from_json(obj):
    z0 = hilbert.pairs_to_array(obj["params"]["z0"])
    params = BuildParams(**{**obj["params"], "z0": z0})
    den = obj["denominator"]
    den = poly.ShiftedPolynomial(hilbert.pairs_to_array(den["center"]),
                                 hilbert.pairs_to_array(den["coeffs"]))
    num = poly.ShiftedPolynomial(den.center, hilbert.pairs_to_array(obj["numerator"]))
    return PadeApproximant(num, den, params, Diagnostics(**obj["diagnostics"]))
