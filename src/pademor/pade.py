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

The denominators asked for together (denominators) are solved as one
stack per variant and N, each giving the bytes it gives alone, so that
NumPy's cost per call is paid once: the fast ones by one QR of all their
windows (hilbert.gram_schmidt) and one SVD of all their full-rank factors,
the standard ones by one lockstep Jacobi over all their Gramian sums
(numerics.hermitian_eigensystems).  A single build is a stack of one.
The approximants of a command are evaluated as one stack as well
(evaluate_stack), and evaluate is a stack of one.
"""

import math
from typing import NamedTuple

import numpy as np

from . import hilbert, numerics, poly
from .errors import (DimensionMismatch, InsufficientTaylorLength, NotNormalized, PadeError,
                     RhoOverflow, settled)
from .modal import ModalModel, taylor_coefficients

QR_DEGENERACY_THRESHOLD = 1e-14


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


def denominator_from_eigvec(q, z0):
    """Map a unit eigenvector to the denominator Q = sum_j q_j (z - z0)^{N-j}.

    The eigenvector pairs q_j with the descending power (z - z0)^{N-j}, so
    the ascending storage reads a_{N-j} = q_j.
    """
    q = np.asarray(q, dtype=complex)
    if not abs(np.linalg.norm(q) - 1.0) <= 1e-12:  # a nan norm fails too
        raise NotNormalized(f"eigenvector norm {np.linalg.norm(q):.15e} != 1")
    return poly.ShiftedPolynomial(z0, q[::-1].copy())


def gramian(taylor, N, E, w):
    """Hermitian PSD matrix of V-inner products of the Taylor window:
    entry (i, j) = <S_{E-N+j}, S_{E-N+i}>."""
    if E < 0:
        raise ValueError("E must be nonnegative")
    A = _taylor_window(taylor, N, E)
    G = A.conj().T @ (w.weights[:, None] * A)
    return 0.5 * (G + G.conj().T)


def _gramian_denominators(taylor, N, items, w):
    """Minimal eigenvector of the rho-weighted Gramian sum over orders
    M+1..E for each (M, E, rho) of items, rescaled by rho^{-2(M+1)}, all
    sums solved by one numerics.hermitian_eigensystems call: one outcome
    (errors.settled) per item, RhoOverflow where rho^(2(E-M)) overflows.

    The minimizer is invariant under positive scaling of the matrix, so the
    rescaling only guards against overflow, as do the power-of-two
    scalings (numerics.scale_exponent) of the Taylor windows and of the
    sum, whose entries are squares of window entries times up to
    rho^{2(E-M-1)}: the windows are scaled when their largest entry times
    rho^{E-M-1} passes 2^numerics.SCALE_EXPONENT, and the Frobenius norm of
    the sum, which the eigensolve takes, stays finite.  Each block is
    exactly Hermitian, and so is their positively weighted sum.
    """
    out = []
    for M, E, rho in items:
        if 2.0 * (E - M) * math.log10(rho) > 300.0:
            out.append(RhoOverflow(f"rho^(2(E-M)) overflows for rho={rho}, E-M={E - M}"))
            continue
        weight = (E - M - 1) * math.log2(rho) if rho > 1.0 else 0.0
        k = numerics.scale_exponent(taylor.coeffs[max(M + 1 - N, 0) : E + 1], weight)
        t = poly.ShiftedPolynomial(taylor.center, taylor.coeffs * 2.0**-k) if k else taylor
        A = np.zeros((N + 1, N + 1), dtype=complex)
        for gamma in range(M + 1, E + 1):
            A += rho ** (2 * (gamma - M - 1)) * gramian(t, N, gamma, w)
        j = (numerics.scale_exponent(A) + 1) // 2
        out.append((A * 4.0**-j if j else A, k + j))
    systems = iter(numerics.hermitian_eigensystems(
        [x[0] for x in out if not isinstance(x, PadeError)]))
    for i, ((M, E, rho), x) in enumerate(zip(items, out)):
        if isinstance(x, PadeError):
            continue
        A, k = x
        try:  # raises a failure the eigensolve recorded, or NotNormalized
            [(vals, vecs)] = settled([next(systems)])
            res = numerics.min_eigenpair(vals, vecs, np.linalg.norm(A))
            den = denominator_from_eigvec(res.vector, taylor.center)
        except PadeError as exc:
            out[i] = exc
            continue
        # Python floats, so that an overflowing ratio is inf without a warning.
        top, bottom = float(vals[-1]), float(vals[0])
        out[i] = den, Diagnostics(
            functional_value=numerics.scaled(math.sqrt(max(res.value, 0.0)), rho, M + 1, k),
            degenerate=res.degenerate,
            condition_estimate=top / max(bottom, 1e-300) if top > 0 else 1.0,
        )
    return out


def denominator_fast_gramian(taylor, N, E, w):
    """Fast denominator via the minimal eigenvector of the Gramian: the
    standard functional with the single block of order E."""
    if E < N:
        raise ValueError("fast denominator requires E >= N")
    return settled(_gramian_denominators(taylor, N, [(E - 1, E, 1.0)], w))[0]


def _null_direction(R, j):
    """Unit vector q with R q ~= 0, built from the rank-deficient column j,
    as a MinEigen of value ||R q||, flagged degenerate."""
    q = np.zeros(R.shape[0], dtype=complex)
    q[j] = 1.0
    if j > 0:
        block = R[:j, :j]
        rhs = -R[:j, j]
        q[:j] = np.linalg.solve(block, rhs)
    q = numerics.phase_fix(q / np.linalg.norm(q))
    return numerics.MinEigen(float(np.linalg.norm(R @ q)), q, True)


def denominator_fast_qr(taylor, N, E, w):
    """Fast denominator via QR of the quasimatrix [S_{E-N} | ... | S_E].

    Better conditioned than the Gramian route: the singular values of R
    are the square roots of the Gramian eigenvalues, and R itself, not
    R^H R, goes to the SVD (numerics.min_right_singular_vector).  A
    rank-deficient quasimatrix (diagonal of R below 1e-14 of the first
    column norm) is surfaced as an exact-degeneracy outcome and the
    denominator is taken from the null direction.  A stack of one of
    _fast_denominators.
    """
    return settled(_fast_denominators(taylor, N, [(E, E, 1.0)], w))[0]


def _fast_denominators(taylor, N, items, w):
    """denominator_fast_qr for the E of each (M, E, rho) of items, each
    window scaled by its own power of two (numerics.scale_exponent), the
    windows factored as one stack and the full-rank factors R given to one
    SVD: one outcome (errors.settled) per item, a (denominator,
    diagnostics) pair or the PadeError raised."""
    if min(E for _, E, _ in items) < N:
        raise ValueError("fast denominator requires E >= N")
    windows = np.empty((len(items), taylor.coeffs.shape[1], N + 1), dtype=complex)
    ks = []
    for A, (_, E, _) in zip(windows, items):
        A[...] = _taylor_window(taylor, N, E)
        ks.append(numerics.scale_exponent(A))
        if ks[-1]:
            A *= 2.0**-ks[-1]
    R = hilbert.gram_schmidt(windows, w, QR_DEGENERACY_THRESHOLD)
    diags = np.abs(R.diagonal(axis1=1, axis2=2))
    low = diags <= QR_DEGENERACY_THRESHOLD * np.maximum(diags[:, :1], 1e-300)
    svds = iter(numerics.min_right_singular_vectors(R[~low.any(axis=1)]))
    out = []
    for Rb, d, deficient, k in zip(R, diags, low, ks):
        exact = bool(deficient.any())
        res = _null_direction(Rb, int(np.argmax(deficient))) if exact else next(svds)
        try:  # raises a failure the SVD recorded, or NotNormalized
            den = denominator_from_eigvec(settled([res])[0].vector, taylor.center)
        except PadeError as exc:
            out.append(exc)
            continue
        out.append((den, Diagnostics(
            functional_value=res.value * 2.0**k,
            degenerate=res.degenerate,
            exact_degeneracy=exact,
            condition_estimate=float(np.max(d)) / max(float(np.min(d)), 1e-300),
        )))
    return out


def denominator_standard(taylor, M, N, E, rho, w):
    """Standard denominator: minimal eigenvector of the rho-weighted Gramian
    sum over orders M+1..E."""
    if E < M + N:
        raise ValueError("standard denominator requires E >= M + N")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return settled(_gramian_denominators(taylor, N, [(M, E, rho)], w))[0]


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


def denominators(model, params, taylor):
    """The first step of build for each of params: its (denominator,
    diagnostics) pair from taylor, a block of Taylor coefficients as build
    takes, centred at each params.z0.  The denominators of each variant and
    N are solved as one stack, the standard ones first
    (_gramian_denominators), then the fast ones (_fast_denominators), so that the stack's large arrays are freed right
    before the caller builds numerators: in the other order a command's
    heap grew by about 0.1 MB on the highorder_poles benchmark.  Each
    failure is recorded, and the first in the order of params is raised, as
    building them one by one would raise it."""
    if taylor.coeffs.ndim != 2:
        raise ValueError(
            f"Taylor block of shape {taylor.coeffs.shape}, not one row per order"
        )
    for p in params:
        if taylor.center != p.z0:
            raise ValueError(f"Taylor block centred at {taylor.center}, approximant at {p.z0}")
    stacks, solved = {}, {}
    for i, p in enumerate(params):
        stacks.setdefault((p.variant == "fast", p.N), []).append(i)
    for (fast, N), index in sorted(stacks.items()):  # the standard stacks first
        items = [(params[i].M, params[i].E, params[i].rho) for i in index]
        solve = _fast_denominators if fast else _gramian_denominators
        solved.update(zip(index, solve(taylor, N, items, model.weights)))
    return settled([solved[i] for i in range(len(params))])


def build(model, params, taylor=None):
    """Assemble a full approximant from the Taylor coefficients of a modal
    model at params.z0: its denominator (denominators), then its numerator.

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
    [(den, diag)] = denominators(model, [params], taylor)
    return PadeApproximant(numerator(taylor, den, params.M), den, params, diag)


def evaluate_stack(approxs, points):
    """P(z)/Q(z) and |Q(z)| of each of approxs, whose denominators share one
    degree, along a 1-d array of points, one stack of numerators
    (poly.call_stack) at a time, so that only one stack's values are held
    at once: yields (indices, values, qmag), values an (n, len(indices),
    dimension) array and qmag (len(indices), n).  Q is evaluated for all
    of approxs by one Horner pass (poly.evaluate_stack), which rounds each
    value as Horner on Python complex numbers does; each value is
    bit-identical to that approximant's evaluated alone.  |Q| is taken by
    np.hypot, bit-identical to Python abs but inf, not OverflowError,
    where the modulus of finite parts overflows.

    No error or warning is raised near poles of an approximant, where a
    value may overflow to inf or be nan; the caller inspects the returned
    denominator magnitude instead.
    """
    points = np.asarray(points, dtype=complex)
    qz = poly.evaluate_stack([a.denominator for a in approxs], points)
    for index, values in poly.call_stack([a.numerator for a in approxs], points):
        q = qz[index]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values /= q.T[..., None]
            qmag = np.hypot(q.real, q.imag)
        yield index, values, qmag


def evaluate(approx, z):
    """P(z)/Q(z) together with |Q(z)|: a (dimension,) array and a float at
    a point, an array of one row per point and an array of one value per
    point along an array of points.  A stack of one of evaluate_stack, so
    that the commands, which evaluate all their approximants as one stack,
    one Horner pass per numerator degree, write the bytes this gives: Q(z)
    is rounded as Horner on Python complex numbers rounds it (the real-array
    Horner of poly.evaluate_stack), P(z) as Horner on NumPy complex arrays
    (ShiftedPolynomial.__call__)."""
    points = np.asarray(z, dtype=complex)
    [(_, values, qmag)] = evaluate_stack([approx], points.reshape(-1))
    qmag = qmag[0].reshape(points.shape)
    return values[:, 0].reshape(points.shape + values.shape[2:]), (
        float(qmag) if points.ndim == 0 else qmag)


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
        qz = poly.evaluate_stack([Q], lam)[0]
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
    """The approximant of an artifact object, approximant_to_json's form:
    NonFiniteValue on a non-finite entry (hilbert.pairs_to_array), and
    DimensionMismatch unless the denominator holds N + 1 coefficients and
    the numerator M + 1 rows of mode coefficients."""
    z0 = hilbert.pairs_to_array(obj["params"]["z0"])
    params = BuildParams(**{**obj["params"], "z0": z0})
    den = obj["denominator"]
    den = poly.ShiftedPolynomial(hilbert.pairs_to_array(den["center"]),
                                 hilbert.pairs_to_array(den["coeffs"]))
    num = poly.ShiftedPolynomial(den.center, hilbert.pairs_to_array(obj["numerator"]))
    if den.coeffs.shape != (params.N + 1,) or num.coeffs.shape[:-1] != (params.M + 1,):
        raise DimensionMismatch(
            f"denominator of shape {den.coeffs.shape} and numerator of shape "
            f"{num.coeffs.shape} for N = {params.N}, M = {params.M}"
        )
    return PadeApproximant(num, den, params, Diagnostics(**obj["diagnostics"]))
