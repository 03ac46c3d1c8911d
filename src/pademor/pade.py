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
(numerics.hermitian_min_eigenpair), whose blocks, shared by the sums of a
stack, are each computed once, on windows sliced from one copy of the
Taylor rows (_gramian_blocks).  The approximants of a command are
evaluated as one stack as well (evaluate_stack).
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import hilbert, numerics, poly
from .errors import (DimensionMismatch, InsufficientTaylorLength, NotNormalized, RhoOverflow,
                     stacks)
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
    """functional_value: the minimal j-value of the denominator.
    degenerate: the two smallest eigenvalues (sigma^2 on the QR route) lie
    within 1e-12 of the matrix's Frobenius norm; on the QR route only a
    report, the Gramian routes then take the lexicographically smallest
    near-minimal eigenvector.  exact_degeneracy: a rank-deficient
    quasimatrix."""
    functional_value: float
    degenerate: bool
    exact_degeneracy: bool = False
    condition_estimate: float | None = None


class PadeApproximant(NamedTuple):
    numerator: poly.ShiftedPolynomial  # shape (M+1, dimension)
    denominator: poly.ShiftedPolynomial
    params: BuildParams
    diagnostics: Diagnostics


def _taylor_rows(taylor, N, top):
    """Rows S_{-N}, ..., S_{top-1} as an (N + top, dim) array, zero for
    negative orders: the window of order E is rows E..E+N."""
    S = taylor.coeffs
    if S.shape[0] < top:
        raise InsufficientTaylorLength(f"need E+1 = {top} Taylor coefficients, have {S.shape[0]}")
    rows = np.zeros((N + top, S.shape[1]), dtype=complex)
    rows[N:] = S[:top]
    return rows


def _eigvec_denominators(res, z0):
    """Q = sum_j q_j (z - z0)^{N-j}, a_{N-j} = q_j, for the vector q of each
    MinEigen of res; the unit-norm check (NotNormalized, a nan norm
    included) is one pass."""
    vectors = np.array([r.vector for r in res])
    norms = numerics.norms(vectors)
    off = np.flatnonzero(~(abs(norms - 1.0) <= 1e-12))
    if off.size:
        raise NotNormalized(f"eigenvector norm {float(norms[off[0]]):.15e} != 1")
    return [poly.ShiftedPolynomial(z0, q) for q in vectors[:, ::-1].copy()]


def _scale(X, even=False):
    """Exponents k (numerics.scale_exponents) of each matrix X[b], made even
    upwards if even; X[b] is scaled by 2^-k in place where k != 0 only."""
    ks = numerics.scale_exponents(abs(X).max(axis=(1, 2), initial=0.0).tolist())
    ks = [k + k % 2 * even for k in ks]
    if any(ks):
        X[[k != 0 for k in ks]] *= np.array([2.0**-k for k in ks if k], complex)[:, None, None]
    return ks


def _gramian_blocks(taylor, N, keys, w):
    """{(k, gamma): Gramian of order gamma of the Taylor rows scaled by
    2^-k} for the (k, gamma) of keys, each block once: the Hermitian PSD
    matrix of V-inner products of the window of order gamma, entry (i, j)
    = <S_{gamma-N+j}, S_{gamma-N+i}>; a negative order raises ValueError.
    The windows are slices of one zero-padded copy of the rows per k
    (_taylor_rows), so each block takes the float operations, operand
    order and BLAS call of the block alone.  Each block conjugates and weights its own window: a
    conjugated and a weighted copy of all the rows per k would hold two
    more arrays of every row, to save a few percent of the blocks' time."""
    rows, scaled, blocks = _taylor_rows(
        taylor, N, max((g for _, g in keys), default=0) + 1), {}, {}
    for k, gamma in dict.fromkeys(keys):
        if gamma < 0:
            raise ValueError("E must be nonnegative")
        if k not in scaled:
            scaled[k] = rows * 2.0**-k if k else rows
        window = scaled[k][gamma : gamma + N + 1]
        G = window.conj() @ (w.weights * window).T
        blocks[k, gamma] = 0.5 * (G + G.conj().T)
    return blocks


def denominator_standard(taylor, N, items, w):
    """Standard denominator: the minimal eigenvector of the rho-weighted
    Gramian sum over orders M+1..E for each (M, E, rho) of items, rescaled
    by rho^{-2(M+1)}, all sums solved by one numerics.hermitian_min_eigenpair
    call: a (denominator, diagnostics) pair per item.  An item whose rho is
    not positive raises ValueError, one whose rho^(2(E-M)) overflows
    RhoOverflow, both before the solve.

    The minimizer is invariant under positive scaling of the matrix, so the
    rescaling only guards against overflow, as do the power-of-two
    scalings (numerics.scale_exponents) of the Taylor windows and of the
    sum, whose entries are squares of window entries times up to
    rho^{2(E-M-1)}: the windows are scaled when their largest entry times
    rho^{E-M-1} passes 2^numerics.SCALE_EXPONENT, and the Frobenius norm of
    the sum, which the eigensolve takes, stays finite.  Each block is
    exactly Hermitian, and so is their positively weighted sum.

    The steps around the eigensolve are passes over the stack; a sum with
    fewer terms adds zero blocks, which leave it as it is (a sum that
    starts at +0 is never -0).  The weights rho^n, log2(rho) and the
    diagnostics stay Python floats: libm rounds them, and an overflowing
    ratio is inf without a warning.
    """
    if not items:
        return []
    for M, E, rho in items:
        if rho <= 0.0:
            raise ValueError("rho must be positive")
        if 2.0 * (E - M) * math.log10(rho) > 300.0:
            raise RhoOverflow(f"rho^(2(E-M)) overflows for rho={rho}, E-M={E - M}")
    peaks = np.abs(taylor.coeffs).max(axis=1, initial=0.0).tolist()
    ks = numerics.scale_exponents(*zip(*[(max(peaks[max(M + 1 - N, 0) : E + 1], default=0.0), (
        E - M - 1) * math.log2(rho) if rho > 1.0 else 0.0) for M, E, rho in items]))
    terms = [[(rho ** (2 * t), (k, M + 1 + t)) for t in range(E - M)]
             for (M, E, rho), k in zip(items, ks)]
    blocks = _gramian_blocks(taylor, N, [key for row in terms for _, key in row], w)
    A = np.zeros((len(items), N + 1, N + 1), dtype=complex)
    blocks[None] = 0 * A[0]
    for column in itertools.zip_longest(*terms, fillvalue=(0.0, None)):
        f, keys = zip(*column)
        A += np.array(f, dtype=complex)[:, None, None] * np.array([blocks[key] for key in keys])
    js = [k // 2 for k in _scale(A, even=True)]
    res = numerics.hermitian_min_eigenpair(A)
    return [(d, Diagnostics(
        numerics.scaled(math.sqrt(max(r.value, 0.0)), rho, M + 1, k + j), r.degenerate, False,
        r.top / max(r.value, 1e-300) if r.top > 0 else 1.0))
        for d, r, (M, E, rho), k, j in zip(_eigvec_denominators(res, taylor.center), res, items,
                                            ks, js)]


def denominator_fast_gramian(taylor, N, Es, w):
    """Fast denominator of each E of Es via the minimal eigenvector of the
    Gramian: the standard functional with the single block of order E, a
    cross-check of denominator_fast_qr."""
    if min(Es, default=N) < N:
        raise ValueError("fast denominator requires E >= N")
    return denominator_standard(taylor, N, [(E - 1, E, 1.0) for E in Es], w)


def _null_direction(R, j):
    """Unit vector q with R q ~= 0, built from the rank-deficient column j,
    as a MinEigen of value ||R q||, flagged degenerate."""
    q = np.zeros(R.shape[0], dtype=complex)
    q[j] = 1.0
    q[:j] = np.linalg.solve(R[:j, :j], -R[:j, j])
    q = numerics.phase_fix(q / np.linalg.norm(q))
    return numerics.MinEigen(float(np.linalg.norm(R @ q)), q, True)


def denominator_fast_qr(taylor, N, items, w):
    """Fast denominator via QR of the quasimatrix [S_{E-N} | ... | S_E] for
    the E of each (M, E, rho) of items: a (denominator, diagnostics) pair
    per item.

    Better conditioned than the Gramian route: the singular values of R
    are the square roots of the Gramian eigenvalues, and R itself, not
    R^H R, goes to the SVD (numerics.min_right_singular_vector).  A
    rank-deficient quasimatrix (diagonal of R below 1e-14 of the first
    column norm) is surfaced as an exact-degeneracy outcome and the
    denominator is taken from the null direction.  Each window is scaled by
    its own power of two (_scale), the windows factored as one stack and
    the full-rank factors R given to one SVD.  Only a rank-deficient window
    takes its null direction alone; the Taylor rows are freed before the
    QR."""
    if not items:
        return []
    Es = [E for _, E, _ in items]
    if min(Es) < N:
        raise ValueError("fast denominator requires E >= N")
    rows = _taylor_rows(taylor, N, max(Es) + 1)
    windows = np.array([rows[E : E + N + 1].T for E in Es])
    del rows
    ks = _scale(windows)
    R = hilbert.gram_schmidt(windows, w, QR_DEGENERACY_THRESHOLD)
    diags = np.abs(R.diagonal(axis1=1, axis2=2))
    low = diags <= QR_DEGENERACY_THRESHOLD * np.maximum(diags[:, :1], 1e-300)
    exact = low.any(axis=1)
    svds = iter(numerics.min_right_singular_vector(R[~exact]))
    res = [_null_direction(R[b], low[b].argmax()) if e else next(svds)
           for b, e in enumerate(exact.tolist())]
    return [(d, Diagnostics(r.value * 2.0**k, r.degenerate, e, top / max(bottom, 1e-300)))
            for d, r, k, e, top, bottom in zip(
                _eigvec_denominators(res, taylor.center), res, ks, exact.tolist(),
                diags.max(axis=1).tolist(), diags.min(axis=1).tolist())]


def numerator(taylor, Q, M):
    """Numerator coefficients p_a = sum_l a_l S_{a-l} (truncated Cauchy
    product of the denominator with the Taylor series), a = 0..M, adding
    the terms in order of l."""
    S = taylor.coeffs
    if S.shape[0] < M + 1:
        raise InsufficientTaylorLength(
            f"need M+1 = {M + 1} Taylor coefficients, have {S.shape[0]}"
        )
    a = Q.coeffs
    rows = np.zeros((M + 1, S.shape[1]), dtype=complex)
    for l in range(min(M, a.size - 1) + 1):
        rows[l:] += a[l] * S[: M + 1 - l]
    return poly.ShiftedPolynomial(taylor.center, rows)


def denominators(model, params, taylor):
    """The first step of build for each of params: its (denominator,
    diagnostics) pair from taylor, a block of Taylor coefficients as build
    takes, centred at each params.z0.  The denominators of each variant and
    N are solved as one stack, the standard ones first
    (denominator_standard), then the fast ones (denominator_fast_qr), so
    that the stack's large arrays are freed right before the caller builds
    numerators: in the other order a command's heap grew by about 0.1 MB on
    the highorder_poles benchmark.  The first failure that these stacks
    meet is raised."""
    if taylor.coeffs.ndim != 2:
        raise ValueError(
            f"Taylor block of shape {taylor.coeffs.shape}, not one row per order"
        )
    for p in params:
        if taylor.center != p.z0:
            raise ValueError(f"Taylor block centred at {taylor.center}, approximant at {p.z0}")
    found = {}
    for (fast, N), index in sorted(stacks(params, lambda p: (p.variant == "fast", p.N)).items()):
        items = [(params[i].M, params[i].E, params[i].rho) for i in index]
        solve = (denominator_standard, denominator_fast_qr)[fast]
        found.update(zip(index, solve(taylor, N, items, model.weights)))
    return [found[i] for i in range(len(params))]


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
    degree, along a 1-d array of points, one stack of numerators of one
    coefficient shape and center at a time, so that only one stack's
    values are held at once: yields (indices, values, qmag), values an
    (n, len(indices), dimension) array and qmag (len(indices), n).  Q is
    evaluated by one Horner pass (poly.evaluate), P by one per stack
    (ShiftedPolynomial.__call__ of the rows side by side); each value is
    bit-identical to its approximant's evaluated alone.  |Q| is taken by
    np.hypot, bit-identical to Python abs but inf, not OverflowError,
    where the modulus of finite parts overflows.

    No error or warning is raised near poles of an approximant, where a
    value may overflow to inf or be nan; the caller inspects the returned
    denominator magnitude instead.
    """
    points = np.asarray(points, dtype=complex)
    qz = poly.evaluate([a.denominator for a in approxs], points)
    nums = [a.numerator for a in approxs]
    # repr tells the signed zeros of a center apart
    for index in stacks(nums, lambda p: (p.coeffs.shape, repr(p.center))).values():
        q = qz[index]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = poly.ShiftedPolynomial(nums[index[0]].center, np.stack(
                [nums[i].coeffs for i in index], axis=1))(points)
            values /= q.T[..., None]
            qmag = np.hypot(q.real, q.imag)
        yield index, values, qmag
        del values  # not held while the next stack's Horner pass runs


def evaluate(approx, z):
    """P(z)/Q(z) together with |Q(z)|: a (dimension,) array and a float at
    a point, an array of one row per point and an array of one value per
    point along an array of points, by evaluate_stack, so that the
    commands, which evaluate all their approximants as one stack, write the
    bytes this gives, whatever the other points: Q(z) rounded as Horner on
    Python complex numbers, P(z) as Horner on NumPy complex arrays."""
    points = np.asarray(z, dtype=complex)
    [(_, values, qmag)] = evaluate_stack([approx], points.reshape(-1))
    qmag = qmag[0].reshape(points.shape)
    return values[:, 0].reshape(points.shape + values.shape[2:]), (
        float(qmag) if points.ndim == 0 else qmag)


def approximant_poles(approx):
    """Roots of the denominator, sorted by distance from the center."""
    return poly.roots([approx.denominator])[0]


def functional_value(Q, source, E, w=None):
    """j-functional of a denominator along two independent routes.

    From a Taylor series: the V-norm of the top-order coefficient of Q*S.
    From a modal model: the pole/residue sum obtained by orthogonality of
    the residues.  Both agree to roundoff.  q_j pairs with the descending
    power (z - z0)^{N-j}.  The modal route takes NumPy
    floats, which give inf where Python's raise, and the ratio in log form
    where a factor overflows, |Q| as twice |Q / 2|.
    """
    N = Q.degree
    if isinstance(source, poly.ShiftedPolynomial):
        if w is None:
            raise ValueError("weights are required with a Taylor series")
        A = _taylor_rows(source, N, E + 1)[E:].T.copy()
        q = Q.coeffs[::-1]
        return float(hilbert.norm(A @ q, w))
    if isinstance(source, ModalModel):
        z0 = Q.center
        lam = source.poles
        if lam.size == 0:
            return 0.0
        qz = poly.evaluate([Q], lam)[0]
        dist = np.abs(lam - z0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            qmag = np.hypot(qz.real, qz.imag)
            top = source.residue_norms * qmag
            bottom = dist ** (E + 1)
            terms = top / bottom
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
