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

The approximants of a command are built as one stack (build): every
denominator first, solved as one stack per variant and N (denominators),
each giving the bytes it gives alone, so that NumPy's cost per call is
paid once: the fast ones by one QR of all their windows
(hilbert._gram_schmidt), one SVD of all their full-rank factors and one
null-direction pass over the rank-deficient ones (_null_directions), the
standard ones by one lockstep Jacobi over all their Gramian sums
(numerics.hermitian_min_eigenpair), whose blocks, shared by the sums of a
stack, are each computed once, on windows sliced from one conjugated and
one weighted copy of the Taylor rows (_gramian_blocks); then the
numerators.  They are evaluated as one stack as well (_evaluate_stack), at
the points given: Q by one Horner pass and P by one pass over all the
numerators (poly._horner); the caller (harness._grid_errors) chooses the
blocks of points.
"""

import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np

from . import hilbert, numerics, poly
from .errors import DimensionMismatch, InsufficientTaylorLength, NotNormalized, RhoOverflow
from .modal import ModalModel, taylor_coefficients

QR_DEGENERACY_THRESHOLD = 1e-14
SCALE_EXPONENT = 400


class _BuildFields(NamedTuple):
    z0: complex
    M: int
    N: int
    E: int
    variant: str  # "fast" or "standard"
    rho: float | None


class BuildParams(_BuildFields):
    """The degrees, variant and rho of one approximant, checked on
    construction (ValueError): M, N and E integers (NumPy's included, not
    bools), rho None or a real number; a NamedTuple may not define __new__
    itself."""

    __slots__ = ()

    def __new__(cls, z0, M, N, E, variant="fast", rho=None):
        z0 = complex(z0)
        if not np.isfinite(z0):
            raise ValueError(f"center z0 = {z0} is not finite")
        for name, value in (("M", M), ("N", N), ("E", E)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} = {value!r} must be an integer")
        if rho is not None and (not isinstance(rho, numbers.Real) or isinstance(rho, bool)):
            raise ValueError(f"rho = {rho!r} must be None or a real number")
        if M < 0 or N < 0:
            raise ValueError("M and N must be nonnegative")
        if variant == "fast":
            if E < max(M, N):
                raise ValueError("fast variant requires E >= max(M, N)")
        elif variant == "standard":
            if E < M + N:
                raise ValueError("standard variant requires E >= M + N")
            if rho is None or not rho > 0.0:
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
    numerics._MinEigen of res; the unit-norm check (NotNormalized, a nan norm
    included) is one pass."""
    vectors = np.array([r.vector for r in res])
    norms = numerics._norms(vectors)
    off = np.flatnonzero(~(abs(norms - 1.0) <= 1e-12))
    if off.size:
        raise NotNormalized(f"eigenvector norm {float(norms[off[0]]):.15e} != 1")
    return [poly.ShiftedPolynomial(z0, q) for q in vectors[:, ::-1].copy()]


def _scale_exponents(amax, weights=None):
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


def _scaled(x, rho, n, k):
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


def _scale(X, even=False):
    """Exponents k (_scale_exponents) of each matrix X[b], made even
    upwards if even; X[b] is scaled by 2^-k in place where k != 0 only: a
    complex product by 1 turns a real part -0 whose imaginary part is
    negative into +0."""
    ks = _scale_exponents(abs(X).max(axis=(1, 2), initial=0.0).tolist())
    ks = [k + k % 2 * even for k in ks]
    if any(ks):
        X[[k != 0 for k in ks]] *= np.array([2.0**-k for k in ks if k], complex)[:, None, None]
    return ks


def _gramian_blocks(taylor, N, keys, w):
    """{(k, gamma): Gramian of order gamma of the Taylor rows scaled by
    2^-k} for the (k, gamma) of keys, each block once: the Hermitian PSD
    matrix of V-inner products of the window of order gamma, entry (i, j)
    = <S_{gamma-N+j}, S_{gamma-N+i}>; a negative order raises ValueError.
    The windows are slices of one conjugated and one weighted copy of the
    zero-padded rows per k (_taylor_rows), so each block takes the float
    operations, operand order and BLAS call of the block alone; the blocks
    are symmetrised as one stack."""
    rows, copies = _taylor_rows(taylor, N, max((g for _, g in keys), default=0) + 1), {}
    keys = list(dict.fromkeys(keys))
    G = np.empty((len(keys), N + 1, N + 1), dtype=complex)
    for b, (k, gamma) in enumerate(keys):
        if gamma < 0:
            raise ValueError("E must be nonnegative")
        if k not in copies:
            scaled = rows * 2.0**-k if k else rows
            copies[k] = scaled.conj(), w.weights * scaled
        conj, weighted = copies[k]
        G[b] = conj[gamma : gamma + N + 1] @ weighted[gamma : gamma + N + 1].T
    return dict(zip(keys, 0.5 * (G + G.conj().mT)))


def denominator_standard(taylor, N, items, w):
    """Standard denominator: the minimal eigenvector of the rho-weighted
    Gramian sum over orders M+1..E for each (M, E, rho) of items, rescaled
    by rho^{-2(M+1)}, all sums solved by one numerics.hermitian_min_eigenpair
    call: a (denominator, diagnostics) pair per item.  An item whose rho is
    not positive raises ValueError, one whose rho^(2(E-M)) overflows
    RhoOverflow, both before the solve.

    The minimizer is invariant under positive scaling of the matrix, so the
    rescaling only guards against overflow, as do the power-of-two
    scalings (_scale_exponents) of the Taylor windows and of the
    sum, whose entries are squares of window entries times up to
    rho^{2(E-M-1)}: the windows are scaled when their largest entry times
    rho^{E-M-1} passes 2^SCALE_EXPONENT, and the Frobenius norm of
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
        if not rho > 0.0:
            raise ValueError("rho must be positive")
        if 2.0 * (E - M) * math.log10(rho) > 300.0:
            raise RhoOverflow(f"rho^(2(E-M)) overflows for rho={rho}, E-M={E - M}")
    peaks = np.abs(taylor.coeffs).max(axis=1, initial=0.0).tolist()
    ks = _scale_exponents(*zip(*[(max(peaks[max(M + 1 - N, 0) : E + 1], default=0.0), (
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
        _scaled(math.sqrt(max(r.value, 0.0)), rho, M + 1, k + j), r.degenerate, False,
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


def _null_directions(R, cols):
    """Unit vector q with R q ~= 0 of each factor of a (B, n, n) stack,
    built from its rank-deficient column, the entry of cols, as a _MinEigen
    of value ||R q||, flagged degenerate: one solve and one R q per factor,
    the norms, the division and the phase fix as passes over the stack.  A
    vector whose norm overflows is first scaled by the power of two that
    brings its largest part into [1, 2), exactly (np.ldexp); no other
    vector is touched."""
    if not len(R):
        return []
    Q = np.zeros(R.shape[:2], dtype=complex)
    for q, Rb, j in zip(Q, R, cols):
        q[j] = 1.0
        q[:j] = np.linalg.solve(Rb[:j, :j], -Rb[:j, j])
    with np.errstate(over="ignore"):
        sizes = numerics._norms(Q)
    big = np.isinf(sizes)
    if big.any():
        parts = Q[big].view(float)
        Q[big] = np.ldexp(parts, 1 - np.frexp(abs(parts).max(axis=1))[1][:, None]).view(complex)
        sizes[big] = numerics._norms(Q[big])
    Q = numerics._phase_fix(Q / sizes[:, None])
    values = numerics._norms(np.array([Rb @ q for Rb, q in zip(R, Q)]))
    return [numerics._MinEigen(value, q, True) for value, q in zip(values.tolist(), Q)]


def denominator_fast_qr(taylor, N, items, w):
    """Fast denominator via QR of the quasimatrix [S_{E-N} | ... | S_E] for
    the E of each (M, E, rho) of items: a (denominator, diagnostics) pair
    per item.

    Better conditioned than the Gramian route: the singular values of R
    are the square roots of the Gramian eigenvalues, and R itself, not
    R^H R, goes to the SVD (numerics.min_right_singular_vector).  A
    rank-deficient quasimatrix (diagonal of R below 1e-14 of the first
    column norm) is surfaced as an exact-degeneracy outcome and the
    denominator is taken from the null direction (_null_directions).  Each
    window is scaled by its own power of two (_scale), the windows factored
    as one stack, the full-rank factors R given to one SVD and the
    rank-deficient ones to one null-direction pass; the Taylor rows are
    freed before the QR."""
    if not items:
        return []
    Es = [E for _, E, _ in items]
    if min(Es) < N:
        raise ValueError("fast denominator requires E >= N")
    rows = _taylor_rows(taylor, N, max(Es) + 1)
    windows = np.array([rows[E : E + N + 1].T for E in Es])
    del rows
    ks = _scale(windows)
    R = hilbert._gram_schmidt(windows, w, QR_DEGENERACY_THRESHOLD)
    diags = np.abs(R.diagonal(axis1=1, axis2=2))
    low = diags <= QR_DEGENERACY_THRESHOLD * np.maximum(diags[:, :1], 1e-300)
    exact = low.any(axis=1)
    found = (iter(numerics.min_right_singular_vector(R[~exact])),
             iter(_null_directions(R[exact], low[exact].argmax(axis=1))))
    res = [next(found[e]) for e in exact.tolist()]
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
    diagnostics) pair from taylor, a block of the model's Taylor
    coefficients (modal.taylor_coefficients) centred at each params.z0,
    one row per order and of any length from the largest E + 1 up
    (ValueError or InsufficientTaylorLength otherwise).  The denominators
    of each variant and N are solved as one stack, the standard ones first
    (denominator_standard), then the fast ones (denominator_fast_qr), so
    that the stack's large arrays are freed right before build builds the
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
    groups = poly._stacks(params, lambda p: (p.variant == "fast", p.N))
    for (fast, N), index in sorted(groups.items()):
        items = [(params[i].M, params[i].E, params[i].rho) for i in index]
        solve = (denominator_standard, denominator_fast_qr)[fast]
        found.update(zip(index, solve(taylor, N, items, model.weights)))
    return [found[i] for i in range(len(params))]


def build(model, params):
    """The approximant of each of params, a list of BuildParams of one
    center z0: every denominator first (denominators), then the numerators,
    all from the one block of Taylor coefficients of the largest E.  One
    approximant is build(model, [p])[0]; a lone BuildParams raises
    TypeError, as its fields would be taken for items.

    Row g of the block depends only on g, so each approximant is
    bit-identical to one built alone from its own block.  The fast variant
    uses the QR denominator path.
    """
    if isinstance(params, BuildParams):
        raise TypeError("build takes a list of BuildParams: build(model, [params])[0]")
    if not params:
        return []
    taylor = taylor_coefficients(model, params[0].z0, max(p.E for p in params))
    return [PadeApproximant(numerator(taylor, den, p.M), den, p, diag)
            for p, (den, diag) in zip(params, denominators(model, params, taylor))]


def _evaluate_stack(approxs, points):
    """(index, values, qmag): P(z)/Q(z) and |Q(z)| of each of approxs, a
    stack of one center, numerator row shape and denominator degree
    (ValueError otherwise), at each of a 1-d array of points, as a
    (len(approxs), points, dimension) and a (len(approxs), points) array in
    the order index, by numerator degree, highest first; empty arrays for
    an empty stack.  One Horner pass for Q (poly.evaluate) and one for P
    (poly._horner); each value is bit-identical to its approximant's
    evaluated alone, whatever the other points.  |Q| is taken by np.hypot,
    bit-identical to Python abs but inf, not OverflowError, where the
    modulus of finite parts overflows.  No error or warning is raised near
    poles of an approximant, where a value may overflow to inf or be nan;
    the caller inspects |Q| instead."""
    points = np.asarray(points, dtype=complex)
    # repr tells the signed zeros of a center apart
    if len({(a.numerator.coeffs.shape[1:], repr(a.numerator.center), a.denominator.degree)
            for a in approxs}) > 1:
        raise ValueError("a stack of more than one center, row shape or denominator degree")
    if not approxs:
        return [], np.empty((0, points.size), complex), np.empty((0, points.size))
    index = sorted(range(len(approxs)), key=lambda i: -approxs[i].numerator.degree)
    ps = [approxs[i].numerator for i in index]
    qz = poly.evaluate([approxs[i].denominator for i in index], points)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = poly._horner(ps, points - ps[0].center)
        values /= qz[..., None]
        qmag = np.hypot(qz.real, qz.imag)
    return index, values, qmag


def evaluate(approx, z):
    """P(z)/Q(z) together with |Q(z)|: a (dimension,) array and a float at
    a point, an array of one row per point and an array of one value per
    point along an array of points, by _evaluate_stack, so that the
    commands, which evaluate all their approximants as one stack, write the
    bytes this gives, whatever the other points: Q(z) rounded as Horner on
    Python complex numbers, P(z) as Horner on NumPy complex arrays."""
    points = np.asarray(z, dtype=complex)
    _, [values], [qmag] = _evaluate_stack([approx], points.reshape(-1))
    return values.reshape(points.shape + values.shape[1:]), (
        float(qmag[0]) if points.ndim == 0 else qmag.reshape(points.shape))


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
    """The JSON object of an approximant, one build artifact line as
    hilbert.json_bytes writes it: the BuildParams and Diagnostics fields by
    name, a non-finite diagnostic as its float (json_bytes writes null),
    complex numbers as [re, im] pairs, the denominator as {"center",
    "coeffs"}, one row of pairs per numerator coefficient, the arrays as
    hilbert._finite_array views.  A non-finite numerator entry raises
    NonFiniteValue."""
    p, den = approx.params, approx.denominator
    what = f"numerator of the {p.variant} approximant with M = {p.M}"
    return {
        "params": {**p._asdict(), "z0": hilbert._finite_array(p.z0, "z0")},
        "denominator": {
            "center": hilbert._finite_array(den.center, "polynomial center"),
            "coeffs": hilbert._finite_array(den.coeffs, "polynomial coefficients"),
        },
        "diagnostics": approx.diagnostics._asdict(),
        "numerator": hilbert._finite_array(approx.numerator.coeffs, what),
    }


def _pair(entry):
    """The complex number of one [re, im] pair (hilbert._pairs_to_array)."""
    z = hilbert._pairs_to_array(entry)
    if z.shape:
        raise DimensionMismatch(f"array of shape {z.shape + (2,)} is not one [re, im] pair")
    return complex(z)


def approximant_from_json(obj):
    """The approximant of an artifact object, approximant_to_json's form.
    Its objects are checked by hilbert's rule for the JSON objects the
    package reads (ValueError, "at $...: ..."), its params by BuildParams
    (ValueError), and its arrays by hilbert._pairs_to_array
    (NonFiniteValue, DimensionMismatch).  It also raises ValueError where a
    diagnostic flag is not a bool or a diagnostic value not a number or
    null, and DimensionMismatch unless z0 and the center are one [re, im]
    pair each, the denominator holds N + 1 coefficients and the numerator
    M + 1 rows of mode coefficients."""
    keys = ("params", "denominator", "numerator", "diagnostics")
    hilbert._known_keys(obj, "$", keys, required=keys)
    p = obj["params"]
    hilbert._known_keys(p, "$.params", _BuildFields._fields, required=("z0", "M", "N", "E"))
    params = BuildParams(**{**p, "z0": _pair(p["z0"])})
    den = obj["denominator"]
    hilbert._known_keys(den, "$.denominator", ("center", "coeffs"), required=("center", "coeffs"))
    den = poly.ShiftedPolynomial(_pair(den["center"]), hilbert._pairs_to_array(den["coeffs"]))
    num = poly.ShiftedPolynomial(den.center, hilbert._pairs_to_array(obj["numerator"]))
    if den.coeffs.shape != (params.N + 1,) or num.coeffs.shape[:-1] != (params.M + 1,):
        raise DimensionMismatch(
            f"denominator of shape {den.coeffs.shape} and numerator of shape "
            f"{num.coeffs.shape} for N = {params.N}, M = {params.M}"
        )
    hilbert._known_keys(obj["diagnostics"], "$.diagnostics", Diagnostics._fields,
                        required=("functional_value", "degenerate"))
    diag = {**Diagnostics._field_defaults, **obj["diagnostics"]}
    for key in ("degenerate", "exact_degeneracy"):
        hilbert._require(isinstance(diag[key], bool), f"$.diagnostics.{key}",
                         "must be true or false")
    for key in ("functional_value", "condition_estimate"):  # null where one overflowed
        hilbert._require(diag[key] is None or hilbert._is_number(diag[key]),
                         f"$.diagnostics.{key}", "must be a number or null")
    return PadeApproximant(num, den, params, Diagnostics(**diag))
