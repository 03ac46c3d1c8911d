"""Construction and evaluation of fast and standard LS-Pade approximants.

The fast denominator minimizes the norm of the single top-order Taylor
coefficient of Q*S; the standard one minimizes a rho-weighted sum of
coefficient norms.  Both reduce to a minimal-eigenvector problem for a
small Hermitian Gramian.  The fast variant takes the better conditioned
route through the QR factorization of the Taylor-coefficient quasimatrix;
its Gramian route, the standard functional with the single block of order
E and rho = 1, is kept as a cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert, numerics, poly
from .errors import InsufficientTaylorLength, RhoOverflow
from .modal import ModalModel, TaylorSeries, pole_list, taylor_coefficients

QR_DEGENERACY_THRESHOLD = 1e-14


@dataclass(frozen=True)
class BuildParams:
    z0: complex
    M: int
    N: int
    E: int
    variant: str = "fast"  # "fast" or "standard"
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        if self.M < 0 or self.N < 0:
            raise ValueError("M and N must be nonnegative")
        if self.variant == "fast":
            if self.E < max(self.M, self.N):
                raise ValueError("fast variant requires E >= max(M, N)")
        elif self.variant == "standard":
            if self.E < self.M + self.N:
                raise ValueError("standard variant requires E >= M + N")
            if self.rho is None or self.rho <= 0.0:
                raise ValueError("standard variant requires rho > 0")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class VectorPolynomial:
    center: complex
    coeffs: np.ndarray  # shape (M+1, dimension)

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        """Horner evaluation at a point, or at each of a 1-d array of points
        as the rows of an (n, dimension) array."""
        dz = np.asarray(z, dtype=complex) - self.center
        acc = np.zeros(dz.shape + self.coeffs.shape[1:], dtype=complex)
        for row in self.coeffs[::-1]:
            acc = acc * dz[..., None] + row
        return acc


@dataclass(frozen=True)
class Diagnostics:
    functional_value: float  # minimal j-value achieved by the denominator
    min_eigenvalue: float  # squared functional value (Gramian eigenvalue)
    degenerate: bool  # near-degenerate minimal eigenvalue
    exact_degeneracy: bool = False  # rank-deficient quasimatrix
    condition_estimate: float | None = None


@dataclass(frozen=True)
class PadeApproximant:
    numerator: VectorPolynomial
    denominator: poly.ShiftedPolynomial
    params: BuildParams
    diagnostics: Diagnostics


def _taylor_window(taylor, N, E):
    """Columns S_{E-N}, ..., S_E as a (dim, N+1) array, zero for negative
    orders."""
    if taylor.length < E + 1:
        raise InsufficientTaylorLength(
            f"need E+1 = {E + 1} Taylor coefficients, have {taylor.length}"
        )
    cols = np.zeros((taylor.dimension, N + 1), dtype=complex)
    for j in range(N + 1):
        order = E - N + j
        if order >= 0:
            cols[:, j] = taylor.coefficients[order]
    return cols


def gramian(taylor, N, E, w):
    """Hermitian PSD matrix of V-inner products of the Taylor window:
    entry (i, j) = <S_{E-N+j}, S_{E-N+i}>."""
    if E < 0:
        raise ValueError("E must be nonnegative")
    A = _taylor_window(taylor, N, E)
    G = A.conj().T @ (w.weights[:, None] * A)
    return 0.5 * (G + G.conj().T)


def _gramian_denominator(taylor, M, N, E, rho, w, tol):
    """Minimal eigenvector of the rho-weighted Gramian sum over orders
    M+1..E, rescaled by rho^{-2(M+1)} before the eigensolve.

    The minimizer is invariant under positive scaling of the matrix, so the
    rescaling only guards against overflow.
    """
    A = np.zeros((N + 1, N + 1), dtype=complex)
    for gamma in range(M + 1, E + 1):
        A += rho ** (2 * (gamma - M - 1)) * gramian(taylor, N, gamma, w)
    A = 0.5 * (A + A.conj().T)
    vals, vecs = numerics.hermitian_eigensystem(A, tol)
    res = numerics.min_eigenpair(vals, vecs, np.linalg.norm(A))
    # Python floats, so that an overflowing ratio is inf without a warning.
    top, bottom = float(vals[-1]), float(vals[0])
    den = poly.denominator_from_eigvec(res.vector, taylor.center)
    mu = max(res.value, 0.0)
    diag = Diagnostics(
        functional_value=math.sqrt(mu) * rho ** (M + 1),
        min_eigenvalue=mu,
        degenerate=res.degenerate,
        condition_estimate=top / max(bottom, 1e-300) if top > 0 else 1.0,
    )
    return den, diag


def denominator_fast_gramian(taylor, N, E, w, tol=1e-12):
    """Fast denominator via the minimal eigenvector of the Gramian: the
    standard functional with the single block of order E."""
    if E < N:
        raise ValueError("fast denominator requires E >= N")
    return _gramian_denominator(taylor, E - 1, N, E, 1.0, w, tol)


def _weighted_mgs(A, w):
    """Modified Gram-Schmidt with one reorthogonalization pass under the
    weighted inner product.  Returns (Q, R, first_col_norm).

    A vanishing pivot leaves a zero basis column and a (tiny) diagonal
    entry in R; callers detect this as exact degeneracy.
    """
    dim, ncols = A.shape
    Q = np.zeros_like(A)
    R = np.zeros((ncols, ncols), dtype=complex)
    dot = hilbert.inner_product
    first_norm = float(np.sqrt(dot(A[:, 0], A[:, 0], w).real))
    for j in range(ncols):
        v = A[:, j].copy()
        for _ in range(2):  # MGS + one reorthogonalization pass
            for i in range(j):
                c = dot(v, Q[:, i], w)
                R[i, j] += c
                v = v - c * Q[:, i]
        rjj = float(np.sqrt(max(dot(v, v, w).real, 0.0)))
        R[j, j] = rjj
        if rjj > QR_DEGENERACY_THRESHOLD * max(first_norm, 1e-300):
            Q[:, j] = v / rjj
        # else: basis column stays zero; later projections onto it vanish
    return Q, R, first_norm


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


def denominator_fast_qr(taylor, N, E, w, tol=1e-12):
    """Fast denominator via QR of the quasimatrix [S_{E-N} | ... | S_E].

    Better conditioned than the Gramian route: the singular values of R
    are the square roots of the Gramian eigenvalues.  A rank-deficient
    quasimatrix (diagonal of R below 1e-14 of the first column norm) is
    surfaced as an exact-degeneracy outcome and the denominator is taken
    from the null direction.
    """
    if E < N:
        raise ValueError("fast denominator requires E >= N")
    A = _taylor_window(taylor, N, E)
    Q, R, first_norm = _weighted_mgs(A, w)
    diags = np.abs(np.diag(R))
    cond = float(np.max(diags)) / max(float(np.min(diags)), 1e-300)
    deficient = np.nonzero(diags <= QR_DEGENERACY_THRESHOLD * max(first_norm, 1e-300))[0]
    if deficient.size > 0:
        q = _null_direction(R, int(deficient[0]))
        den = poly.denominator_from_eigvec(q, taylor.center)
        sigma = float(np.linalg.norm(R @ q))
        diag = Diagnostics(
            functional_value=sigma,
            min_eigenvalue=sigma**2,
            degenerate=True,
            exact_degeneracy=True,
            condition_estimate=cond,
        )
        return den, diag
    res = numerics.min_right_singular_vector(R, tol)
    den = poly.denominator_from_eigvec(res.vector, taylor.center)
    diag = Diagnostics(
        functional_value=res.value,
        min_eigenvalue=res.value**2,
        degenerate=res.degenerate,
        condition_estimate=cond,
    )
    return den, diag


def denominator_standard(taylor, M, N, E, rho, w, tol=1e-12):
    """Standard denominator: minimal eigenvector of the rho-weighted Gramian
    sum over orders M+1..E."""
    if E < M + N:
        raise ValueError("standard denominator requires E >= M + N")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if 2.0 * (E - M) * math.log10(rho) > 300.0:
        raise RhoOverflow(f"rho^(2(E-M)) overflows for rho={rho}, E-M={E - M}")
    return _gramian_denominator(taylor, M, N, E, rho, w, tol)


def numerator(taylor, Q, M):
    """Numerator coefficients p_a = sum_l a_l S_{a-l} (truncated Cauchy
    product of the denominator with the Taylor series), a = 0..M."""
    if taylor.length < M + 1:
        raise InsufficientTaylorLength(
            f"need M+1 = {M + 1} Taylor coefficients, have {taylor.length}"
        )
    a = Q.coeffs
    rows = np.zeros((M + 1, taylor.dimension), dtype=complex)
    for alpha in range(M + 1):
        for l in range(min(alpha, a.size - 1) + 1):
            rows[alpha] += a[l] * taylor.coefficients[alpha - l]
    return VectorPolynomial(taylor.center, rows)


def build(model, params):
    """Assemble a full approximant from the Taylor coefficients of a modal
    model at params.z0.

    The fast variant uses the QR denominator path.  Deterministic for fixed
    inputs.
    """
    taylor = taylor_coefficients(model, params.z0, params.E)
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

    No error is raised near poles of the approximant; the caller inspects
    the returned denominator magnitude instead.  Q is evaluated point by
    point with poly.evaluate and Python abs, which round differently from
    NumPy's array arithmetic.
    """
    points = np.asarray(z, dtype=complex)
    qz = [poly.evaluate(approx.denominator, p) for p in points.reshape(-1).tolist()]
    pz = approx.numerator(points)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = pz / np.reshape(qz, points.shape + (1,))
    qmag = np.reshape([abs(q) for q in qz], points.shape)
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
    if isinstance(source, TaylorSeries):
        if w is None:
            raise ValueError("weights are required with a Taylor series")
        A = _taylor_window(source, N, E)
        q = Q.coeffs[::-1]  # q_j pairs with descending powers
        return float(hilbert.norm(A @ q, w))
    if isinstance(source, ModalModel):
        z0 = Q.center
        total = 0.0
        for lam, rnorm in pole_list(source, z0):
            total += (
                rnorm**2
                * abs(poly.evaluate(Q, lam)) ** 2
                / abs(lam - z0) ** (2 * E + 2)
            )
        return float(math.sqrt(total))
    raise TypeError(f"cannot evaluate functional against {type(source).__name__}")


def residual_norm(model, approx, z):
    """V-norm of the residual H(z) = Q(z) S(z) - P(z)."""
    from .modal import evaluate_exact

    s = evaluate_exact(model, z)
    qz = poly.evaluate(approx.denominator, z)
    pz = approx.numerator(z)
    return hilbert.norm(qz * s - pz, model.weights)


def approximant_to_json(approx):
    c = approx.numerator.coeffs
    return {
        "params": {
            "z0": hilbert.complex_to_pair(approx.params.z0),
            "M": approx.params.M,
            "N": approx.params.N,
            "E": approx.params.E,
            "variant": approx.params.variant,
            "rho": approx.params.rho,
        },
        "denominator": poly.poly_to_json(approx.denominator),
        "numerator": np.stack((c.real, c.imag), -1).tolist(),
        "diagnostics": {
            "functional_value": approx.diagnostics.functional_value,
            "min_eigenvalue": approx.diagnostics.min_eigenvalue,
            "degenerate": approx.diagnostics.degenerate,
            "exact_degeneracy": approx.diagnostics.exact_degeneracy,
            "condition_estimate": approx.diagnostics.condition_estimate,
        },
    }


def approximant_from_json(obj):
    p = obj["params"]
    params = BuildParams(
        z0=hilbert.pair_to_complex(p["z0"]),
        M=p["M"],
        N=p["N"],
        E=p["E"],
        variant=p["variant"],
        rho=p["rho"],
    )
    den = poly.poly_from_json(obj["denominator"])
    # [re, im] pairs in C order are the memory layout of complex numbers.
    rows = np.array(obj["numerator"], dtype=float).view(complex)[..., 0]
    num = VectorPolynomial(den.center, rows)
    d = obj["diagnostics"]
    diag = Diagnostics(
        functional_value=d["functional_value"],
        min_eigenvalue=d["min_eigenvalue"],
        degenerate=d["degenerate"],
        exact_degeneracy=d["exact_degeneracy"],
        condition_estimate=d["condition_estimate"],
    )
    return PadeApproximant(num, den, params, diag)
