"""CSV cells against their exact values.

Every input of a cell is a float, so a dyadic rational, and so is every
quantity a cell rounds: oracles.exact_abs2 takes |Q(z)|^2 exactly with
fractions.Fraction.  Here the q_magnitude cells of sweep, compare,
convergence and poles, on the golden synthetic study and on a Helmholtz
study of 36 modes, are held to it.  Q is read from the build artifact of
the same config, whose JSON floats round-trip, and each point from its
row, written to 17 digits.  compare and poles build, per E, the fast
approximant of degree E and the standard one of degree E - N from E
coefficients: the approximants build writes for M = E and M = E - N.

The bound is a first-order roundoff count, as in
test_harness.TestModalErrorIdentity: u = eps / 2 and
gamma(k) = k u / (1 - k u).  Horner of degree d rounded as on Python
complex numbers (poly.evaluate) errs by at most gamma(5 (d + 1)) H,
with H = sum_j |a_j| |z - z0|^j, five roundings per step.  np.hypot is within one
ulp, 2 u of its result, two roundings more.  So with
b = gamma(5 (d + 1) + 2) H, every cell c satisfies |c - |Q(z)|| <= b, which
is checked exactly as (c - b)^2 <= |Q(z)|^2 <= (c + b)^2, the left side
where c > b.

poles writes |Q(z0)| = |a_0| by Python's abs, the hypot of its parts, with
no Horner step: b = gamma(2) |a_0|.  Its abs_error cells are np.hypot of the
two parts of r - lambda, r the root of poly.roots nearest to the pole
lambda: each part rounded once (u of itself), the hypot within one ulp
(2 u), so each cell c is within gamma(3) of the exact distance d, and
gamma(3) d <= gamma(4) c.  The root whose exact distance lies within that
bound must be one no other root is exactly nearer than, and extra_roots
must list, in their order, exactly the roots no pole picked.

The error cells of sweep on the golden study, and of compare and
convergence on both studies, are held to the exact V-norm error of the
stored float P and Q, E^2 = sum_k w_k |S_k(z) - P_k(z)/Q(z)|^2
with S_k(z) = c_k / (lambda_k - z) of the model's float data
(oracles.exact_error2), by the same first-order count as
test_harness.TestModalErrorIdentity.  Per mode: P_k(z) errs by at most
gamma(5 (M + 1)) H_P (NumPy's complex Horner, whose fused products round
less often, not more), Q(z) by gamma(5 (N + 1)) H_Q, as above, which adds
gamma(5 (N + 1)) H_Q / |Q(z)| of |P/Q| to the quotient.  NumPy divides
complex numbers by Smith's rule: each part of a / b errs by at most
gamma(8) (|a_re| + |a_im|) |b| / |b|^2 <= gamma(8) sqrt(2) |a / b|, so the
quotient by gamma(16) of itself.  S_k takes one rounding per part of
lambda_k - z and one division, gamma(17) |S_k|, and the difference
S_k - P_k/Q one rounding more.  So mode k of the computed error is within
gamma(K), K = 5 (M + 1) + 5 (N + 1) + 18, of

    beta_k = H_P,k / |Q(z)| + (1 + H_Q / |Q(z)|) |P_k(z) / Q(z)| + |S_k(z)|,

and by the triangle inequality the V-norm of the computed modes is within
gamma(K) ||beta||_V of E.  The V-norm itself adds gamma(dimension + 4) of
the cell c: np.abs within one ulp (2 u), the square and the weight one
rounding each, the sum of dimension nonnegative terms gamma(dimension - 1),
their square root halving all that and adding u.  So with
b = gamma(dimension + 4) c + gamma(K) ||beta||_V, every finite cell
satisfies (c - b)^2 <= E^2 <= (c + b)^2, the left side where c > b.  A
cell on a pole of S is inf.
"""

import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from pademor import cli, harness, hilbert, modal, numerics, pade, poly

from oracles import exact_abs2, exact_error2, horner_magnitude
from test_golden import CONFIG

HELMHOLTZ_CONFIG = {
    "model": {"kind": "helmholtz", "max_index": 6},
    "z0": [12.0, 0.5],
    "K": [9.0, 15.0],
    "M_list": [3, 5, 7],
    "N": 4,
    "rho_rule": {"factor": 1.5},
}


def run(tmp_path, config, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / command
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return out


def gamma(k):
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def approximants(tmp_path, config, degrees):
    """Each approximant that build writes for config with M_list = degrees,
    by (variant, M); standard is spelt std, as in the CSV columns."""
    with open(run(tmp_path, {**config, "M_list": sorted(degrees)}, "build")) as fh:
        approxs = [pade.approximant_from_json(obj) for obj in json.load(fh)["approximants"]]
    label = {"fast": "fast", "standard": "std"}
    return {(label[a.params.variant], a.params.M): a for a in approxs}


def denominators(tmp_path, config, degrees):
    """Q of each approximant of approximants, by (variant, M)."""
    return {key: a.denominator for key, a in approximants(tmp_path, config, degrees).items()}


def csv_rows(tmp_path, config, command):
    with open(run(tmp_path, config, command)) as fh:
        return list(csv.DictReader(fh))


def check_cell(cell, Q, z, bound):
    """The roundoff bound around a cell holds |Q(z)|, checked exactly."""
    cell, b = Fraction(float(cell)), Fraction(bound)
    exact = exact_abs2(Q, z)
    assert exact <= (cell + b) ** 2, z
    assert cell <= b or (cell - b) ** 2 <= exact, z


def horner_bound(Q, points):
    return gamma(5 * (Q.degree + 1) + 2) * horner_magnitude(Q, np.asarray(points))


@pytest.mark.parametrize("config", [CONFIG, HELMHOLTZ_CONFIG],
                         ids=["synthetic", "helmholtz"])
def test_sweep_q_magnitude_is_exact_to_roundoff(tmp_path, config):
    dens = denominators(tmp_path, config, config["M_list"])
    rows = csv_rows(tmp_path, config, "sweep")
    points = [float(row["z"]) for row in rows]
    checked = 0
    for (variant, M), Q in dens.items():
        column = f"q_magnitude_{variant}_M{M}"
        for row, z, b in zip(rows, points, horner_bound(Q, points).tolist()):
            check_cell(row[column], Q, z, b)
            checked += 1
    assert checked == 2 * len(config["M_list"]) * len(rows) == 606


def check_error_cell(model, approx, z, cell):
    """The roundoff bound around an error cell holds the exact V-norm error
    of the stored approximant at z, checked exactly; a cell on an
    eigenvalue is inf."""
    cell = float(cell)
    if z in model.eigenvalues:
        assert cell == math.inf, z
        return
    Q, P = approx.denominator, approx.numerator
    K = 5 * (P.degree + 1) + 5 * (Q.degree + 1) + 18
    point = np.array([z])
    qz = np.abs(Q(point)).item()
    hq = horner_magnitude(Q, point).item()
    beta = (horner_magnitude(P, point)[0] / qz
            + (1 + hq / qz) * np.abs(P(point)[0]) / qz
            + np.abs(model.coefficients / (model.eigenvalues - z)))
    bound = gamma(model.dimension + 4) * cell + gamma(K) * hilbert.norm(beta, model.weights)
    c, b = Fraction(cell), Fraction(bound)
    exact = exact_error2(model, approx, z)
    assert exact <= (c + b) ** 2, (approx.params, z)
    assert c <= b or (c - b) ** 2 <= exact, (approx.params, z)


def test_sweep_error_is_exact_to_roundoff(tmp_path):
    model = harness.build_model(harness.parse_config(CONFIG))
    approxs = approximants(tmp_path, CONFIG, CONFIG["M_list"])
    rows = csv_rows(tmp_path, CONFIG, "sweep")
    checked = 0
    for (variant, M), approx in approxs.items():
        for row in rows:
            z = float(row["z"])
            check_error_cell(model, approx, z, row[f"abs_error_{variant}_M{M}"])
            checked += z not in model.eigenvalues
    assert checked == 2 * len(CONFIG["M_list"]) * (len(rows) - 2) == 594


# compare's E_list for the Helmholtz study; the golden one has its own.
HELMHOLTZ_E_LIST = [4, 6, 9]
# convergence's probes for the Helmholtz study, off its poles.
HELMHOLTZ_PROBES = [[10.5, 0.3], [13.5, -0.2]]


@pytest.mark.parametrize("config", [CONFIG, {**HELMHOLTZ_CONFIG, "E_list": HELMHOLTZ_E_LIST}],
                         ids=["synthetic", "helmholtz"])
def test_compare_q_magnitude_is_exact_to_roundoff(tmp_path, config):
    E_list, N = config["E_list"], config["N"]
    dens = denominators(tmp_path, config, {*E_list, *(E - N for E in E_list)})
    rows = csv_rows(tmp_path, config, "compare")
    for row in rows:
        E, z = int(row["E"]), float(row["z"])
        for variant, M in (("fast", E), ("std", E - N)):
            Q = dens[variant, M]
            check_cell(row[f"q_magnitude_{variant}"], Q, z, horner_bound(Q, [z]).item())
    assert len(rows) == len(E_list) * 101


# the golden grid holds two eigenvalues, whose cells are inf
@pytest.mark.parametrize("config, cells", [
    (CONFIG, 2 * 4 * 99), ({**HELMHOLTZ_CONFIG, "E_list": HELMHOLTZ_E_LIST}, 2 * 3 * 101),
], ids=["synthetic", "helmholtz"])
def test_compare_error_is_exact_to_roundoff(tmp_path, config, cells):
    model = harness.build_model(harness.parse_config(config))
    E_list, N = config["E_list"], config["N"]
    approxs = approximants(tmp_path, config, {*E_list, *(E - N for E in E_list)})
    rows = csv_rows(tmp_path, config, "compare")
    checked = 0
    for row in rows:
        E, z = int(row["E"]), float(row["z"])
        for variant, M in (("fast", E), ("std", E - N)):
            check_error_cell(model, approxs[variant, M], z, row[f"error_{variant}"])
            checked += z not in model.eigenvalues
    assert checked == cells


@pytest.mark.parametrize("config", [CONFIG, {**HELMHOLTZ_CONFIG, "z_probes": HELMHOLTZ_PROBES}],
                         ids=["synthetic", "helmholtz"])
def test_convergence_error_is_exact_to_roundoff(tmp_path, config):
    model = harness.build_model(harness.parse_config(config))
    approxs = approximants(tmp_path, config, config["M_list"])
    rows = csv_rows(tmp_path, config, "convergence")
    for row in rows:
        M, z = int(row["M"]), complex(row["probe"])
        for variant in ("fast", "std"):
            check_error_cell(model, approxs[variant, M], z, row[f"error_{variant}"])
    assert len(rows) == len(config["M_list"]) * len(config["z_probes"])


@pytest.mark.parametrize("config", [CONFIG, {**HELMHOLTZ_CONFIG, "z_probes": HELMHOLTZ_PROBES}],
                         ids=["synthetic", "helmholtz"])
def test_convergence_q_magnitude_is_exact_to_roundoff(tmp_path, config):
    dens = denominators(tmp_path, config, config["M_list"])
    rows = csv_rows(tmp_path, config, "convergence")
    for row in rows:
        M, z = int(row["M"]), complex(row["probe"])
        for variant in ("fast", "std"):
            Q = dens[variant, M]
            check_cell(row[f"q_magnitude_{variant}"], Q, z, horner_bound(Q, [z]).item())
    assert len(rows) == len(config["M_list"]) * len(config["z_probes"])


@pytest.mark.parametrize("config", [CONFIG, {**HELMHOLTZ_CONFIG, "E_list": HELMHOLTZ_E_LIST}],
                         ids=["synthetic", "helmholtz"])
def test_poles_q_magnitude_is_exact_to_roundoff(tmp_path, config):
    E_list, N = config["E_list"], config["N"]
    dens = denominators(tmp_path, config, {*E_list, *(E - N for E in E_list)})
    rows = csv_rows(tmp_path, config, "poles")
    for row in rows:
        E = int(row["E"])
        for variant, M in (("fast", E), ("std", E - N)):
            Q = dens[variant, M]
            bound = gamma(2) * horner_magnitude(Q, np.array([Q.center])).item()
            check_cell(row[f"q_magnitude_{variant}"], Q, Q.center, bound)
    assert len(rows) == len(E_list)


def exact_distance2(a, b):
    """|a - b|^2 of two complex floats, exactly, as a Fraction."""
    dr = Fraction(a.real) - Fraction(b.real)
    di = Fraction(a.imag) - Fraction(b.imag)
    return dr * dr + di * di


@pytest.mark.parametrize("config, cells", [
    (CONFIG, 4 * 2 * 2), ({**HELMHOLTZ_CONFIG, "E_list": HELMHOLTZ_E_LIST}, 3 * 2 * 4),
], ids=["synthetic", "helmholtz"])
def test_poles_errors_are_exact_to_roundoff(tmp_path, config, cells):
    E_list, N = config["E_list"], config["N"]
    model = harness.build_model(harness.parse_config(config))
    true_poles = modal.pole_list(model, complex(*config["z0"]))[:N]
    dens = denominators(tmp_path, config, {*E_list, *(E - N for E in E_list)})
    rows = csv_rows(tmp_path, config, "poles")
    checked = 0
    for row in rows:
        E = int(row["E"])
        for variant, M in (("fast", E), ("std", E - N)):
            roots = poly.roots([dens[variant, M]])[0]
            matched = set()
            for a, lam in enumerate(true_poles, 1):
                cell = Fraction(float(row[f"abs_error_{variant}_lambda{a}"]))
                b = Fraction(gamma(4)) * cell
                d2 = [exact_distance2(r, lam) for r in roots]
                # the cell is the distance to a root within the bound, and
                # no other root is exactly nearer to lambda
                [j, *_] = [j for j, d in enumerate(d2)
                           if d <= (cell + b) ** 2 and (cell <= b or (cell - b) ** 2 <= d)]
                assert min(d2) == d2[j], (row["E"], variant, a)
                matched.add(j)
                checked += 1
            text = row[f"extra_roots_{variant}"]
            extras = [complex(t) for t in text.split(";")] if text else []
            assert [roots.index(r) for r in extras] == sorted(
                set(range(len(roots))) - matched), (row["E"], variant)
    assert checked == cells


def exact_window_norms2(S, q, N, gamma, w):
    """||sum_l q_l S_{gamma-N+l}||_V^2 and ||[S_{gamma-N} .. S_gamma]||_{V,F}^2
    of the float Taylor rows S (zero for negative orders), exactly, as
    Fractions: q_l pairs with S_{gamma-N+l}."""
    value = frobenius = Fraction(0)
    for k, wk in enumerate(w.weights.tolist()):
        re = im = Fraction(0)
        for l, ql in enumerate(q):
            g = gamma - N + l
            if g < 0:
                continue
            sr, si = Fraction(S[g, k].real), Fraction(S[g, k].imag)
            qr, qi = Fraction(ql.real), Fraction(ql.imag)
            re, im = re + qr * sr - qi * si, im + qr * si + qi * sr
            frobenius += Fraction(wk) * (sr * sr + si * si)
        value += Fraction(wk) * (re * re + im * im)
    return value, frobenius


@pytest.mark.parametrize("config", [CONFIG, HELMHOLTZ_CONFIG], ids=["synthetic", "helmholtz"])
def test_build_functional_value_is_exact_to_roundoff(tmp_path, config):
    """Each build artifact entry's functional_value holds the exact
    j-functional of its stored float Q, computed from the float Taylor
    coefficients with fractions.Fraction, within a bound derived from the
    solve's backward error, not fitted.

    j is the V-norm ||A q|| of the Taylor window A = [S_{E-N} .. S_E] for
    the fast variant, q_l = a_{N-l} the stored coefficients reversed, and
    j^2 = sum_{g=M+1..E} rho^(2g) ||A_g q||^2 for the standard one.

    Fast: the weighted Gram-Schmidt with one reorthogonalization pass is
    backward stable, R the exact factor of A + dA with
    ||dA||_{V,F} <= gamma((2N + 1)(d + 4)) ||A||_{V,F} (d modes; per column
    j, 2j projections of d + 4 roundings each and one norm), and LAPACK's
    SVD gives an exact singular pair of R + dR with
    ||dR||_F <= p(n) u ||R||_F, p(n) = 10 n^2 for the n = N + 1 columns (the
    modestly growing p(n) of LAPACK's error bounds, taken generously).  So
    the stored unit vector q, within gamma(n + 2) of unit norm, has
    |j - f| <= gamma(K) ||A||_{V,F} + gamma(n + 2) f, K the sum of the two
    counts; power-of-two scalings are exact.

    Standard: Jacobi's contract ||H v - mu v|| <= EIGEN_TOL ||H||_F
    (numerics.EIGEN_TOL) for the computed sum H, whose entries err from the
    exact ones by gamma(d + T + 8) of sum_g rho^(2g') ||A_g||_{V,F}^2 (each
    block's inner products, its symmetrisation, the T weights rho^(2t) and
    their sum), bounds the Rayleigh quotient of the stored q: with
    F = sum_g rho^(2g) ||A_g||_{V,F}^2, |j^2 - f^2| <= (EIGEN_TOL +
    gamma(d + T + 8)) F (1 + gamma(n + 4)) + gamma(2n + 12) f^2, the last
    term for the normalisation, the square root and the scalings of f."""
    model = harness.build_model(harness.parse_config(config))
    w, dim = model.weights, model.dimension
    u = Fraction(np.finfo(float).eps) / 2
    checked = 0
    for approx in approximants(tmp_path, config, config["M_list"]).values():
        p, f = approx.params, Fraction(approx.diagnostics.functional_value)
        N, n = p.N, p.N + 1
        S = modal.taylor_coefficients(model, p.z0, p.E).coeffs
        q = approx.denominator.coeffs[::-1].tolist()
        if p.variant == "fast":
            j2, frob = exact_window_norms2(S, q, N, p.E, w)
            K = (2 * N + 1) * (dim + 4) + 10 * n * n
            # sqrt rounded up by a few ulps, so that the float stays a bound
            b = (Fraction(gamma(K) * math.sqrt(frob) * (1 + 4 * float(u)))
                 + Fraction(gamma(n + 2)) * f)
            assert j2 <= (f + b) ** 2, p
            assert f <= b or (f - b) ** 2 <= j2, p
        else:
            j2 = frob = Fraction(0)
            for g in range(p.M + 1, p.E + 1):
                value, window = exact_window_norms2(S, q, N, g, w)
                weight = Fraction(p.rho) ** (2 * g)
                j2, frob = j2 + weight * value, frob + weight * window
            T = p.E - p.M
            B = ((Fraction(numerics.EIGEN_TOL) + Fraction(gamma(dim + T + 8))) * frob
                 * (1 + Fraction(gamma(n + 4))) + Fraction(gamma(2 * n + 12)) * f * f)
            assert f * f - B <= j2 <= f * f + B, p
        checked += 1
    assert checked == 2 * len(config["M_list"])


def exact_r_diagonal2(S, N, E, w):
    """R_jj^2, j = 0..N, of the weighted QR of the window [S_{E-N} .. S_E]
    of the float Taylor rows S (zero for negative orders), exactly, as
    Fractions: the pivots D_j / D_{j-1} of Gaussian elimination on the
    window's Gram matrix W^H diag(w) W, D_j its leading principal minors;
    and that Gram matrix rounded to floats."""
    n, zero = N + 1, (Fraction(0), Fraction(0))
    cols = [[(Fraction(S[g, k].real), Fraction(S[g, k].imag)) if g >= 0 else zero
             for k in range(S.shape[1])] for g in range(E - N, E + 1)]
    weights = [Fraction(x) for x in w.weights.tolist()]
    G = [[[sum(wk * (ar * br + ai * bi) for wk, (ar, ai), (br, bi) in zip(weights, a, b)),
           sum(wk * (ar * bi - ai * br) for wk, (ar, ai), (br, bi) in zip(weights, a, b))]
          for b in cols] for a in cols]
    gram = np.array([[complex(float(re), float(im)) for re, im in row] for row in G])
    pivots = []
    for k in range(n):
        p = G[k][k][0]  # real, a ratio of two minors of a Hermitian matrix
        pivots.append(p)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                (xr, xi), (yr, yi) = G[i][k], G[k][j]
                G[i][j] = [G[i][j][0] - (xr * yr - xi * yi) / p,
                           G[i][j][1] - (xr * yi + xi * yr) / p]
    return pivots, gram


@pytest.mark.parametrize("config", [CONFIG, HELMHOLTZ_CONFIG], ids=["synthetic", "helmholtz"])
def test_build_condition_estimate_is_exact_to_roundoff(tmp_path, config):
    """Each fast build entry's condition_estimate, max_j R_jj / min_j R_jj
    of its window's weighted QR factor, against the exact ratio
    sqrt(max_j R_jj^2 / min_j R_jj^2), R_jj^2 = D_j / D_{j-1} from the
    leading principal minors of the window's Gram matrix in Fractions
    (exact_r_diagonal2), within a bound derived from the backward error of
    the Gram-Schmidt, not fitted.

    The weighted Gram-Schmidt with one reorthogonalization pass gives the
    exact R factor of A + dA, ||dA||_{V,F} <= eta ||A||_{V,F} with
    eta = gamma((2N + 1)(d + 4)) (d modes; as in
    test_build_functional_value_is_exact_to_roundoff), and power-of-two
    scalings are exact.  R_jj is the V-distance of column a_j from the span
    of a_0..a_{j-1}: moving a_j by at most eta ||A|| moves it by as much,
    and turning that span by an angle whose sine is at most
    eta ||A|| / sigma_{j-1}, sigma_{j-1} the smallest singular value of
    a_0..a_{j-1}, moves it by at most ||a_j|| times that sine (first
    order).  So each computed R_jj is within
    b_j = eta ||A|| (1 + ||a_j|| / sigma_{j-1}) of the exact one, the
    largest by B = max_j b_j and the smallest as well, and the quotient,
    rounded once, is within (B / R_max + B / R_min + u) of the exact ratio,
    relatively; the oracle's own ratio, a Fraction rounded to a float and
    its square root, adds 2 u.  ||a_j|| and ||A|| come from the exact Gram
    diagonal, sigma_{j-1}^2 from eigvalsh of its leading block in floats,
    both first order.  The standard entries' estimates are Jacobi
    eigenvalue ratios of a Gramian sum, which no rational computation
    gives: they stay open."""
    model = harness.build_model(harness.parse_config(config))
    degrees = set(config["M_list"]) | set(config.get("E_list", []))
    checked = 0
    for approx in approximants(tmp_path, config, degrees).values():
        p, diag = approx.params, approx.diagnostics
        if p.variant != "fast":
            continue
        assert not diag.exact_degeneracy, p  # every window of both studies has full rank
        S = modal.taylor_coefficients(model, p.z0, p.E).coeffs
        pivots, gram = exact_r_diagonal2(S, p.N, p.E, model.weights)
        r = [math.sqrt(x) for x in pivots]
        norms = np.sqrt(gram.diagonal().real)
        sigmas = [math.inf] + [math.sqrt(np.linalg.eigvalsh(gram[:j, :j])[0])
                               for j in range(1, p.N + 1)]
        eta = gamma((2 * p.N + 1) * (model.dimension + 4))
        frob = math.sqrt(gram.diagonal().real.sum())
        B = max(eta * frob * (1 + a / s) for a, s in zip(norms, sigmas))
        exact = math.sqrt(max(pivots) / min(pivots))
        rel = B / max(r) + B / min(r) + gamma(3)
        assert abs(diag.condition_estimate - exact) <= rel * exact, (p, rel)
        checked += 1
    assert checked == len(degrees)
