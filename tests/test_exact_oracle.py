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
complex numbers (poly.evaluate_stack) errs by at most gamma(5 (d + 1)) H,
with H = sum_j |a_j| |z - z0|^j, five roundings per step.  np.hypot is within one
ulp, 2 u of its result, two roundings more.  So with
b = gamma(5 (d + 1) + 2) H, every cell c satisfies |c - |Q(z)|| <= b, which
is checked exactly as (c - b)^2 <= |Q(z)|^2 <= (c + b)^2, the left side
where c > b.

poles writes |Q(z0)| = |a_0| by Python's abs, the hypot of its parts, with
no Horner step: b = gamma(2) |a_0|.

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

from pademor import cli, harness, hilbert, pade

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
