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
gamma(k) = k u / (1 - k u).  Horner of degree d on Python complex numbers
(poly.evaluate_points) errs by at most gamma(5 (d + 1)) H, with
H = sum_j |a_j| |z - z0|^j, five roundings per step.  np.hypot is within one
ulp, 2 u of its result, two roundings more.  So with
b = gamma(5 (d + 1) + 2) H, every cell c satisfies |c - |Q(z)|| <= b, which
is checked exactly as (c - b)^2 <= |Q(z)|^2 <= (c + b)^2, the left side
where c > b.

poles writes |Q(z0)| = |a_0| by Python's abs, the hypot of its parts, with
no Horner step: b = gamma(2) |a_0|.
"""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from pademor import cli, pade

from oracles import exact_abs2, horner_magnitude
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


def denominators(tmp_path, config, degrees):
    """Q of each approximant that build writes for config with M_list =
    degrees, by (variant, M); standard is spelt std, as in the CSV columns."""
    with open(run(tmp_path, {**config, "M_list": sorted(degrees)}, "build")) as fh:
        approxs = [pade.approximant_from_json(obj) for obj in json.load(fh)["approximants"]]
    label = {"fast": "fast", "standard": "std"}
    return {(label[a.params.variant], a.params.M): a.denominator for a in approxs}


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
