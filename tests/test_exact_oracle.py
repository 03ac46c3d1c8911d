"""CSV cells against their exact values.

Every input of a cell is a float, so a dyadic rational, and so is every
quantity a cell rounds: oracles.exact_abs2 takes |Q(z)|^2 exactly with
fractions.Fraction.  Here the q_magnitude cells of sweep, on the golden
synthetic study and on a Helmholtz study of 36 modes, are held to it.  Q is
read from the build artifact of the same config, whose JSON floats
round-trip, and each grid point from its row, written to 17 digits.

The bound is a first-order roundoff count, as in
test_harness.TestModalErrorIdentity: u = eps / 2 and
gamma(k) = k u / (1 - k u).  Horner of degree d on Python complex numbers
(poly.evaluate_points) errs by at most gamma(5 (d + 1)) H, with
H = sum_j |a_j| |z - z0|^j, five roundings per step.  np.hypot is within one
ulp, 2 u of its result, two roundings more.  So with
b = gamma(5 (d + 1) + 2) H, every cell c satisfies |c - |Q(z)|| <= b, which
is checked exactly as (c - b)^2 <= |Q(z)|^2 <= (c + b)^2, the left side
where c > b.
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


@pytest.mark.parametrize("config", [CONFIG, HELMHOLTZ_CONFIG],
                         ids=["synthetic", "helmholtz"])
def test_sweep_q_magnitude_is_exact_to_roundoff(tmp_path, config):
    with open(run(tmp_path, config, "build")) as fh:
        approxs = [pade.approximant_from_json(obj) for obj in json.load(fh)["approximants"]]
    dens = {(a.params.variant, a.params.M): a.denominator for a in approxs}
    label = {"fast": "fast", "standard": "std"}
    with open(run(tmp_path, config, "sweep")) as fh:
        rows = list(csv.DictReader(fh))
    points = np.array([float(row["z"]) for row in rows])
    checked = 0
    for (variant, M), Q in dens.items():
        column = f"q_magnitude_{label[variant]}_M{M}"
        bounds = gamma(5 * (Q.degree + 1) + 2) * horner_magnitude(Q, points)
        for row, z, b in zip(rows, points.tolist(), bounds.tolist()):
            cell, b = Fraction(float(row[column])), Fraction(b)
            exact = exact_abs2(Q, z)
            assert exact <= (cell + b) ** 2, (column, z)
            assert cell <= b or (cell - b) ** 2 <= exact, (column, z)
            checked += 1
    assert checked == 2 * len(config["M_list"]) * len(rows) == 606
