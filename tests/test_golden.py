"""Golden sha256 of two build artifacts, four study outputs and two model files.

The serialization code must write these bytes exactly: the JSON writer
hilbert.json_text behind pade.approximant_line and modal.save_model, and
the one %-template per CSV command in harness.  The N = 8 study
also pins the roundoff of the 9 x 9 Jacobi eigensolves behind its
denominators, degenerate minimal eigenvalues included, and the N = 2 build
that of the 3 x 3 LAPACK SVDs behind its fast denominators.  The hashes were
taken with Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31 and orjson 3.8.3
on x86-64; a different BLAS or NumPy may round the numbers differently, and
a different orjson may spell them differently, and then fails here without
a serialization change.
"""

import hashlib
import json

import pytest

from pademor import cli, modal

CONFIG = {
    "model": {
        "kind": "synthetic",
        "poles": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.5]],
        "residue_norms": [1.0, 0.5, 0.25],
    },
    "z0": [0.3, 0.2],
    "K": [-1.0, 3.0],
    "M_list": [1, 2, 3],
    "N": 2,
    "rho_rule": {"factor": 1.5},
    "z_probes": [[0.5, 0.0], [2.5, 0.25]],
    "E_list": [2, 3, 5, 8],
}

# highorder_poles' centre, interval, N, M and E on a 64-mode Helmholtz model:
# every denominator is a 9 x 9 eigensolve, and all six are degenerate.
HIGH_ORDER_CONFIG = {
    "model": {"kind": "helmholtz", "max_index": 8},
    "z0": [12.0, 0.5],
    "K": [9.0, 15.0],
    "M_list": [8, 14, 20],
    "N": 8,
    "E_rule": "MPlusN",
    "grid_points": 5,
    "E_list": [8, 14, 20, 26, 32],
}

BUILD_SHA256 = "de01932575b0abd4c1bfb34edeff3457203ca3a2d12148717acb9b61e6dca09a"
# The CSV commands on CONFIG: probe rows, rows on the poles 1 and 2 of the
# 101-point grid (inf errors, nan ratios) and the degree-0 standard builds of
# compare at E = 2.
CSV_SHA256 = {
    "convergence": "df392ba4e31befe24645c1fef4c62d4033d1e7262645b063e19c05fc4117b129",
    "compare": "8e56af21bf3f44c386335e2586fbf0b32f2e4248c13366235b3b00710d555d87",
}
HIGH_ORDER_SHA256 = {
    "build": "1243f53f803d68b4fd39a7216fee5212724a205aa8cd0af465764e36c6a6d7ae",
    "sweep": "86f917b1ac19959a3a36a62376434e07c381b8e58cc0e3cc12b0642e30ca5bc9",
    "poles": "e97e896939f1302da13306d1e403241d50b5aa6cc1eddc489f3b3b154b3562b9",
}
MODEL_SHA256 = {
    "synthetic": "96ce2193ab2808d9c2157034355b4c1a3ffdcda5fc97f24eeedf48b314cd5533",
    "helmholtz": "0528afe08b28db0c3d1aaa47d599259395f194caeda8194b68a759eba22965f5",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_build_artifact(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "build.json"
    assert cli.main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == BUILD_SHA256


@pytest.mark.parametrize("command", sorted(CSV_SHA256))
def test_csv_study(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == CSV_SHA256[command]


@pytest.mark.parametrize("command", sorted(HIGH_ORDER_SHA256))
def test_high_order_study(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(HIGH_ORDER_CONFIG))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == HIGH_ORDER_SHA256[command]


@pytest.mark.parametrize("name", sorted(MODEL_SHA256))
def test_model_file_and_round_trip(tmp_path, name):
    if name == "synthetic":
        model = modal.build_synthetic([1.0, 2.0, 4.0 + 0.5j], [1.0, 0.5, 0.25])
    else:
        model = modal.build_rectangle_helmholtz(max_index=6)
    path = tmp_path / "model.json"
    modal.save_model(model, path)
    assert sha256(path) == MODEL_SHA256[name]
    modal.save_model(modal.load_model(path), path)
    assert sha256(path) == MODEL_SHA256[name]
