"""Golden sha256 of two build artifacts, two study outputs and two model files.

The serialization code (pade.approximant_line, modal.save_model and the
array writer in hilbert) must write these bytes exactly.  The N = 8 study
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

BUILD_SHA256 = "81e96ca3c443787e8df7acaa1798b21ea4aadfe3aa873c75ffb78123df365e82"
HIGH_ORDER_SHA256 = {
    "build": "4a2da8e69ddf3c39be6d40cd612cf8736f21232efa346c0d17e0ff7ec77bbc3c",
    "sweep": "86f917b1ac19959a3a36a62376434e07c381b8e58cc0e3cc12b0642e30ca5bc9",
    "poles": "e97e896939f1302da13306d1e403241d50b5aa6cc1eddc489f3b3b154b3562b9",
}
MODEL_SHA256 = {
    "synthetic": "40de6f1fe67dfd80a0dae9549775d9770d81aac9d4d53d5c13593b0b464f7ab2",
    "helmholtz": "1b05ff0784108378583d23d24930a9dbaa9043b8fb4fe1cc04c7fe325407eed7",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_build_artifact(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "build.json"
    assert cli.main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == BUILD_SHA256


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
