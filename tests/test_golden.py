"""Golden sha256 of a build artifact and of two model files.

The serialization code (pade.approximant_to_json, modal.save_model and the
complex codec in hilbert) must write these bytes exactly.  The hashes were
taken with Python 3.11.7, NumPy 2.4.6 and OpenBLAS 0.3.31 on x86-64; a
different BLAS or NumPy may round the numbers differently and then fails
here without a serialization change.
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

BUILD_SHA256 = "e21f775eca1598ae19871fd68298b937a194af74ca83cc124ca846e469a7e3c2"
MODEL_SHA256 = {
    "synthetic": "5ad1011720fe89e88260b4d8991d74ac84e63a8151763e9908a3bd503c257250",
    "helmholtz": "aa8763681f197c05d4875b1602c2d727d3ae840a0eab8fa9e5b35654ecad8a5e",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_build_artifact(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "build.json"
    assert cli.main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == BUILD_SHA256


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
