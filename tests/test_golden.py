"""Golden sha256 of study outputs, the README reference study's five among
them, and of two model files; the README's examples as written.

The serialization code must write these bytes exactly: the JSON writer
hilbert.json_text of pade.approximant_to_json and modal.model_to_json, and
the one %-template per CSV command in harness.  The N = 8 study
also pins the roundoff of the 9 x 9 Jacobi eigensolves behind its standard
denominators, degenerate minimal eigenvalues included, and of the
exact-degeneracy null directions behind its fast ones, and the N = 2 build
that of the 3 x 3 LAPACK SVDs behind its fast denominators.  The hashes were
taken with Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31 and orjson 3.8.3
on x86-64; a different BLAS or NumPy may round the numbers differently, and
a different orjson may spell them differently, and then fails here without
a serialization change.  Every study output must also pass the benchmark's
output contract (perfbench/check.py, without a reference): its header, row
labels and signs, and an infinite error only on a row flagged near_pole.
"""

import csv
import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from pademor import cli, harness, hilbert, modal

from conftest import load_perfbench

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CHECK = load_perfbench("check")

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
# the three standard denominators are 9 x 9 eigensolves, the three fast ones
# take the exact-degeneracy null direction (pade._null_direction), and all
# six are flagged degenerate.
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
    "sweep": "a93e79651ab62c2abd020f115ff3caabbbb40ccb9464d0aae6e0fdfd8b842c5f",
}
HIGH_ORDER_SHA256 = {
    "build": "1243f53f803d68b4fd39a7216fee5212724a205aa8cd0af465764e36c6a6d7ae",
    "sweep": "86f917b1ac19959a3a36a62376434e07c381b8e58cc0e3cc12b0642e30ca5bc9",
    "poles": "e97e896939f1302da13306d1e403241d50b5aa6cc1eddc489f3b3b154b3562b9",
}
# The README's example config verbatim: the reference study, 1,600 modes
# (661 retained poles) and 101 grid points.
README_CONFIG = {
    "model": {"kind": "helmholtz", "nu_sq": 12.0, "theta": 1.0471975511965976,
              "max_index": 40, "quad_order": 64},
    "z0": [12.0, 0.5],
    "K": [9.0, 15.0],
    "M_list": [4, 6, 8],
    "N": 2,
    "E_rule": "MaxMN",
    "rho_rule": {"factor": 1.0},
    "grid_points": 101,
    "z_probes": [[9.0, 0.0], [11.0, 0.0]],
    "E_list": [2, 3, 4, 5, 6, 7, 8],
}
README_SHA256 = {
    "build": "ff976665de6c92ecb8754aafb126fd4e9a87fc5c4b79654cf449da462de039a8",
    "compare": "bad5812f78c13b40171781d392422438852d8491dd7374cea18ed2b71b8282b2",
    "convergence": "2456aaface7fa0b7153c750ba855003be32b19306d5c29c0777136b0ae11aeb8",
    "poles": "9c4aee1ea43e09c8652a6230aa1726e65b85f9b64d7587411a387fa471246e1f",
    "sweep": "c469785b12e679b734dfa97be555a58ef57c1d17d72ea36844d2190708b0895d",
}
MODEL_SHA256 = {
    "synthetic": "96ce2193ab2808d9c2157034355b4c1a3ffdcda5fc97f24eeedf48b314cd5533",
    "helmholtz": "0528afe08b28db0c3d1aaa47d599259395f194caeda8194b68a759eba22965f5",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def readme_block(language):
    """The one fenced code block of the README in language."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    return block


def run_study(tmp_path, config, command):
    """sha256 of what command writes for config; the output must pass the
    benchmark's output contract, checked with the config's defaults."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    full = {**harness.CONFIG_DEFAULTS, **config}
    assert CHECK.check_output(command, full, str(out)) == []
    return sha256(out)


def test_build_artifact(tmp_path):
    assert run_study(tmp_path, CONFIG, "build") == BUILD_SHA256


@pytest.mark.parametrize("command", sorted(CSV_SHA256))
def test_csv_study(tmp_path, command):
    assert run_study(tmp_path, CONFIG, command) == CSV_SHA256[command]


def study_rows(tmp_path, config, command):
    """The CSV rows, header first, that command writes for config."""
    tmp_path.mkdir()
    run_study(tmp_path, config, command)
    with open(tmp_path / "out", newline="") as fh:
        return list(csv.reader(fh))


def test_scaled_residue_norms_keep_the_studies(tmp_path):
    # S is linear in the source.  Squares of these residue norms underflow:
    # the model kept no pole, poles exited 2 and predicted_factor read 0.
    norms = [math.ldexp(r, -560) for r in CONFIG["model"]["residue_norms"]]
    scaled = {**CONFIG, "model": {**CONFIG["model"], "residue_norms": norms}}
    base, rows = ({command: study_rows(tmp_path / f"{name}_{command}", config, command)
                   for command in ("poles", "convergence")}
                  for name, config in (("base", CONFIG), ("scaled", scaled)))
    assert len(rows["poles"]) == len(base["poles"])
    assert rows["poles"][0] == base["poles"][0]
    for row, ref in zip(rows["poles"][1:], base["poles"][1:]):
        # each cell read as a ';'-separated list of complex numbers
        for cell, want in zip(row, ref):
            got, want = ([complex(z) for z in c.split(";") if z] for c in (cell, want))
            assert len(got) == len(want)
            assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want))
    predicted = [[r[-1] for r in runs["convergence"]] for runs in (base, rows)]
    assert predicted[0] == predicted[1]


@pytest.mark.parametrize("command", sorted(HIGH_ORDER_SHA256))
def test_high_order_study(tmp_path, command):
    assert run_study(tmp_path, HIGH_ORDER_CONFIG, command) == HIGH_ORDER_SHA256[command]


@pytest.mark.parametrize("command", sorted(README_SHA256))
def test_readme_reference_study(tmp_path, command):
    assert run_study(tmp_path, README_CONFIG, command) == README_SHA256[command]


def test_readme_config_is_the_reference_study():
    assert json.loads(readme_block("json")) == README_CONFIG


def test_readme_library_example_runs_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(readme_block("python"), {})


@pytest.mark.parametrize("name", sorted(MODEL_SHA256))
def test_model_file_and_round_trip(tmp_path, name):
    if name == "synthetic":
        model = modal.build_synthetic([1.0, 2.0, 4.0 + 0.5j], [1.0, 0.5, 0.25])
    else:
        model = modal.build_rectangle_helmholtz(max_index=6)
    path = tmp_path / "model.json"
    path.write_text(hilbert.json_text(modal.model_to_json(model)))
    assert sha256(path) == MODEL_SHA256[name]
    with open(path) as fh:
        back = modal.model_from_json(json.load(fh))
    path.write_text(hilbert.json_text(modal.model_to_json(back)))
    assert sha256(path) == MODEL_SHA256[name]
