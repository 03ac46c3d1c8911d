import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pademor import modal

PAPER_Z0 = 12 + 0.5j
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Study configs whose arithmetic overflows although every input is finite.
# |Q(z)| of both approximants overflows on the 16 grid points from 2.72e154
# up, where the real and imaginary parts of Q(z) are still finite.
OVERFLOWING_Q_MODULUS = {
    "model": {"kind": "synthetic", "poles": [[1.0, 0.0], [2.0, 0.0]],
              "residue_norms": [1.0, 1.0]},
    "z0": [0.0, 0.5], "K": [0.0, 3.2e154], "M_list": [2], "N": 2,
    "grid_points": 101, "rho_rule": {"factor": 1e-154},
}
# The largest Taylor window entry, near 1e120 (below 2^400), times
# rho^(E-M-1) with rho near 1e20: the rho-weighted Gramian sum of the
# standard denominator overflows unless the windows are scaled.
OVERFLOWING_GRAMIAN_SUM = {
    "model": {"kind": "synthetic", "poles": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                                             [3.5, 0.0]],
              "residue_norms": [1e120, 1.0, 1.0, 1.0]},
    "z0": [0.0, 0.5], "K": [-1.0, 4.0], "M_list": [2], "N": 3,
    "grid_points": 5, "rho_rule": {"factor": 2.5e19},
}


def load_perfbench(name):
    """The benchmark's module perfbench/<name>.py, loaded by path: the
    benchmark's files are only read, never changed."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def helmholtz():
    """Square-domain Helmholtz model at the reference configuration
    (nu^2 = 12, theta = pi/3, 40x40 modes, energy inner product)."""
    return modal.build_rectangle_helmholtz()


@pytest.fixture(scope="session")
def paper_z0():
    return PAPER_Z0


@pytest.fixture
def two_pole():
    return modal.build_synthetic([1.0, 2.0], [1.0, 1.0])


@pytest.fixture
def three_pole():
    return modal.build_synthetic([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
