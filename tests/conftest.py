import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pademor import modal

PAPER_Z0 = 12 + 0.5j
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
