"""The benchmark's gates, run in the test suite.

Every command's output on each benchmark workload at its default seed and
full size must pass perfbench/check.py against the committed seed reference,
which bounds each error cell and functional value by the reference value,
and must keep the bytes pinned here by sha256 (SEED_ZERO_SHA256), so that a
change meant to be byte-neutral is checked to be so.  The hashes were taken
with the versions tests/test_golden.py names.  The traced study that `perfbench/run.py --trace 1` runs must wrap every
traced function and leave each command's output as it is untraced.  The
files under perfbench/ are only read, never changed or written to."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from pademor import cli

from conftest import PERFBENCH, load_perfbench

COMMANDS = ("build", "sweep", "convergence", "poles", "compare")
# perfbench/run.py runs its workers with BLAS on one thread
ONE_BLAS_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")

# sha256 of each command's output on each workload at seed 0
SEED_ZERO_SHA256 = {
    "helmholtz_reference": {
        "build": "ed8bf8d05dfe51cc22f18bf81d5c1a1b23a42cac008bbde35323ee598c9be557",
        "sweep": "619338a46758bf049db5a71a34a8f92394caa04b9dcd4702ad4d81084ba79c66",
        "convergence": "242d05ec3a965a7bb06a1bf5abf32259c3dd69015f0db7e7b7af88f9d9a2311a",
        "poles": "5d61a5c2d0d38420087eccf63298342a0c2e9143dadaeae3297fc2b1d08b33a4",
        "compare": "11a13128516a1e656fb8266d4ca47b2315f7518109be8fb3eba2aa0d2c2dbc3d",
    },
    "highorder_poles": {
        "build": "047b7c2fe1aa104a5e68f87f0b5d7357058b2cb8b28811b4095cb137d7482df3",
        "sweep": "8199fb15acb98b2261e8fc6edf6f495d8ff8308ffde51b7d48abfe6bbf66309c",
        "convergence": "51513d8770f89a373bbbca69df1769d59e5712aae70eca0e5c377e84ddb3c196",
        "poles": "aa0e6e2f9fabf1b3544e60e6ccc712468647b83eb05dfed10f39256418938779",
        "compare": "9b81bb14faae7bda7486d2823af8ede74db99b5cc6b9c2d459e6cd9b8fc22293",
    },
    "synthetic_dense_grid": {
        "build": "573c42d5c6756dcffc8e13227e47391b41493a009ac359fcf4ed0519d605005b",
        "sweep": "675942832e89cedf09152434d254ccd7c1794effe2099bcfd469f08240e17c7b",
        "convergence": "bee28a68bb6d01d20aaacf07dfad0604ba92e5313b39b6d46329c24a8d95089c",
        "poles": "c987219607ab913af679c9877c23ab911467f7107c604d12e77ce85514743771",
        "compare": "53a2dbb910bf69cc7e17ad38ad98612ad8270ce9d27d352c5c9fd314be6198d0",
    },
}

check = load_perfbench("check")
workloads = load_perfbench("workloads")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_pass_the_reference_check(workload, tmp_path):
    config = workloads.make_config(workload)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    reference = check.load_reference(workload)
    for command in COMMANDS:
        out = tmp_path / (f"{command}.json" if command == "build" else f"{command}.csv")
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        assert check.check_output(command, config, str(out), reference) == []
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == SEED_ZERO_SHA256[workload][command], command


def listing(root):
    return {str(p): (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_study(workload, tmp_path):
    """`perfbench/worker.py trace CONFIG OUTDIR RESULT SPANS`: two rounds of
    the five commands, each once untraced and once traced.  It fails if a
    traced function is renamed or deleted, since the tracer wraps each one
    by name."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(workload)))
    result = tmp_path / "result.json"
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONDONTWRITEBYTECODE": "1"}
    before = listing(PERFBENCH)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "trace", str(config), str(tmp_path),
         str(result), str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert listing(PERFBENCH) == before
    res = json.loads(result.read_text())
    calls = res["calls"]
    assert len(calls) == 4 * len(COMMANDS)
    assert [(op["rc"], op["warnings"]) for op in calls] == [(0, 0)] * len(calls)
    for command in COMMANDS:
        digests = {op["sha256"] for op in calls if op["command"] == command}
        assert len(digests) == 1, command
    # artifact export, which build reaches through pade.approximant_to_json
    assert res["layers"]["pade.approximant_to_json.s"] > 0
    # the stacked builds, solves and grid evaluations bear the traced names
    solves = ["pade.build.s", "pade.denominator_fast_qr.s", "pade.denominator_standard.s",
              "numerics.hermitian_min_eigenpair.s", "numerics.polynomial_roots.s",
              "poly.evaluate.s", "poly.roots.s", "layer.numerics.self_s", "layer.poly.self_s"]
    assert [key for key in solves if not res["layers"][key] > 0] == []
