"""The benchmark's gates, run in the test suite.

Every command's output on each benchmark workload at its default seed and
full size must pass perfbench/check.py against the committed seed reference,
which bounds each error cell and functional value by the reference value.
The traced study that `perfbench/run.py --trace 1` runs must wrap every
traced function and leave each command's output as it is untraced.  The
files under perfbench/ are only read, never changed or written to."""

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
