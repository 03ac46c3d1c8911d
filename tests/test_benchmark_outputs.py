"""The benchmark's output gate, run in the test suite: every command's output
on each benchmark workload at its default seed and full size must pass
perfbench/check.py against the committed seed reference, which bounds each
error cell and functional value by the reference value.  perfbench/check.py
and perfbench/workloads.py are only read, never changed."""

import importlib.util
import json
from pathlib import Path

import pytest

from pademor import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COMMANDS = ("build", "sweep", "convergence", "poles", "compare")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = load("check")
workloads = load("workloads")


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
