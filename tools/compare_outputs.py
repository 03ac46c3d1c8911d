"""Compare what two source trees write, output by output, byte for byte.

    python tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; its package is imported from
TREE/src.  Both trees run the five commands (build, sweep, convergence,
poles, compare) on the three benchmark workloads of this checkout's
perfbench/workloads.py at seeds 0 to 10, on synthetic_dense_grid at seed 0
on 2,001 grid points, whose sweep and compare CSVs span several chunks of
the array pass that spells their float cells, on the README study, the
README's example config, and on two real-axis studies
(REAL_AXIS_STUDIES): 185 outputs each.  The grid errors of sweep and
compare, S included, cross block boundaries of harness._grid_errors on
two studies: the README study's (1,600 modes: 8 blocks of 13 points and
21 of 5) and the 2,001-point study's (2 blocks of up to 1,820 points and 3
of up to 780); every other study, and every convergence, is one block per
command.
An exception that a command does not catch is recorded as exit code 1,
Python's own on one, with its type and message as stderr, and the run goes
on.

Every output whose bytes, exit code or stderr differ between the trees is
printed; the script exits 1 if any does, 0 if none.  Each tree runs all of
its commands in one child process, with the -W options this process was
given: `python -W error tools/compare_outputs.py ...` compares the trees
under warnings-as-errors.  Nothing under perfbench/ is written.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("build", "sweep", "convergence", "poles", "compare")
SEEDS = range(11)
# Studies on the real axis: real poles and a real center give real Taylor
# coefficients, so every Gramian is real symmetric and its imaginary parts
# are signed zeros, which a Jacobi pair step that turns a skipping matrix
# by the identity rotation could flip.  The first is the smoke study of
# .github/workflows/tier1.yml.
REAL_AXIS_STUDIES = {
    "real/smoke": {
        "model": {"kind": "synthetic", "poles": [[1.0, 0.0], [2.0, 0.0]],
                  "residue_norms": [1.0, 1.0]},
        "z0": [0.0, 0.0], "K": [-1.0, 3.0], "M_list": [2], "N": 2, "E_list": [2, 3, 4],
        "z_probes": [[0.5, 0.0], [-0.5, 0.0]]},
    "real/synthetic": {
        "model": {"kind": "synthetic",
                  "poles": [[0.6, 0.0], [1.1, 0.0], [1.7, 0.0], [2.35, 0.0], [2.8, 0.0],
                            [3.45, 0.0], [3.9, 0.0], [4.6, 0.0]],
                  "residue_norms": [1.0, 0.9, 0.8, 0.75, 0.7, 0.6, 0.55, 0.5]},
        "z0": [3.2, 0.0], "K": [1.5, 4.5], "M_list": [4, 6, 8], "N": 4, "E_rule": "MaxMN",
        "rho_rule": {"factor": 1.0}, "grid_points": 101,
        "z_probes": [[2.0, 0.0], [4.25, 0.0]], "E_list": [4, 5, 6, 7, 8, 9, 10]},
}


def readme_config():
    """The study config of the README's one JSON code block."""
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```json\n(.*?)^```$", text, re.M | re.S)
    return json.loads(block)


def studies():
    """{label: config} of every study to run."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    found = {f"{name}/seed{seed}": workloads.make_config(name, seed)
             for name in workloads.WORKLOADS for seed in SEEDS}
    found["synthetic_dense_grid/points2001"] = {
        **workloads.make_config("synthetic_dense_grid", 0), "grid_points": 2001}
    found["readme"] = readme_config()
    return {**found, **REAL_AXIS_STUDIES}


def run_jobs(jobs_path, outdir):
    """Child side: run every (label, command, config path) job of the JSON
    file jobs_path with the package on sys.path, each output written to
    outdir as '<label>.<command>' with '/' replaced by '_', and write
    {output name: [exit code, stderr]} to outdir/results.json."""
    from pademor import cli

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {cli.__file__}, not the package of {src}")
    results = {}
    for label, command, config in json.loads(Path(jobs_path).read_text()):
        name = f"{label.replace('/', '_')}.{command}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([command, "--config", config, "--out", str(Path(outdir, name))])
            except Exception as exc:
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        results[name] = [code, err.getvalue()]
    Path(outdir, "results.json").write_text(json.dumps(results))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else "no file"


def compare(old, new):
    """Run both trees and print every difference; the number of outputs
    that differ."""
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for label, config in studies().items():
            path = Path(tmp, f"{label.replace('/', '_')}.json")
            path.write_text(json.dumps(config))
            jobs += [(label, command, str(path)) for command in COMMANDS]
        jobs_path = Path(tmp, "jobs.json")
        jobs_path.write_text(json.dumps(jobs))
        flags = [f"-W{option}" for option in sys.warnoptions]
        runs = []
        for side, tree in (("old", old), ("new", new)):
            outdir = Path(tmp, side)
            outdir.mkdir()
            env = {**os.environ, "PYTHONPATH": str(Path(tree, "src").resolve())}
            runs.append((outdir, subprocess.Popen(
                [sys.executable, *flags, __file__, "--run", str(jobs_path), str(outdir)],
                env=env)))
        for outdir, child in runs:
            if child.wait():
                raise SystemExit(f"the run into {outdir.name} exited {child.returncode}")
        (old_dir, _), (new_dir, _) = runs
        old_results, new_results = (json.loads(Path(d, "results.json").read_text())
                                    for d in (old_dir, new_dir))
        differ = 0
        for name, (old_code, old_err) in old_results.items():
            new_code, new_err = new_results[name]
            old_path, new_path = old_dir / name, new_dir / name
            same_bytes = (old_path.exists() == new_path.exists()
                          and (not old_path.exists()
                               or old_path.read_bytes() == new_path.read_bytes()))
            if same_bytes and old_code == new_code and old_err == new_err:
                continue
            differ += 1
            print(f"{name}: exit {old_code} -> {new_code}, "
                  f"sha256 {digest(old_path)} -> {digest(new_path)}")
            if old_err != new_err:
                print(f"  stderr old: {old_err!r}\n  stderr new: {new_err!r}")
        print(f"{len(old_results)} outputs compared, {differ} differ")
        return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the tree to compare against")
    parser.add_argument("new", help="the tree under test")
    args = parser.parse_args(argv)
    return 1 if compare(args.old, args.new) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_jobs(*sys.argv[2:])
    else:
        sys.exit(main())
