"""tools/compare_outputs.py on its 185 outputs: a tree run against itself
differs nowhere, and a changed output or an uncaught exception is
reported."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"
STUDIES = [f"{name}_seed{seed}" for seed in range(11)
           for name in ("helmholtz_reference", "highorder_poles", "synthetic_dense_grid")] + [
               "synthetic_dense_grid_points2001", "readme", "real_smoke", "real_synthetic"]


def compare(old, new):
    return subprocess.run([sys.executable, "-W", "error", str(TOOL), str(old), str(new)],
                          capture_output=True, text=True, timeout=600)


def patched_copy(tmp_path, module, old, new):
    """A copy of the package under tmp_path/src with the one occurrence of
    old in module replaced by new."""
    shutil.copytree(ROOT / "src" / "pademor", tmp_path / "src" / "pademor",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "pademor" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


def test_this_checkout_against_itself():
    run = compare(ROOT, ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "185 outputs compared, 0 differ\n"


def test_a_changed_output_is_reported(tmp_path):
    # the sweep's float cells spelled with 16 significant digits, not 17
    cells = "_cells(np.vstack([grid, errors, qmags]).T)"
    run = compare(ROOT, patched_copy(tmp_path, "harness.py", cells, (
        '["%.16g" % x for x in np.vstack([grid, errors, qmags]).T.ravel().tolist()]')))
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "185 outputs compared, 37 differ"
    assert sorted(line.split(":")[0] for line in lines[:-1]) == sorted(
        f"{study}.sweep" for study in STUDIES)


def test_an_uncaught_exception_is_reported(tmp_path):
    start = "def cmd_poles(config, model):\n"
    run = compare(ROOT, patched_copy(tmp_path, "harness.py", start,
                                     start + '    raise RuntimeError("injected")\n'))
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "185 outputs compared, 37 differ"
    reported = [line for line in lines[:-1] if not line.startswith("  ")]
    assert sorted(line.split(":")[0] for line in reported) == sorted(
        f"{study}.poles" for study in STUDIES)
    assert all(": exit 0 -> 1, " in line for line in reported)
    assert lines.count("  stderr new: 'RuntimeError: injected\\n'") == 37
