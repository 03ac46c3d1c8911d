"""Allocation budget of the four CSV commands on the README study.

The tracemalloc peak of one warm call of each command is taken at
max_index 12 and 24 (144 and 576 modes, 101 grid points, the README's
other keys unchanged).  What the peak gains per mode added, between the two
sizes, is held to a budget derived below from the arrays the command holds
and the largest temporaries it makes, in bytes per mode.  The difference
leaves out what does not grow with the modes (the grid, the CSV lines,
Python objects), which is most of the peak at 144 modes.

Peaks measured on NumPy 2.4.6, Python 3.11 (144 / 576 modes): sweep 1.15 /
4.25 MB, compare 1.24 / 4.54 MB, convergence 0.19 / 0.69 MB, poles 0.26 /
0.98 MB; sweep and compare grow by 4.45 and 4.72 units (defined in budget)
per mode, about 0.9 of their budgets.  Each of these holds one more stack
of values, or two more real arrays, and takes them past their budgets (5.6
to 6.7 units): every Horner product of ShiftedPolynomial.__call__ out of
place (acc = acc * dz; acc += row), _grid_errors keeping the previous
stack's values through the next Horner pass (no del values), and
hilbert.norm summing w.weights * |v|**2 out of place (three real arrays).
"""

import tracemalloc

import pytest

from pademor import harness

from test_golden import README_CONFIG

SIZES = (12, 24)  # max_index: 144 and 576 modes
COMPLEX = 16  # bytes


def config(max_index):
    return harness.parse_config(
        dict(README_CONFIG, model=dict(README_CONFIG["model"], max_index=max_index)))


def peak(command, cfg, out):
    """The tracemalloc peak of one call of command, after one call that
    warms it up (imports, first-call caches)."""
    command(cfg, out)
    tracemalloc.start()
    try:
        command(cfg, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def numerator_rows(cfg, command):
    """The coefficient rows, one complex per mode each, of the numerators
    that command builds: a fast and a standard one of degree M for each M
    of M_list, or, for compare, of degrees E and E - N for each E of
    E_list."""
    if command == "compare":
        return sum((E + 1) + (E - cfg.N + 1) for E in cfg.E_list)
    return sum(2 * (M + 1) for M in cfg.M_list)


def budget(command, cfg):
    """Bytes per mode that one call of command may hold at its peak.

    sweep and compare.  Unit: one complex per grid point, 16 B x points.
    _grid_errors holds S at the points (1 unit) and evaluates the
    numerators one stack of one degree at a time; a fast and a standard
    numerator share a degree, so a stack holds 2 units of values.
    hilbert.norm then takes |v| of the stack and squares and weights it in
    place, one real array of two reals per point, 1 unit: 4 units.  A
    stack's Horner pass, in place, holds 1 + 2 units, since _grid_errors
    and evaluate_stack drop the previous stack's values before it, which
    would add 2.  Beside the 4 units, the approximants hold their
    numerators' coefficient rows (rows / points units), and the finiteness
    mask (1/8 unit) and the distances to the poles are small: 0.5 unit is
    left for them.

    convergence.  Unit: one coefficient row, 16 B.  At its two probes the
    values are a few rows; what the command holds is C rows, the
    numerators' coefficients and, while they are built, the Taylor block
    of order max E.  Its largest temporary is the copy of one stack's
    numerator rows that the Horner pass of that stack runs on, at most C
    rows; the model's three arrays and the Horner values are a few rows
    more.  So the budget is 2 C rows.

    poles.  Unit: the stack of fast windows, W = (N + 1) len(E_list) rows.
    The fast QR holds the windows, their orthonormal basis Q and its
    conjugate Qc (3 W).  A Gram-Schmidt step holds at most v, the
    projection c Q[i] and the new v, or v, w v and w v Qc[i]: three
    columns of every window, 3 W / (N + 1) <= W for N >= 2.  The Taylor
    block of order max E (max E + 1 rows) and the model's arrays are
    below W for the README study, and the standard Gramian solve, which
    runs first and frees its arrays, holds less.  So the budget is 6 W.
    """
    points = cfg.grid_points
    if command in ("sweep", "compare"):
        return (4 + numerator_rows(cfg, command) / points + 0.5) * COMPLEX * points
    if command == "convergence":
        taylor = max(max(cfg.fast_E(M), M + cfg.N) for M in cfg.M_list) + 1
        return 2 * (numerator_rows(cfg, command) + taylor) * COMPLEX
    return 6 * (cfg.N + 1) * len(cfg.E_list) * COMPLEX


@pytest.mark.parametrize("command", ["sweep", "compare", "convergence", "poles"])
def test_peak_per_mode_within_budget(tmp_path, command):
    run = getattr(harness, f"cmd_{command}")
    cfgs = [config(n) for n in SIZES]
    peaks = [peak(run, cfg, str(tmp_path / "out.csv")) for cfg in cfgs]
    modes = [n * n for n in SIZES]
    per_mode = (peaks[1] - peaks[0]) / (modes[1] - modes[0])
    limit = budget(command, cfgs[0])
    assert per_mode <= limit, (
        f"{command}: peaks {peaks} B grow by {per_mode:.0f} B per mode, budget {limit:.0f}")
