"""Allocation budget of the five commands on the README study.

The tracemalloc peak of one warm call of each command is taken at two
sizes, max_index 12 and 24 (144 and 576 modes, 101 grid points, the
README's other keys unchanged) for build, convergence and poles,
max_index 16 and 24 (256 and 576 modes) for sweep and compare, whose grid
errors, S at the points included, are evaluated one block of points at a
time (harness._grid_errors): at 144 modes sweep's block is still the
whole grid, so its values would grow between the sizes.  What the peak
gains per mode added, between the two sizes, is held to a budget derived
below from the arrays the command holds and the largest temporaries it
makes, in bytes per mode.  The difference leaves out what does not grow
with the modes (the grid, the CSV lines, Python objects, a block of
values or of S once it is smaller than the grid), which is most of the
peak.

Peaks measured on NumPy 2.4.6, Python 3.11, orjson 3.8.3: build 0.18 /
0.66 MB (144 / 576 modes), growing by 1,124 B per mode against a budget of
1,204, its largest artifact line 425 B per mode; while each line went
from orjson's bytes to a str, a copy with its ',', a copy with its '\\n'
and the bytes of a text file's encoder, build grew by 1,975 B per mode.
sweep 3.76 / 3.92 MB and compare 3.66 / 4.03 MB (256 / 576 modes),
growing by 493 and 1,152 B per mode against budgets of 1,576 and 2,152;
convergence 0.19 / 0.73 MB and poles 0.26 / 0.98 MB (144 / 576 modes).
While the commands held S on the whole grid, sweep and compare grew by
2,117 and 2,754 B per mode against budgets of 3,192 and 3,768, one unit
(1,616 B) more.  Before the blocks, they held one stack of numerators of
one degree on the whole grid as well and grew by 4.45 and 4.72 units per
mode (7,186 and 7,579 B, 144 / 576 modes) against budgets of 7,944 and
8,392 B; at 256 / 576 modes that pass grows by 7,183 and 7,631 B per
mode, more than three times the budgets above.
convergence's 2 C rows are why the Horner pass gathers its rows one step
at a time: zero-padded rows of every step, gathered at once, read 2,002 B
per mode against 1,696.
"""

import tracemalloc

import pytest

from pademor import harness

from test_golden import README_CONFIG

SIZES = {"sweep": (16, 24), "compare": (16, 24),  # max_index: 256 and 576 modes
         "build": (12, 24), "convergence": (12, 24), "poles": (12, 24)}  # 144 and 576
COMPLEX = 16  # bytes
# bytes of one complex entry of an artifact line: '[', two floats in their
# shortest round-trip spelling (at most 24 characters, as in
# -1.2345678901234567e-308), ',', ']' and the ',' after the entry
LINE_ENTRY = 1 + 24 + 1 + 24 + 1 + 1


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


def taylor_rows(cfg):
    """The rows of the Taylor block of order max E that build and
    convergence take: one per order, from 0 to the largest E of a fast
    or a standard approximant of M_list."""
    return max(max(cfg.fast_E(M), M + cfg.N) for M in cfg.M_list) + 1


def budget(command, cfg):
    """Bytes per mode that one call of command may hold at its peak.

    sweep and compare.  Unit: one complex per grid point, 16 B x points.
    _grid_errors evaluates S and all the numerators one block of points at
    a time, a block of at most harness.BLOCK_VALUES values, which stops
    growing with the modes once it is smaller than the grid; so do S at the
    block and hilbert.norm's real array of the block.  Per mode, what grows
    is the approximants' numerator coefficient rows (rows / points units)
    and one Horner step's gathered rows, at most one per approximant
    (approximants / points units).  The finiteness mask, the distances to
    the poles and the floor of the block size, which holds between
    BLOCK_VALUES - approximants x modes and BLOCK_VALUES values, are
    small: 0.5 unit is left for them.

    build.  Unit: one coefficient row, 16 B.  What build holds to the end
    is the model's arrays, at most 4 rows (eigenvalues and coefficients, a
    row each, the weights, half a row, and per retained pole its pole and
    residue norm, at most 1.5 rows), and the C numerator rows.  While it
    builds the numerators, it also holds the Taylor block of order max E
    (T rows) and one term of a numerator's Cauchy product, at most
    M + 1 <= T rows; the denominator passes run before any numerator
    exists and free their arrays.  The Taylor block is freed before the
    first line is written; then build holds one artifact line at a time,
    once, the largest (max M + 1) x LINE_ENTRY bytes per mode.  So the
    budget is 4 + C rows plus the larger of 2 T rows and that line.

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
        approximants = 2 * len(cfg.E_list if command == "compare" else cfg.M_list)
        rows = numerator_rows(cfg, command) + approximants
        return (rows / points + 0.5) * COMPLEX * points
    if command == "build":
        line = (max(cfg.M_list) + 1) * LINE_ENTRY
        return (4 + numerator_rows(cfg, command)) * COMPLEX + max(
            2 * taylor_rows(cfg) * COMPLEX, line)
    if command == "convergence":
        return 2 * (numerator_rows(cfg, command) + taylor_rows(cfg)) * COMPLEX
    return 6 * (cfg.N + 1) * len(cfg.E_list) * COMPLEX


@pytest.mark.parametrize("command", ["build", "sweep", "compare", "convergence", "poles"])
def test_peak_per_mode_within_budget(tmp_path, command):
    run = getattr(harness, f"cmd_{command}")
    cfgs = [config(n) for n in SIZES[command]]
    peaks = [peak(run, cfg, str(tmp_path / "out.csv")) for cfg in cfgs]
    modes = [n * n for n in SIZES[command]]
    per_mode = (peaks[1] - peaks[0]) / (modes[1] - modes[0])
    limit = budget(command, cfgs[0])
    assert per_mode <= limit, (
        f"{command}: peaks {peaks} B grow by {per_mode:.0f} B per mode, budget {limit:.0f}")
