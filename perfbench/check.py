"""Output checks for the five study commands (stdlib only).

A check never asks for byte identity with the seed reference, since a
legitimate accuracy fix changes the CSVs.  It asks for:

* the expected header, row count and row labels (z, E, M, probe);
* every numeric cell parses; errors, magnitudes and factors are >= 0, and
  an error may be infinite only on a row flagged near_pole;
* on the default seed at full size, every error and pole-error cell (and
  each approximant's functional value in the build artifact) no larger
  than the committed seed reference:  new <= ref * (1 + RTOL) + ATOL.

`check_output` returns a list of problems; an empty list means the output
passed.
"""

import csv
import gzip
import io
import json
import math
import os

RTOL = 1e-6
ATOL = 1e-13
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def complex_to_text(z):
    return format(z.real, ".17g") + format(z.imag, "+.17g") + "j"


def linspace(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [hi if i == n - 1 else lo + i * step for i in range(n)]


def _fast_E(config, M):
    return max(M, config["N"]) if config.get("E_rule", "MaxMN") == "MaxMN" else M + config["N"]


def expected_header(command, config):
    Ms, N = config["M_list"], config["N"]
    if command == "sweep":
        return (["z"] + [f"abs_error_fast_M{M}" for M in Ms]
                + [f"abs_error_std_M{M}" for M in Ms]
                + [f"q_magnitude_fast_M{M}" for M in Ms]
                + [f"q_magnitude_std_M{M}" for M in Ms] + ["near_pole"])
    if command == "convergence":
        return ["probe", "M", "error_fast", "error_std", "q_magnitude_fast",
                "q_magnitude_std", "fitted_factor_fast", "predicted_factor"]
    if command == "poles":
        lam = range(1, N + 1)
        return (["E"] + [f"abs_error_fast_lambda{a}" for a in lam]
                + [f"abs_error_std_lambda{a}" for a in lam]
                + [f"predicted_factor_lambda{a}" for a in lam]
                + ["q_magnitude_fast", "q_magnitude_std",
                   "extra_roots_fast", "extra_roots_std"])
    if command == "compare":
        return ["E", "z", "error_fast", "error_std", "ratio",
                "q_magnitude_fast", "q_magnitude_std", "near_pole"]
    raise ValueError(command)


def expected_labels(command, config):
    """The label cells each row must start with, as (text or float) tuples."""
    grid = linspace(config["K"][0], config["K"][1], config["grid_points"])
    if command == "sweep":
        return [(z,) for z in grid]
    if command == "convergence":
        return [(complex_to_text(complex(*p)), str(M))
                for p in config["z_probes"] for M in config["M_list"]]
    if command == "poles":
        return [(str(E),) for E in config["E_list"]]
    return [(str(E), z) for E in config["E_list"] for z in grid]


def is_error_column(name):
    return name.startswith(("abs_error_", "error_"))


def _labels_match(cells, labels):
    for cell, want in zip(cells, labels):
        if isinstance(want, float):
            got = float(cell)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                return False
        elif cell != want:
            return False
    return True


def _cell_problem(name, text, near):
    if name.startswith("extra_roots_"):
        try:
            [complex(r) for r in text.split(";") if r]
        except ValueError:
            return f"{name}: {text!r} is not a list of complex numbers"
        return None
    if name == "near_pole":
        return None if text in ("0", "1") else f"near_pole: {text!r} is not 0 or 1"
    try:
        value = float(text)
    except ValueError:
        return f"{name}: {text!r} is not a number"
    if name == "fitted_factor_fast" and math.isnan(value):
        return None  # fewer than two points inside the fit window
    if name == "ratio" and (math.isinf(value) or near and math.isnan(value)):
        return None  # error_std is 0 (ratio inf), or inf / inf on a pole of S
    if not value >= 0.0:
        return f"{name}: {text!r} is negative or nan"
    if math.isinf(value) and not near:
        return f"{name}: infinite away from a pole"
    return None


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def check_csv(command, config, text, reference=None):
    rows = read_csv(text)
    problems = []
    header = expected_header(command, config)
    if not rows or rows[0] != header:
        return [f"{command}: header {rows[0] if rows else None} != {header}"]
    body = rows[1:]
    labels = expected_labels(command, config)
    if len(body) != len(labels):
        return [f"{command}: {len(body)} rows, expected {len(labels)}"]
    if not text.endswith("\n") or "\r" in text:
        problems.append(f"{command}: line endings are not '\\n'")
    near_col = header.index("near_pole") if "near_pole" in header else None
    for i, (cells, want) in enumerate(zip(body, labels), start=2):
        if len(cells) != len(header):
            problems.append(f"{command}:{i}: {len(cells)} cells, expected {len(header)}")
            continue
        try:
            if not _labels_match(cells, want):
                problems.append(f"{command}:{i}: row labels {cells[:len(want)]} != {want}")
        except ValueError:
            problems.append(f"{command}:{i}: unreadable row labels {cells[:len(want)]}")
        near = near_col is not None and cells[near_col] == "1"
        for name, cell in zip(header[len(want):], cells[len(want):]):
            problem = _cell_problem(name, cell, near)
            if problem:
                problems.append(f"{command}:{i}: {problem}")
    if problems or reference is None:
        return problems[:20]
    ref_rows = read_csv(reference)
    ref_header, ref_body = ref_rows[0], ref_rows[1:]
    if len(ref_body) != len(body):
        return [f"{command}: reference has {len(ref_body)} rows, output {len(body)}"]
    cols = [header.index(name) for name in ref_header]
    for i, (cells, ref) in enumerate(zip(body, ref_body), start=2):
        for name, col, ref_text in zip(ref_header, cols, ref):
            problem = _worse_than(float(cells[col]), float(ref_text))
            if problem:
                problems.append(f"{command}:{i}: {name} {problem}")
    return problems[:20]


def _worse_than(value, ref):
    if value <= ref * (1.0 + RTOL) + ATOL:
        return None
    return f"{value!r} is larger than the seed reference {ref!r}"


def check_build(config, text, reference=None):
    try:
        entries = json.loads(text)["approximants"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"build: not an approximant artifact ({exc})"]
    model = config["model"]
    dim = (model["max_index"] ** 2 if model["kind"] == "helmholtz"
           else len(model["poles"]))
    N = config["N"]
    want = []
    for M in config["M_list"]:
        want.append((M, _fast_E(config, M), "fast"))
        want.append((M, M + N, "standard"))
    if len(entries) != len(want):
        return [f"build: {len(entries)} approximants, expected {len(want)}"]
    problems = []
    for i, (entry, (M, E, variant)) in enumerate(zip(entries, want)):
        p = entry["params"]
        if (p["M"], p["N"], p["E"], p["variant"]) != (M, N, E, variant):
            problems.append(f"build[{i}]: params {p} do not match M={M} E={E} {variant}")
        if len(entry["denominator"]["coeffs"]) != N + 1:
            problems.append(f"build[{i}]: denominator is not of degree {N}")
        num = entry["numerator"]
        if len(num) != M + 1 or any(len(row) != dim for row in num):
            problems.append(f"build[{i}]: numerator is not ({M + 1}, {dim})")
        j = entry["diagnostics"]["functional_value"]
        if not (isinstance(j, float) and j >= 0.0 and math.isfinite(j)):
            problems.append(f"build[{i}]: functional value {j!r}")
        elif reference is not None:
            problem = _worse_than(j, reference[i])
            if problem:
                problems.append(f"build[{i}]: functional value {problem}")
    return problems[:20]


def load_reference(workload):
    """Committed seed-code reference of `workload`: the default seed's error
    columns and functional values, and output hashes for several seeds."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path) as fh:
        ref = json.load(fh)
    ref["errors"] = {}
    for command, name in ref["errors_files"].items():
        with gzip.open(os.path.join(REFERENCE_DIR, name), "rt", newline="") as fh:
            ref["errors"][command] = fh.read()
    return ref


def check_output(command, config, path, reference=None):
    """Problems with one command's output file (empty list: it passed).

    `reference` is a `load_reference` result, given only for the default
    seed at full size."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        return [f"{command}: cannot read output ({exc})"]
    if command == "build":
        return check_build(config, text, reference and reference["functional_values"])
    return check_csv(command, config, text, reference and reference["errors"][command])
