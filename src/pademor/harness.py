"""Experiment driver: frequency sweeps, convergence studies, pole studies.

All commands consume a JSON study configuration.  The CSV commands write
each row by one %-template ('%.17g' floats: 17 significant digits, 'inf',
'nan'; '\\n' line endings).  Every data row carries the denominator
magnitude so near-pole rows can be masked after the fact instead of being
dropped.
"""

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import pade, poly
from .errors import ConfigError
from .modal import (
    POLE_EVAL_TOL,
    POLE_SEPARATION,
    build_rectangle_helmholtz,
    build_synthetic,
    evaluate_exact_grid,
    nearest_pole,
    pole_list,
    taylor_coefficients,
)
from .hilbert import complex_to_text, norm, pairs_to_array

SLOPE_FIT_WINDOW = (1e-11, 1e-1)
NEAR_POLE_DISTANCE = 1e-6


@dataclass
class StudyConfig:
    model_spec: dict
    z0: complex
    k_lo: float
    k_hi: float
    M_list: list
    N: int
    E_rule: str
    rho_factor: float
    grid_points: int
    z_probes: list
    E_list: list

    def rho(self):
        return self.rho_factor * self.radius()

    def radius(self):
        """R_K: largest distance from z0 to the interval of interest."""
        return max(abs(self.k_lo - self.z0), abs(self.k_hi - self.z0))

    def fast_E(self, M):
        if self.E_rule == "MaxMN":
            return max(M, self.N)
        return M + self.N

    def grid(self):
        return np.linspace(self.k_lo, self.k_hi, self.grid_points)


def _require(cond, path, message):
    if not cond:
        raise ConfigError(f"at {path}: {message}")


def _number(value, path, positive=False):
    """A finite (if asked, positive) JSON number, as a float."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max, path, "must be a finite number")
    _require(value > 0 or not positive, path, "must be positive")
    return float(value)


def _integer(value, path, low):
    """A JSON integer >= low; booleans are not integers here."""
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= low,
             path, f"must be an integer >= {low}")
    return value


def _known_keys(obj, path, keys):
    """Reject a key of obj outside keys, so that a misspelt one is not
    silently replaced by its default."""
    for key in obj:
        _require(key in keys, f"{path}.{key}", "unknown key")


def _complex(pair, path):
    _require(isinstance(pair, list) and len(pair) == 2, path, "must be a [re, im] pair")
    return complex(_number(pair[0], path), _number(pair[1], path))


CONFIG_KEYS = ("model", "z0", "K", "M_list", "N", "E_rule", "rho_rule",
               "grid_points", "z_probes", "E_list")
MODEL_KEYS = {
    "helmholtz": ("kind", "max_index", "nu_sq", "theta", "quad_order"),
    "synthetic": ("kind", "poles", "residue_norms"),
}


def _check_model(spec):
    _require(isinstance(spec, dict), "$.model", "missing model object")
    kind = spec.get("kind")
    _require(kind in ("helmholtz", "synthetic"), "$.model.kind",
             "must be 'helmholtz' or 'synthetic'")
    _known_keys(spec, "$.model", MODEL_KEYS[kind])
    if kind == "helmholtz":
        for key, low in (("max_index", 4), ("quad_order", 20)):
            _integer(spec.get(key, low), f"$.model.{key}", low)
        _number(spec.get("nu_sq", 1.0), "$.model.nu_sq", positive=True)
        _number(spec.get("theta", 0.0), "$.model.theta")
        return
    poles = spec.get("poles")
    _require(isinstance(poles, list) and poles, "$.model.poles",
             "must be a non-empty list of [re, im] pairs")
    values = [_complex(pair, f"$.model.poles[{i}]") for i, pair in enumerate(poles)]
    for j, lam in enumerate(values):
        for i in range(j):
            if abs(lam - values[i]) <= POLE_SEPARATION:
                raise ConfigError(
                    f"at $.model.poles[{j}]: lies within {POLE_SEPARATION} of poles[{i}]"
                )
    norms = spec.get("residue_norms")
    _require(isinstance(norms, list) and len(norms) == len(poles),
             "$.model.residue_norms", f"must be a list of {len(poles)} positive "
             "reals, one per pole")
    for i, r in enumerate(norms):
        _number(r, f"$.model.residue_norms[{i}]", positive=True)


def parse_config(obj):
    """Validate a raw JSON object into a StudyConfig (ConfigError on failure)."""
    _require(isinstance(obj, dict), "$", "config must be a JSON object")
    _known_keys(obj, "$", CONFIG_KEYS)
    model_spec = obj.get("model")
    _check_model(model_spec)
    z0 = _complex(obj.get("z0"), "$.z0")

    K = obj.get("K")
    _require(isinstance(K, list) and len(K) == 2, "$.K", "must be [k_lo, k_hi]")
    k_lo, k_hi = _number(K[0], "$.K[0]"), _number(K[1], "$.K[1]")
    _require(k_lo < k_hi, "$.K", "interval must be increasing")

    M_list = obj.get("M_list")
    _require(isinstance(M_list, list) and M_list, "$.M_list",
             "must be a non-empty list of integers")
    for i, M in enumerate(M_list):
        _integer(M, f"$.M_list[{i}]", 0)

    N = _integer(obj.get("N"), "$.N", 0)

    E_rule = obj.get("E_rule", "MaxMN")
    _require(E_rule in ("MaxMN", "MPlusN"), "$.E_rule",
             "must be 'MaxMN' or 'MPlusN'")

    rho_rule = obj.get("rho_rule", {"factor": 1.0})
    _require(isinstance(rho_rule, dict) and "factor" in rho_rule, "$.rho_rule",
             "must be an object with a 'factor' entry")
    _known_keys(rho_rule, "$.rho_rule", ("factor",))
    rho_factor = _number(rho_rule["factor"], "$.rho_rule.factor", positive=True)

    grid_points = _integer(obj.get("grid_points", 101), "$.grid_points", 2)

    z_probes = obj.get("z_probes", [])
    _require(isinstance(z_probes, list), "$.z_probes", "must be a list of [re, im] pairs")
    z_probes = [_complex(pair, f"$.z_probes[{i}]") for i, pair in enumerate(z_probes)]

    E_list = obj.get("E_list", [])
    _require(isinstance(E_list, list), "$.E_list", "must be a list of integers")
    for i, E in enumerate(E_list):
        _integer(E, f"$.E_list[{i}]", 0)
    _require(E_list == sorted(E_list), "$.E_list", "must be ascending")

    config = StudyConfig(
        model_spec=model_spec,
        z0=z0,
        k_lo=k_lo,
        k_hi=k_hi,
        M_list=list(M_list),
        N=N,
        E_rule=E_rule,
        rho_factor=rho_factor,
        grid_points=grid_points,
        z_probes=z_probes,
        E_list=list(E_list),
    )
    # factor * R_K can underflow to rho = 0 or overflow to inf
    rho = config.rho()
    _require(0.0 < rho < math.inf, "$.rho_rule.factor",
             f"gives rho = factor * R_K = {rho!r} (R_K = {config.radius()!r})")
    return config


def load_config(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8; nested too deeply
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(obj)


def build_model(config):
    spec = config.model_spec
    if spec["kind"] == "helmholtz":
        keys = set(MODEL_KEYS["helmholtz"]) - {"kind"}
        return build_rectangle_helmholtz(**{k: spec[k] for k in keys if k in spec})
    return build_synthetic(
        pairs_to_array(spec["poles"]),
        [float(r) for r in spec["residue_norms"]],
    )


def _model(config):
    """The study's model; a center on one of its poles is a config error."""
    model = build_model(config)
    lam, dist = nearest_pole(model, config.z0)
    if dist <= 1e-10:
        raise ConfigError(f"at $.z0: center {config.z0} lies on pole {lam}")
    return model


def _pairs(model, config, degrees, extra):
    """Per degree M in degrees, the fast approximant of degree M from
    config.fast_E(M) Taylor coefficients and the standard one of degree
    E - N from E = M + extra coefficients, all built from one Taylor block
    long enough for the largest (fast_E(M) grows with M)."""
    top = max(degrees)
    taylor = taylor_coefficients(model, config.z0, max(config.fast_E(top), top + extra))
    pairs = []
    for M in degrees:
        E = M + extra
        fast = pade.BuildParams(config.z0, M, config.N, config.fast_E(M), "fast")
        std = pade.BuildParams(config.z0, E - config.N, config.N, E, "standard",
                               config.rho())
        pairs.append((pade.build(model, fast, taylor), pade.build(model, std, taylor)))
    return pairs


def _errors(model, approx, points, exact):
    """Error norms and |Q| of approx at the points, as lists of floats;
    exact = evaluate_exact_grid(model, points), computed once per grid.
    The error is inf on a pole of S and where the approximant's value is
    not finite, |Q| having vanished or underflowed."""
    rows, dist = exact
    values, qmag = pade.evaluate(approx, points)
    with np.errstate(invalid="ignore"):  # inf - inf on a shared pole
        errors = norm(rows - values, model.weights)
    errors[(dist <= POLE_EVAL_TOL) | ~np.isfinite(values).all(axis=1)] = math.inf
    return errors.tolist(), qmag.tolist()


def fit_decay_factor(indices, errors, window=SLOPE_FIT_WINDOW):
    """Per-step decay factor from a least-squares fit of log10(error).

    Only points inside the window are used (floor/preasymptotic points are
    discarded); returns nan unless they hold two distinct indices.
    """
    lo, hi = window
    xs, ys = [], []
    for i, e in zip(indices, errors):
        if lo <= e <= hi:
            xs.append(i)
            ys.append(math.log10(e))
    if len(set(xs)) < 2:
        return math.nan
    # the closed-form least-squares slope, about the centroid
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - mx for x in xs]
    slope = sum(d * (y - my) for d, y in zip(dx, ys)) / sum(d * d for d in dx)
    return float(10.0**slope)


def predicted_point_factor(poles, config, z):
    """|z - z0| / |lambda_{N+1} - z0|; poles = pole_list(model, config.z0)."""
    if len(poles) <= config.N:
        return 0.0
    return abs(z - config.z0) / abs(poles[config.N][0] - config.z0)


def predicted_pole_factor(poles, config, alpha):
    """Per-E decay factor |(lambda_alpha - z0) / (lambda_{N+1} - z0)|^2;
    poles = pole_list(model, config.z0)."""
    if len(poles) <= config.N:
        return 0.0
    lam_a = poles[alpha - 1][0]
    lam_next = poles[config.N][0]
    return (abs(lam_a - config.z0) / abs(lam_next - config.z0)) ** 2


def _write(path, lines):
    """Each line followed by '\\n'; lines may be produced while writing.
    An --out that cannot be written is a ConfigError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def cmd_build(config, out):
    """{"approximants": [...]}, one approximant per line, each line
    serialized only when it is written."""
    model = _model(config)
    approxs = [a for pair in _pairs(model, config, config.M_list, config.N) for a in pair]
    last = len(approxs) - 1
    entries = (pade.approximant_line(a) + ("," if i < last else "")
               for i, a in enumerate(approxs))
    _write(out, itertools.chain(['{"approximants": ['], entries, ["]}"]))


def cmd_sweep(config, out):
    model = _model(config)
    grid = config.grid()
    exact = evaluate_exact_grid(model, grid)
    fast, std = zip(*_pairs(model, config, config.M_list, config.N))
    errors, qmags = zip(*(_errors(model, approx, grid, exact) for approx in fast + std))
    near = (exact[1] < NEAR_POLE_DISTANCE).tolist()

    header = ["z"]
    header += [f"abs_error_fast_M{M}" for M in config.M_list]
    header += [f"abs_error_std_M{M}" for M in config.M_list]
    header += [f"q_magnitude_fast_M{M}" for M in config.M_list]
    header += [f"q_magnitude_std_M{M}" for M in config.M_list]
    header.append("near_pole")
    row = "%.17g," * (len(header) - 1) + "%d"
    columns = (grid.tolist(), *errors, *qmags, near)
    _write(out, [",".join(header)] + [row % cells for cells in zip(*columns)])


def cmd_convergence(config, out):
    model = _model(config)
    probes = config.z_probes
    if not probes:
        raise ConfigError("at $.z_probes: convergence study needs probe points")
    for z in probes:
        if nearest_pole(model, z)[1] < 0.05:
            raise ConfigError(f"at $.z_probes: probe {z} is within 0.05 of a pole")
    for M in config.M_list:
        if M < config.N - 1:
            raise ConfigError(
                f"at $.M_list: M={M} violates the rate guarantee M >= N-1"
            )

    exact = evaluate_exact_grid(model, probes)
    fast, std = zip(*_pairs(model, config, config.M_list, config.N))
    errs_f = [_errors(model, approx, probes, exact) for approx in fast]
    errs_s = [_errors(model, approx, probes, exact) for approx in std]
    poles = pole_list(model, config.z0)

    header = [
        "probe", "M", "error_fast", "error_std",
        "q_magnitude_fast", "q_magnitude_std",
        "fitted_factor_fast", "predicted_factor",
    ]
    row = "%s,%d" + ",%.17g" * (len(header) - 2)
    lines = [",".join(header)]
    for j, z in enumerate(probes):
        fitted = fit_decay_factor(config.M_list, [ef[j] for ef, _ in errs_f])
        predicted = predicted_point_factor(poles, config, z)
        for M, (ef, qf), (es, qs) in zip(config.M_list, errs_f, errs_s):
            lines.append(row % (complex_to_text(z), M, ef[j], es[j], qf[j], qs[j],
                                fitted, predicted))
    _write(out, lines)


def _nearest_root_errors(roots, true_poles):
    """Per-pole nearest-root error plus the leftover unmatched roots."""
    errors = []
    matched = set()
    for lam in true_poles:
        dists = [abs(r - lam) for r in roots]
        best = int(np.argmin(dists))
        matched.add(best)
        errors.append(dists[best])
    extras = [r for i, r in enumerate(roots) if i not in matched]
    return errors, extras


def _check_E_list(config):
    if not config.E_list:
        raise ConfigError("at $.E_list: this study needs a list of E values")
    if min(config.E_list) < config.N:
        raise ConfigError(f"at $.E_list: minimum E must be >= N = {config.N}")


def cmd_poles(config, out):
    model = _model(config)
    if config.N < 1:
        raise ConfigError("at $.N: pole study needs N >= 1")
    _check_E_list(config)
    N = config.N
    poles = pole_list(model, config.z0)
    if len(poles) < N:
        raise ConfigError(
            f"at $.N: pole study needs N <= {len(poles)}, the number of poles "
            f"the model retains"
        )
    true_poles = [lam for lam, _ in poles[:N]]

    header = ["E"]
    header += [f"abs_error_fast_lambda{a}" for a in range(1, N + 1)]
    header += [f"abs_error_std_lambda{a}" for a in range(1, N + 1)]
    header += [f"predicted_factor_lambda{a}" for a in range(1, N + 1)]
    header += ["q_magnitude_fast", "q_magnitude_std",
               "extra_roots_fast", "extra_roots_std"]
    row = "%d" + ",%.17g" * (len(header) - 3) + ",%s,%s"
    lines = [",".join(header)]
    predicted = [predicted_pole_factor(poles, config, a) for a in range(1, N + 1)]
    for E, (fast, std) in zip(config.E_list, _pairs(model, config, config.E_list, 0)):
        err_f, extra_f = _nearest_root_errors(pade.approximant_poles(fast), true_poles)
        err_s, extra_s = _nearest_root_errors(pade.approximant_poles(std), true_poles)
        lines.append(row % (
            E, *err_f, *err_s, *predicted,
            abs(poly.evaluate(fast.denominator, config.z0)),
            abs(poly.evaluate(std.denominator, config.z0)),
            ";".join(complex_to_text(r) for r in extra_f),
            ";".join(complex_to_text(r) for r in extra_s),
        ))
    _write(out, lines)


def cmd_compare(config, out):
    """Fast against standard approximant per E on the grid.  The fast one
    has degree M = E from fast_E(E) Taylor coefficients (E under MaxMN,
    E + N under MPlusN); the standard one has degree E - N from E
    coefficients, so the two share a derivative budget only under MaxMN."""
    model = _model(config)
    _check_E_list(config)
    grid = config.grid()
    exact = evaluate_exact_grid(model, grid)
    near = (exact[1] < NEAR_POLE_DISTANCE).tolist()

    header = ["E", "z", "error_fast", "error_std", "ratio",
              "q_magnitude_fast", "q_magnitude_std", "near_pole"]
    row = "%d" + ",%.17g" * (len(header) - 2) + ",%d"
    lines = [",".join(header)]
    for E, (fast, std) in zip(config.E_list, _pairs(model, config, config.E_list, 0)):
        (err_f, q_f), (err_s, q_s) = (_errors(model, a, grid, exact) for a in (fast, std))
        for z, ef, es, qf, qs, flag in zip(grid.tolist(), err_f, err_s, q_f, q_s, near):
            ratio = ef / es if es > 0 else math.inf
            lines.append(row % (E, z, ef, es, ratio, qf, qs, flag))
    _write(out, lines)
