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
import os
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from . import pade, poly
from .errors import ConfigError, close_pairs, stacks
from .modal import (
    CENTER_DISTANCE,
    COORDINATE_LIMIT,
    POLE_SEPARATION,
    build_rectangle_helmholtz,
    build_synthetic,
    evaluate_exact_grid,
    nearest_pole,
    pole_list,
    taylor_coefficients,
)
from .hilbert import json_text, norm

SLOPE_FIT_WINDOW = (1e-11, 1e-1)
NEAR_POLE_DISTANCE = 1e-6


class StudyConfig(NamedTuple):
    make_model: partial  # the model constructor bound to the config's arguments
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


def _integer(value, path, low=0, high=2**20):
    """A JSON integer from low to high; booleans are not integers here.  The
    bounds keep every array a study asks NumPy for below its size limit."""
    _require(isinstance(value, int) and not isinstance(value, bool)
             and low <= value <= high, path, f"must be an integer from {low} to {high}")
    return value


def _known_keys(obj, path, keys):
    """Reject a key of obj outside keys, so that a misspelt one is not
    silently replaced by its default."""
    for key in obj:
        _require(key in keys, f"{path}.{key}", "unknown key")


def _coordinate(value, path):
    """A finite JSON number of magnitude below 2^1021, so that the difference
    of two points and its modulus are finite."""
    x = _number(value, path)
    _require(abs(x) < COORDINATE_LIMIT, path, "must have magnitude below 2^1021")
    return x


def _complex(pair, path):
    _require(isinstance(pair, list) and len(pair) == 2, path, "must be a [re, im] pair")
    return complex(_coordinate(pair[0], path), _coordinate(pair[1], path))


def _list(value, path, read, what, nonempty=False):
    """A JSON list (if asked, a non-empty one) of what, each entry as
    read(entry, its path)."""
    _require(isinstance(value, list) and (value or not nonempty), path,
             f"must be a {'non-empty ' if nonempty else ''}list of {what}")
    return [read(item, f"{path}[{i}]") for i, item in enumerate(value)]


# The optional top-level keys and their defaults.
CONFIG_DEFAULTS = {"E_rule": "MaxMN", "rho_rule": {"factor": 1.0}, "grid_points": 101,
                   "z_probes": [], "E_list": []}
CONFIG_KEYS = ("model", "z0", "K", "M_list", "N", *CONFIG_DEFAULTS)
# The Helmholtz model's optional arguments, in the order they are checked;
# an absent one keeps the default of build_rectangle_helmholtz.
HELMHOLTZ_ARGS = {
    "max_index": partial(_integer, low=4, high=2**10),  # max_index^2 modes
    "quad_order": partial(_integer, low=20),
    "nu_sq": partial(_number, positive=True),
    "theta": _number,
}


def _model_constructor(spec):
    """The model constructor spec names, bound to the arguments it gives."""
    _require(isinstance(spec, dict), "$.model", "missing model object")
    kind = spec.get("kind")
    _require(kind in ("helmholtz", "synthetic"), "$.model.kind",
             "must be 'helmholtz' or 'synthetic'")
    if kind == "helmholtz":
        _known_keys(spec, "$.model", ("kind", *HELMHOLTZ_ARGS))
        return partial(build_rectangle_helmholtz, **{
            key: read(spec[key], f"$.model.{key}")
            for key, read in HELMHOLTZ_ARGS.items() if key in spec})
    _known_keys(spec, "$.model", ("kind", "poles", "residue_norms"))
    poles = _list(spec.get("poles"), "$.model.poles", _complex, "[re, im] pairs",
                  nonempty=True)
    if pairs := close_pairs(poles, POLE_SEPARATION):
        j, i = min((j, i) for i, j in pairs)
        raise ConfigError(f"at $.model.poles[{j}]: lies within {POLE_SEPARATION} of poles[{i}]")
    norms = spec.get("residue_norms")
    _require(isinstance(norms, list) and len(norms) == len(poles),
             "$.model.residue_norms", f"must be a list of {len(poles)} positive "
             "reals, one per pole")
    return partial(build_synthetic, poles, [
        _number(r, f"$.model.residue_norms[{i}]", positive=True)
        for i, r in enumerate(norms)])


def parse_config(obj):
    """Validate a raw JSON object into a StudyConfig (ConfigError on failure)."""
    _require(isinstance(obj, dict), "$", "config must be a JSON object")
    _known_keys(obj, "$", CONFIG_KEYS)
    obj = {**CONFIG_DEFAULTS, **obj}
    make_model = _model_constructor(obj.get("model"))
    z0 = _complex(obj.get("z0"), "$.z0")

    K = obj.get("K")
    _require(isinstance(K, list) and len(K) == 2, "$.K", "must be [k_lo, k_hi]")
    k_lo, k_hi = _coordinate(K[0], "$.K[0]"), _coordinate(K[1], "$.K[1]")
    _require(k_lo < k_hi, "$.K", "interval must be increasing")

    M_list = _list(obj.get("M_list"), "$.M_list", _integer, "integers", nonempty=True)
    N = _integer(obj.get("N"), "$.N")
    E_rule = obj["E_rule"]
    _require(E_rule in ("MaxMN", "MPlusN"), "$.E_rule",
             "must be 'MaxMN' or 'MPlusN'")

    rho_rule = obj["rho_rule"]
    _require(isinstance(rho_rule, dict) and "factor" in rho_rule, "$.rho_rule",
             "must be an object with a 'factor' entry")
    _known_keys(rho_rule, "$.rho_rule", ("factor",))
    # keyword arguments are evaluated, and so checked, in the order written
    config = StudyConfig(
        make_model=make_model,
        z0=z0,
        k_lo=k_lo,
        k_hi=k_hi,
        M_list=M_list,
        N=N,
        E_rule=E_rule,
        rho_factor=_number(rho_rule["factor"], "$.rho_rule.factor", positive=True),
        grid_points=_integer(obj["grid_points"], "$.grid_points", 2),
        z_probes=_list(obj["z_probes"], "$.z_probes", _complex, "[re, im] pairs"),
        E_list=_list(obj["E_list"], "$.E_list", _integer, "integers"),
    )
    _require(config.E_list == sorted(config.E_list), "$.E_list", "must be ascending")
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
    return config.make_model()


def _model(config):
    """The study's model; a center on one of its poles is a config error."""
    model = build_model(config)
    lam, dist = nearest_pole(model, config.z0)
    if dist <= CENTER_DISTANCE:
        raise ConfigError(f"at $.z0: center {config.z0} lies on pole {lam}")
    return model


def _pairs(model, config, degrees, extra, numerators=True):
    """Per degree M in degrees, the fast approximant of degree M from
    config.fast_E(M) Taylor coefficients and the standard one of degree
    E - N from E = M + extra coefficients, all built from one Taylor block
    long enough for the largest (fast_E(M) grows with M): every denominator
    first (pade.denominators raises the first failure its stacks meet),
    then the numerators, or None in their place."""
    top = max(degrees)
    taylor = taylor_coefficients(model, config.z0, max(config.fast_E(top), top + extra))
    params = []
    for M in degrees:
        E = M + extra
        params += [pade.BuildParams(config.z0, M, config.N, config.fast_E(M), "fast"),
                   pade.BuildParams(config.z0, E - config.N, config.N, E, "standard",
                                    config.rho())]
    approxs = [pade.PadeApproximant(pade.numerator(taylor, den, p.M) if numerators else None,
                                    den, p, diag)
               for p, (den, diag) in zip(params, pade.denominators(model, params, taylor))]
    return list(zip(approxs[::2], approxs[1::2]))


def _grid_errors(model, approxs, points, rows):
    """Error norms and |Q| of each of approxs at the points, as two
    (len(approxs), n) arrays; rows, S at the points, come from
    evaluate_exact_grid once per grid.  One pade.evaluate_stack for all of
    them, then one norm for each of its stacks, each error bit-identical
    to the norm of its row alone (hilbert.norm sums each row apart).  The
    error is inf on a pole of S, whose row is inf, and where the
    approximant's value is not finite, |Q| having vanished or underflowed."""
    errors, qmags = np.empty((2, len(approxs), len(points)))
    for index, values, qmag in pade.evaluate_stack(approxs, points):
        finite = np.isfinite(values).all(axis=-1)
        with np.errstate(invalid="ignore"):  # inf - inf on a shared pole
            values -= rows[:, None]  # |P/Q - S| = |S - P/Q|, bit for bit
            err = norm(values.reshape(-1, values.shape[-1]), model.weights).reshape(finite.shape)
        err[~finite] = math.inf
        errors[index], qmags[index] = err.T, qmag
        del values  # before the next stack's Horner pass
    return errors, qmags


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
    """Per-M decay factor |z - z0| / |lambda_{N+1} - z0| of the approximant
    at z; poles = pole_list(model, config.z0).  At z = lambda_alpha, its
    square is the per-E decay factor of the error of pole alpha."""
    if len(poles) <= config.N:
        return 0.0
    return abs(z - config.z0) / abs(poles[config.N] - config.z0)


def complex_to_text(z):
    """CSV form of a complex scalar: 're±imj'."""
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)


def _write(fh, lines):
    """Each line followed by '\\n' to the open file fh; lines may be
    produced while writing."""
    fh.writelines(line + "\n" for line in lines)


def _command(study):
    """study(config, model), which returns its output lines, as a command on
    an --out path.  The path is opened once, before the model is built:
    ConfigError if it cannot be opened or written.  A failed study removes
    the file if the open created it.  No __wrapped__: a tracer marks its
    own wrappers with it."""

    def run(config, out):
        created, done = not os.path.exists(out), False
        try:
            with open(out, "w", newline="") as fh:
                _write(fh, study(config, _model(config)))
            done = True
        except OSError as exc:
            raise ConfigError(f"cannot write output {out}: {exc}") from exc
        finally:
            if created and not done and os.path.exists(out):
                os.remove(out)

    return run


@_command
def cmd_build(config, model):
    """{"approximants": [...]}, one approximant per line, each line
    serialized only when it is written."""
    approxs = [a for pair in _pairs(model, config, config.M_list, config.N) for a in pair]
    last = len(approxs) - 1
    entries = (json_text(pade.approximant_to_json(a)) + ("," if i < last else "")
               for i, a in enumerate(approxs))
    return itertools.chain(['{"approximants": ['], entries, ["]}"])


@_command
def cmd_sweep(config, model):
    grid = config.grid()
    rows, dist = evaluate_exact_grid(model, grid)
    fast, std = zip(*_pairs(model, config, config.M_list, config.N))
    errors, qmags = _grid_errors(model, fast + std, grid, rows)
    near = (dist < NEAR_POLE_DISTANCE).tolist()

    header = ["z", *(f"{cell}_M{M}" for cell in ("abs_error_fast", "abs_error_std",
                                                 "q_magnitude_fast", "q_magnitude_std")
                     for M in config.M_list), "near_pole"]
    row = "%.17g," * (len(header) - 1) + "%d"
    columns = (grid.tolist(), *errors.tolist(), *qmags.tolist(), near)
    return [",".join(header)] + [row % cells for cells in zip(*columns)]


@_command
def cmd_convergence(config, model):
    probes = config.z_probes
    if not probes:
        raise ConfigError("at $.z_probes: convergence study needs probe points")
    rows, dists = evaluate_exact_grid(model, probes)
    for z, dist in zip(probes, dists.tolist()):
        if dist < 0.05:  # a retained pole within 0.05, or a row not finite
            near = np.abs(model.eigenvalues[model.coefficients != 0] - z).min(initial=math.inf)
            if near >= 0.05:  # no pole of S, dropped or retained, is near
                raise ConfigError(f"at $.z_probes: S overflows at probe {z}, {near:.3g} from "
                                  f"the nearest pole")
            raise ConfigError(f"at $.z_probes: probe {z} is within 0.05 of a pole")
    for M in config.M_list:
        if M < config.N - 1:
            raise ConfigError(
                f"at $.M_list: M={M} violates the rate guarantee M >= N-1"
            )

    fast, std = zip(*_pairs(model, config, config.M_list, config.N))
    errors, qmags = (a.tolist() for a in _grid_errors(model, fast + std, probes, rows))
    m = len(fast)
    poles = pole_list(model, config.z0)

    header = [
        "probe", "M", "error_fast", "error_std",
        "q_magnitude_fast", "q_magnitude_std",
        "fitted_factor_fast", "predicted_factor",
    ]
    row = "%s,%d" + ",%.17g" * (len(header) - 2)
    lines = [",".join(header)]
    for j, z in enumerate(probes):
        fitted = fit_decay_factor(config.M_list, [ef[j] for ef in errors[:m]])
        predicted = predicted_point_factor(poles, config, z)
        for M, ef, es, qf, qs in zip(config.M_list, errors[:m], errors[m:], qmags[:m],
                                     qmags[m:]):
            lines.append(row % (complex_to_text(z), M, ef[j], es[j], qf[j], qs[j],
                                fitted, predicted))
    return lines


def _nearest_root_errors(roots, true_poles):
    """Per list of roots, the distance from each pole to its nearest root
    (the first, on a tie) and the roots no pole picked as CSV text: the
    lists of one length as one pass over an (approximant, pole, root)
    array of np.hypot distances, which Python's abs of a complex number
    is."""
    out = list(roots)
    lam = np.array(true_poles)[:, None]
    for index in stacks(roots).values():
        r = np.array([roots[i] for i in index])
        d = r[:, None] - lam
        dists = np.hypot(d.real, d.imag)
        # the picked roots by a mask: an integer comparison would run NumPy
        # code no other step runs, whose pages add to the resident peak
        picked = np.zeros(dists.shape, dtype=bool)
        np.put_along_axis(picked, dists.argmin(axis=2)[..., None], True, axis=2)
        extra = ~picked.any(axis=1)
        for i, err, row, mask in zip(index, dists.min(axis=2).tolist(), r.tolist(),
                                     extra.tolist()):
            out[i] = err, ";".join(complex_to_text(z) for z, e in zip(row, mask) if e)
    return out


def _check_E_list(config):
    if not config.E_list:
        raise ConfigError("at $.E_list: this study needs a list of E values")
    if min(config.E_list) < config.N:
        raise ConfigError(f"at $.E_list: minimum E must be >= N = {config.N}")


@_command
def cmd_poles(config, model):
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
    true_poles = poles[:N]

    header = ["E", *(f"{cell}_lambda{a}" for cell in ("abs_error_fast", "abs_error_std",
                                                      "predicted_factor")
                     for a in range(1, N + 1)),
              "q_magnitude_fast", "q_magnitude_std", "extra_roots_fast", "extra_roots_std"]
    row = "%d" + ",%.17g" * (len(header) - 3) + ",%s,%s"
    lines = [",".join(header)]
    predicted = [predicted_point_factor(poles, config, lam) ** 2 for lam in true_poles]
    pairs = _pairs(model, config, config.E_list, 0, numerators=False)
    roots = poly.roots([a.denominator for pair in pairs for a in pair])
    errors = _nearest_root_errors(roots, true_poles)
    for E, pair, (err_f, extra_f), (err_s, extra_s) in zip(config.E_list, pairs, errors[::2],
                                                           errors[1::2]):
        q0 = [abs(a.denominator.coeffs[0]) for a in pair]  # Q(z0) = a_0
        lines.append(row % (E, *err_f, *err_s, *predicted, *q0, extra_f, extra_s))
    return lines


@_command
def cmd_compare(config, model):
    """Fast against standard approximant per E on the grid.  The fast one
    has degree M = E from fast_E(E) Taylor coefficients (E under MaxMN,
    E + N under MPlusN); the standard one has degree E - N from E
    coefficients, so the two share a derivative budget only under MaxMN."""
    _check_E_list(config)
    grid = config.grid()
    rows, dist = evaluate_exact_grid(model, grid)
    near = (dist < NEAR_POLE_DISTANCE).tolist()

    approxs = [a for pair in _pairs(model, config, config.E_list, 0) for a in pair]
    errors, qmags = _grid_errors(model, approxs, grid, rows)
    zs = ["%.17g" % z for z in grid.tolist()]  # each grid point formatted once

    header = ["E", "z", "error_fast", "error_std", "ratio",
              "q_magnitude_fast", "q_magnitude_std", "near_pole"]
    row = "%d,%s" + ",%.17g" * (len(header) - 3) + ",%d"
    lines = [",".join(header)]
    for E, err, q in zip(config.E_list, errors.reshape(-1, 2, len(zs)),
                         qmags.reshape(-1, 2, len(zs))):
        (err_f, err_s), (q_f, q_s) = err.tolist(), q.tolist()
        for z, ef, es, qf, qs, flag in zip(zs, err_f, err_s, q_f, q_s, near):
            ratio = ef / es if es > 0 else math.inf
            lines.append(row % (E, z, ef, es, ratio, qf, qs, flag))
    return lines
