"""Experiment driver: frequency sweeps, convergence studies, pole studies.

All commands consume a JSON study configuration, checked by hilbert's rule
for every JSON object the package reads (parse_config): a failed check is
a ConfigError of its text, "at <path>: <message>", and load_config also
refuses a key written twice in one object.  The CSV commands write each
float cell as '%.17g' spells it (17 significant digits, 'inf', 'nan') and
join each row's cells by ',' ('\\n' line endings); see _cells for how the
cells of a long CSV are spelled at once.  Every data row carries the
denominator magnitude so near-pole rows can be masked after the fact
instead of being dropped.  Each command makes one pade.build call, and
poles, which builds no numerator, one pade.denominators call and one
poly.roots pass.  sweep, convergence and compare measure their
approximants against S one block of points at a time (_grid_errors), so
that no command holds the approximants' values on the whole grid.  sweep
and compare also take S one block at a time; convergence takes S at all
its probes once, for its probe check, and holds it from the check to the
errors.
"""

import json
import math
import os
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import pade, poly
from .errors import ConfigError
from .modal import (
    CENTER_DISTANCE,
    COORDINATE_LIMIT,
    POLE_SEPARATION,
    _close_pairs,
    _nearest_pole,
    build_rectangle_helmholtz,
    build_synthetic,
    evaluate_exact_grid,
    pole_list,
    taylor_coefficients,
)
from .hilbert import _integer, _known_keys, _number, _require, json_bytes, norm

SLOPE_FIT_WINDOW = (1e-11, 1e-1)
NEAR_POLE_DISTANCE = 1e-6
PROBE_DISTANCE = 0.05  # a convergence probe this close to a pole of S is refused
CELL_CROSSOVER = 512  # fewer float cells than this are spelled one by one
CELL_CHUNK = 1024  # cells per array pass
BLOCK_VALUES = 2**17  # complex values of one block of _grid_errors, 2 MiB


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
    if pairs := _close_pairs(poles, POLE_SEPARATION):
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
    """Validate a raw JSON object into a StudyConfig: ConfigError on
    failure, with the text of the failed check of hilbert's ("at $...:
    ...")."""
    try:
        return _study_config(obj)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _study_config(obj):
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


def _unique_keys(pairs):
    """The JSON object of pairs, a key written twice in it refused: else
    the last would silently take effect."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for key in obj if keys.count(key) > 1)
        raise ValueError(f"key {key!r} written twice in one object")
    return obj


def load_config(path):
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    # not UTF-8, an integer of more than 4,300 digits or a key written
    # twice; nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(obj)


def build_model(config):
    return config.make_model()


def _model(config):
    """The study's model; a center on one of its poles is a config error."""
    model = build_model(config)
    lam, dist = _nearest_pole(model, config.z0)
    if dist <= CENTER_DISTANCE:
        raise ConfigError(f"at $.z0: center {config.z0} lies on pole {lam}")
    return model


def _params(config, degrees, extra):
    """Per degree M in degrees, the BuildParams of the fast approximant of
    degree M from config.fast_E(M) Taylor coefficients, then of the
    standard one of degree E - N from E = M + extra coefficients: the flat
    [fast, standard, ...] list that pade.build and pade.denominators take."""
    params = []
    for M in degrees:
        E = M + extra
        params += [pade.BuildParams(config.z0, M, config.N, config.fast_E(M), "fast"),
                   pade.BuildParams(config.z0, E - config.N, config.N, E, "standard",
                                    config.rho())]
    return params


def _grid_errors(model, approxs, points, exact=None):
    """Error norms and |Q| of each of approxs at the points, as two
    (len(approxs), n) arrays, and the points' distances to the poles of S.
    Per block of max(1, BLOCK_VALUES // (approximants x modes)) points: S
    and the distances (evaluate_exact_grid), every approximant
    (pade._evaluate_stack), one finiteness test, one subtraction of S and
    one norm, each error bit-identical to the norm of its row alone
    (hilbert.norm sums each row apart), whatever the block.  The error is
    inf on a pole of S, whose row is inf, and where the approximant's
    value is not finite, |Q| having vanished or underflowed.  exact, if
    given, is evaluate_exact_grid(model, points), which the blocks slice
    instead, each point's row and distance being its own: convergence
    passes the S of its probe check; sweep and compare pass none, so hold
    S one block at a time."""
    (errors, qmags), dist = np.empty((2, len(approxs), len(points))), np.empty(len(points))
    size = max(1, BLOCK_VALUES // (len(approxs) * model.dimension))
    for start in range(0, len(points), size):
        block = slice(start, start + size)
        rows, dist[block] = (evaluate_exact_grid(model, points[block]) if exact is None
                             else (exact[0][block], exact[1][block]))
        index, values, qmag = pade._evaluate_stack(approxs, points[block])
        finite = np.isfinite(values).all(axis=-1)
        with np.errstate(invalid="ignore"):  # inf - inf on a shared pole
            values -= rows  # |P/Q - S| = |S - P/Q|, bit for bit
            err = norm(values.reshape(-1, values.shape[-1]), model.weights).reshape(finite.shape)
        err[~finite] = math.inf
        errors[index, block], qmags[index, block] = err, qmag
        del rows, values  # before the next block's S and Horner pass
    return errors, qmags, dist


def _fit_decay_factor(indices, errors, window=SLOPE_FIT_WINDOW):
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


def _predicted_point_factor(poles, config, z):
    """Per-M decay factor |z - z0| / |lambda_{N+1} - z0| of the approximant
    at z; poles = pole_list(model, config.z0).  At z = lambda_alpha, its
    square is the per-E decay factor of the error of pole alpha."""
    if len(poles) <= config.N:
        return 0.0
    return abs(z - config.z0) / abs(poles[config.N] - config.z0)


def _complex_to_text(z):
    """CSV form of a complex scalar: 're±imj'."""
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)


def _layout(X, nd):
    """The source columns of the characters of a positive cell of decimal
    exponent X and nd digits up to the last nonzero one, NUL-padded to
    24: a row holds the 17 digits, then '.', '-', 'e', '+', NUL and '0'
    to '9'."""
    dot, minus, e, plus, nul, zero = range(17, 23)
    if X < -4 or X > 16:
        cols = [0] + [dot] * (nd > 1) + [*range(1, nd), e, minus if X < 0 else plus,
                                         zero + abs(X) // 10, zero + abs(X) % 10]
    elif X < 0:
        cols = [zero, dot] + [zero] * (-1 - X) + [*range(nd)]
    else:
        cols = [*range(X + 1)] + [dot] * (nd > X + 1) + [*range(X + 1, nd)]
    return bytes(cols).ljust(24, bytes([nul]))


@cache
def _cell_tables():
    """Tables of _cell_chunk, built on first use by Python arithmetic:
    10^k for k from -31 to 47 as hi + lo, the least double >= 10^k and
    hi's Dekker halves; each cell's layout by its key (X + 30, nd - 1,
    sign); the texts '00' to '99' and the characters after the digits."""
    hi, lo, least, hh, hl = [], [], [], [], []
    for k in range(-31, 48):
        n, d = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = n / d  # int / int rounds correctly
        a, b = h.as_integer_ratio()
        c = 134217729.0 * h
        hi.append(h)
        lo.append((n * b - a * d) / (d * b))
        least.append(math.nextafter(h, math.inf) if lo[-1] > 0 else h)
        hh.append(c - (c - h))
        hl.append(h - hh[-1])
    pos = np.frombuffer(b"".join(_layout(X, nd) for X in range(-30, 31) for nd in range(1, 18)),
                        np.uint8).reshape(61, 17, 1, 24)
    neg = np.concatenate([np.full_like(pos[..., :1], 18), pos[..., :23]], axis=-1)  # '-' first
    return (*map(np.array, (hi, lo, least, hh, hl)),
            np.concatenate([pos, neg], axis=2).reshape(-1, 24),
            np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16),
            np.frombuffer(b".-e+\0" b"0123456789", np.uint8))


def _cell_chunk(v):
    """'%.17g' % x for each x of the 1-d float array v, in one array pass.

    For finite |x| in [1e-30, 1e30) the decimal exponent X of log10 is
    corrected against the table of 10^k, the 17-digit significand
    D = round(|x| 10^(16 - X)) is taken from a double-double product
    (Dekker 1971, no FMA) of error below 1e-14, its digits from the
    texts '00' to '99', and the cell's characters gathered by its
    layout; .tolist() strips the NULs that end it.  The other cells, and
    those whose |x| 10^(16 - X) has a fraction within 1e-9 of 1/2 (a tie,
    which doubles such as 1000000000000000.25 hit, or too near one for
    the product's error), are spelled by '%.17g'."""
    hi, lo, least, hh, hl, layouts, pairs, consts = _cell_tables()
    a, n = abs(v), len(v)
    ok = (a >= 1e-30) & (a < 1e30)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp) + 31
    e = k - (a < least.take(k)) + (a >= least.take(k + 1))  # X + 31
    s = 78 - e  # 16 - X + 31
    p = a * hi.take(s)
    c = 134217729.0 * a
    ah = c - (c - a)
    al, hs, ls = a - ah, hh.take(s), hl.take(s)
    t = ((ah * hs - p) + ah * ls + al * hs) + al * ls + a * lo.take(s)  # |x| 10^s - p
    r = np.rint(t)
    ok &= abs(abs(t - r) - 0.5) >= 1e-9
    D = p.astype(np.int64) + r.astype(np.int64)
    carry = D == 10**17  # rounded up into the next decade
    D[carry] = 10**16
    e += carry
    src = np.empty((n, 32), np.uint8)  # D's 17 digits, then consts
    lead, D = np.divmod(D, 10**16)
    src[:, 0] = lead + 48
    q = np.empty((n, 2, 4), np.int64)  # the two-digit groups of D's last 16 digits
    x = np.stack(np.divmod(D, 10**8), axis=1)
    for col in range(3, -1, -1):
        x, q[:, :, col] = np.divmod(x, 100)
    src[:, 1:17] = pairs.take(q).view(np.uint8).reshape(n, 16)
    src[:, 17:] = consts
    last = 16 - (src[:, 16::-1] != 48).argmax(axis=1)
    idx = layouts.take(((e - 1) * 17 + last) * 2 + np.signbit(v), axis=0)
    text = src.take(idx + np.arange(0, 32 * n, 32)[:, None])  # ASCII
    cells = text.astype(np.uint32).view("U24").ravel().tolist()
    for i in np.flatnonzero(~ok).tolist():
        cells[i] = "%.17g" % v[i]
    return cells


def _cells(values):
    """'%.17g' % x for each float x of the array values, in C order, as a
    list of str: by _cell_chunk, CELL_CHUNK cells at a time to bound its
    memory (about 500 B per cell, the texts included), from CELL_CROSSOVER
    cells up, else one by one.  The pass breaks even at 150 to 250 cells,
    but its first use in a process maps about 0.9 MB of NumPy code and
    tables, which a few hundred cells do not repay."""
    v = np.asarray(values, float).ravel()
    if len(v) < CELL_CROSSOVER:
        return ["%.17g" % x for x in v.tolist()]
    cells = []
    for start in range(0, len(v), CELL_CHUNK):
        cells += _cell_chunk(v[start:start + CELL_CHUNK])
    return cells


def _lines(header, *columns):
    """The CSV as one chunk of ASCII bytes, in a tuple of one: the header,
    then one row per item of the columns, each an iterable of cell texts,
    every line ended by '\\n'."""
    return ("\n".join([",".join(header), *map(",".join, zip(*columns)), ""]).encode(),)


def _write(fh, chunks):
    """The chunks of bytes, each carrying its own line ends, as given to
    fh, a binary file open for writing from offset 0 and not emptied;
    chunks may be produced while writing.  An earlier file's bytes are
    overwritten in place, and a longer tail is cut after the last chunk
    written, also when producing a chunk fails.  A file that cannot seek
    (a pipe) or is no longer than what was written (a device) is not cut.
    The cut runs here, so a process killed while writing (SIGKILL, power
    loss) can leave the new chunks followed by the earlier file's tail."""
    try:
        fh.writelines(chunks)
    finally:
        fh.flush()
        if fh.seekable() and (end := fh.tell()) < os.fstat(fh.fileno()).st_size:
            fh.truncate(end)


def _in_place(path, flags):
    """An opener for a file written over from offset 0: O_TRUNC cleared,
    so that an earlier file keeps its blocks."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _command(study):
    """study(config, model), which returns chunks of bytes, as a command on
    an --out path.  The path is opened once, in binary mode, before the
    model is built, and never emptied: _write overwrites it and cuts a
    longer tail.  ConfigError if it cannot be opened or written.  A study
    that fails before its first chunk leaves an earlier file as it was and
    removes the file if the open created it.  No __wrapped__: a tracer
    marks its own wrappers with it."""

    def run(config, out):
        created, done = not os.path.exists(out), False
        try:
            with open(out, "wb", opener=_in_place) as fh:
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
    """{"approximants": [...]}, one line per approximant, serialized only
    when written and never copied: its ",\\n" or "\\n" is a chunk apart."""
    # built before the first chunk is asked for, so that a failing build
    # leaves an earlier file as it was
    approxs = pade.build(model, _params(config, config.M_list, config.N))
    last = len(approxs) - 1

    def chunks():
        yield b'{"approximants": [\n'
        for i, a in enumerate(approxs):
            yield json_bytes(pade.approximant_to_json(a))
            yield b",\n" if i < last else b"\n"
        yield b"]}\n"

    return chunks()


@_command
def cmd_sweep(config, model):
    grid = config.grid()
    approxs = pade.build(model, _params(config, config.M_list, config.N))
    errors, qmags, dist = _grid_errors(model, approxs[::2] + approxs[1::2], grid)
    flags = np.where(dist < NEAR_POLE_DISTANCE, "1", "0").tolist()

    header = ["z", *(f"{cell}_M{M}" for cell in ("abs_error_fast", "abs_error_std",
                                                 "q_magnitude_fast", "q_magnitude_std")
                     for M in config.M_list), "near_pole"]
    cells = iter(_cells(np.vstack([grid, errors, qmags]).T))  # row by row
    return _lines(header, *[cells] * (len(header) - 1), flags)


@_command
def cmd_convergence(config, model):
    probes = config.z_probes
    if not probes:
        raise ConfigError("at $.z_probes: convergence study needs probe points")
    exact = evaluate_exact_grid(model, probes)  # S at the probes, reused for the errors
    for z, dist in zip(probes, exact[1].tolist()):
        if dist < PROBE_DISTANCE:  # a retained pole that near, or a row not finite
            near = np.abs(model.eigenvalues[model.coefficients != 0] - z).min(initial=math.inf)
            if near >= PROBE_DISTANCE:  # no pole of S, dropped or retained, is near
                raise ConfigError(f"at $.z_probes: S overflows at probe {z}, {near:.3g} from "
                                  f"the nearest pole")
            raise ConfigError(f"at $.z_probes: probe {z} is within {PROBE_DISTANCE} of a pole")
    for M in config.M_list:
        if M < config.N - 1:
            raise ConfigError(
                f"at $.M_list: M={M} violates the rate guarantee M >= N-1"
            )

    approxs = pade.build(model, _params(config, config.M_list, config.N))
    errors, qmags, _ = _grid_errors(model, approxs[::2] + approxs[1::2], probes, exact)
    m = len(config.M_list)
    poles = pole_list(model, config.z0)

    header = [
        "probe", "M", "error_fast", "error_std",
        "q_magnitude_fast", "q_magnitude_std",
        "fitted_factor_fast", "predicted_factor",
    ]
    floats = []
    for j, z in enumerate(probes):
        factors = (_fit_decay_factor(config.M_list, errors[:m, j].tolist()),
                   _predicted_point_factor(poles, config, z))
        for ef, es, qf, qs in zip(errors[:m, j], errors[m:, j], qmags[:m, j], qmags[m:, j]):
            floats += (ef, es, qf, qs, *factors)
    cells = iter(_cells(floats))
    return _lines(header, [_complex_to_text(z) for z in probes for _ in range(m)],
                  [str(M) for _ in probes for M in config.M_list], *[cells] * 6)


def _nearest_root_errors(roots, true_poles):
    """Per list of roots, the distance from each pole to its nearest root
    (the first, on a tie) and the roots no pole picked as CSV text, the
    distances by one np.hypot over all the lists' roots, which Python's abs
    of a complex number is, sliced per list."""
    d = np.array([z for r in roots for z in r]) - np.array(true_poles)[:, None]
    all_dists, out, stop = np.hypot(d.real, d.imag), [], 0
    for r in roots:
        start, stop = stop, stop + len(r)
        dists = all_dists[:, start:stop]
        picked = set(dists.argmin(axis=1).tolist())
        out.append((dists.min(axis=1).tolist(), ";".join(
            _complex_to_text(z) for j, z in enumerate(r) if j not in picked)))
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
    predicted = [_predicted_point_factor(poles, config, lam) ** 2 for lam in true_poles]
    params = _params(config, config.E_list, 0)
    dens = [den for den, _ in pade.denominators(model, params, taylor_coefficients(
        model, config.z0, max(p.E for p in params)))]
    errors = _nearest_root_errors(poly.roots(dens), true_poles)
    q0 = [abs(q.coeffs[0]) for q in dens]  # Q(z0) = a_0
    floats = []
    for (err_f, _), (err_s, _), q_f, q_s in zip(errors[::2], errors[1::2], q0[::2], q0[1::2]):
        floats += (*err_f, *err_s, *predicted, q_f, q_s)
    cells = iter(_cells(floats))
    return _lines(header, map(str, config.E_list), *[cells] * (3 * N + 2),
                  [extra for _, extra in errors[::2]], [extra for _, extra in errors[1::2]])


@_command
def cmd_compare(config, model):
    """Fast against standard approximant per E on the grid.  The fast one
    has degree M = E from fast_E(E) Taylor coefficients (E under MaxMN,
    E + N under MPlusN); the standard one has degree E - N from E
    coefficients, so the two share a derivative budget only under MaxMN."""
    _check_E_list(config)
    grid = config.grid()
    approxs = pade.build(model, _params(config, config.E_list, 0))
    errors, qmags, dist = _grid_errors(model, approxs, grid)
    errors, qmags = errors.reshape(-1, 2, len(grid)), qmags.reshape(-1, 2, len(grid))
    flags = np.where(dist < NEAR_POLE_DISTANCE, "1", "0").tolist()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(errors[:, 1] > 0, errors[:, 0] / errors[:, 1], math.inf)
    # per E, row by row: error_fast, error_std, ratio, q_magnitude_fast, q_magnitude_std
    cells = iter(_cells(np.concatenate([errors, ratio[:, None], qmags], 1).transpose(0, 2, 1)))
    zs = _cells(grid)  # each grid point spelled once

    header = ["E", "z", "error_fast", "error_std", "ratio",
              "q_magnitude_fast", "q_magnitude_std", "near_pole"]
    n = len(config.E_list)
    return _lines(header, [str(E) for E in config.E_list for _ in zs], zs * n, *[cells] * 5,
                  flags * n)
