"""Span tracer that wraps pademor's public functions from outside the package.

Each traced function is replaced at every binding through which callers
reach it: its own module attribute, names bound by ``from .x import f`` in
other modules, and dict values such as ``cli.COMMANDS``.  The package source
is not modified; `uninstall` puts every original binding back.

A span is (name, start, end, parent index, command, argument key).  Spans
stay in memory until `write_spans`.
"""

import json
import time
import types

LAYERS = ("cli", "harness", "modal", "pade", "numerics", "poly", "hilbert")

TRACED = {
    "cli": ["main"],
    "harness": ["cmd_build", "cmd_sweep", "cmd_convergence", "cmd_poles",
                "cmd_compare", "load_config", "build_model", "_write"],
    "modal": ["build_rectangle_helmholtz", "build_synthetic", "pole_list",
              "evaluate_exact", "taylor_coefficients"],
    "pade": ["build", "denominator_fast_qr", "denominator_fast_gramian",
             "denominator_standard", "numerator", "evaluate",
             "approximant_poles", "approximant_to_json"],
    "numerics": ["hermitian_eigensystem", "hermitian_min_eigenpair",
                 "min_right_singular_vector", "polynomial_roots"],
    "poly": ["evaluate", "roots"],
    "hilbert": ["norm"],
}

# Span names that do not follow "<module>.<function>".
RENAMED = {"harness._write": "harness.output"}


def _arg_z(args, kwargs):
    return complex(args[1])


def _arg_taylor(args, kwargs):
    return (complex(args[1]), int(args[2]))


# Argument keys recorded for the useful-work ratios.
ARG_KEYS = {
    "modal.evaluate_exact": _arg_z,
    "modal.taylor_coefficients": _arg_taylor,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        key_of = ARG_KEYS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            key = key_of(args, kwargs) if key_of else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.command, key)

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every TRACED function at each of its bindings in `package`."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}  # keyed by id: module namespaces hold unhashable values
        for layer, module in zip(LAYERS, modules):
            for fname in TRACED[layer]:
                fn = getattr(module, fname)
                name = f"{layer}.{fname}"
                wrappers[id(fn)] = self.wrap(RENAMED.get(name, name), fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch_item(value, key, wrappers[id(item)])
        # harness writes the build artifact with json.dump; give harness a
        # copy of the json module whose dump is traced as output.
        harness = package.harness
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(harness.json))
        proxy.dump = self.wrap("harness.output", harness.json.dump)
        self._patch(harness, "json", proxy)

    def _patch(self, module, attr, value):
        self._patches.append((setattr, module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch_item(self, mapping, key, value):
        self._patches.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._patches:
            setter, target, key, original = self._patches.pop()
            setter(target, key, original)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, command, key in self.spans:
                fh.write(json.dumps([name, start, end, parent, command]) + "\n")


def span_cost(calls=20000, repeats=10):
    """Seconds that tracing adds to one call: a traced no-op against a plain
    one, each the fastest of `repeats` batches of `calls` calls."""
    def noop():
        pass

    best = {}
    for fn in (noop, Tracer().wrap("noop", noop)) * repeats:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, float("inf")), time.perf_counter() - start)
    plain, traced = best.values()
    return (traced - plain) / calls


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, command, key in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, *_), c in zip(spans, child)]


def _ancestor(spans, index, names):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return None


def layer_metrics(spans):
    """Counts, self times and useful-work ratios from one traced study."""
    selfs = self_times(spans)
    calls, secs = {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + s
        layer_self[name.split(".", 1)[0]] += s

    m = {}
    for layer in LAYERS:
        for fname in TRACED[layer]:
            name = RENAMED.get(f"{layer}.{fname}", f"{layer}.{fname}")
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.s"] = secs.get(name, 0.0)
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["modal.build_model.s"] = (secs.get("modal.build_rectangle_helmholtz", 0.0)
                                + secs.get("modal.build_synthetic", 0.0))
    m["harness.self_s"] = sum(secs.get(f"harness.cmd_{c}", 0.0) for c in
                              ("build", "sweep", "convergence", "poles", "compare"))

    # Useful work per CLI command: no cache can outlive one command.
    z_seen, z_calls = set(), 0
    taylor_need, taylor_rows = {}, 0
    for name, start, end, parent, command, key in spans:
        if name == "modal.evaluate_exact":
            z_seen.add((command, key))
            z_calls += 1
        elif name == "modal.taylor_coefficients":
            z0, E = key
            taylor_rows += E + 1
            slot = (command, z0)
            taylor_need[slot] = max(taylor_need.get(slot, 0), E + 1)
    m["modal.evaluate_exact.useful_ratio"] = len(z_seen) / z_calls if z_calls else 1.0
    m["modal.taylor_coefficients.useful_ratio"] = (
        sum(taylor_need.values()) / taylor_rows if taylor_rows else 1.0)

    gramian_paths = {"pade.denominator_standard", "pade.denominator_fast_gramian"}
    dens = sum(calls.get(n, 0) for n in gramian_paths)
    eig_under_gramian = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "numerics.hermitian_eigensystem"
        and _ancestor(spans, i, gramian_paths) is not None)
    m["numerics.hermitian_eigensystem.per_denominator"] = (
        eig_under_gramian / dens if dens else 0.0)
    return m
