"""One fresh process that runs pademor CLI commands in-process.

    python3 worker.py setup  CONFIG
    python3 worker.py loop   CONFIG OUTDIR COUNTS SETUPS RESULT
    python3 worker.py trace  CONFIG OUTDIR RESULT SPANS

`setup` imports pademor, loads the config and builds the model once, which
is what a user pays before the first command starts.  `loop` is the timed
closed loop: one caller running the five commands back to back, each a
fixed number of times (COUNTS, a JSON object), with SETUPS fresh `setup`
processes spread over the loop and a calibration call after each command
call and set-up process.  `trace` runs two rounds of the study, each
command once untraced and once traced.  Both write a JSON result file;
run.py checks the outputs and turns the result into metrics.

The caller pins the BLAS thread count in the environment; the package is
imported from the src/ directory of the checkout this file lives in.
"""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
import warnings

from tracer import Tracer, layer_metrics, span_cost

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("build", "sweep", "convergence", "poles", "compare")
OUTPUT_NAMES = {c: f"{c}.json" if c == "build" else f"{c}.csv" for c in COMMANDS}


def import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pademor
    import pademor.cli

    where = os.path.dirname(os.path.abspath(pademor.__file__))
    if where != os.path.join(ROOT, "src", "pademor"):
        raise ImportError(f"pademor imported from {where}, not from this checkout")
    return pademor


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_command(cli, command, config, outdir):
    """One operation: a CLI call plus the facts needed to judge it."""
    out = os.path.join(outdir, OUTPUT_NAMES[command])
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = cli.main([command, "--config", config, "--out", out])
        except Exception:  # an uncaught error is a failed operation, not a crash
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    if error:
        sys.stderr.write(error)
    for w in caught:
        sys.stderr.write(f"{command}: {w.category.__name__}: {w.message}\n")
    exists = os.path.exists(out)
    return {
        "command": command,
        "seconds": seconds,
        "rc": rc,
        "warnings": len(caught),
        "sha256": sha256(out) if exists else None,
        "bytes": os.path.getsize(out) if exists else 0,
    }


def study(cli, config, outdir, tracer=None):
    """The five commands once, in order; spans are tagged with the command."""
    ops = []
    for command in COMMANDS:
        if tracer:
            tracer.command = command
        ops.append(run_command(cli, command, config, outdir))
    return ops


def cmd_setup(config):
    pademor = import_package()
    pademor.harness.build_model(pademor.harness.load_config(config))
    # perf_counter is the system-wide monotonic clock on Linux, so the parent
    # can subtract its own start time without waiting for this process to exit.
    print(repr(time.perf_counter()))


def time_setup(config):
    """Set-up time of one fresh `setup` process, from spawn until its model
    is built (waiting on its exit polls coarsely, so the child reports)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup", config],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(proc.stdout.split()[-1]) - start


def make_calibration():
    """A timer of fixed work that uses nothing of pademor but is made like
    it: sorts of a list of tuples by a key function, and small NumPy calls.
    Each call returns its seconds, which measure the machine's speed."""
    import numpy as np

    rng = random.Random(0)
    keyed = [(rng.random(), complex(rng.random(), 1.0)) for _ in range(2000)]
    vec = np.array([rng.random() for _ in range(200)])

    def calibration():
        start = time.perf_counter()
        for _ in range(5):
            sorted(keyed, key=lambda pair: abs(pair[1] - 0.5))
        for _ in range(150):
            (vec * vec).sum()
            np.abs(vec - 0.3).min()
        return time.perf_counter() - start

    return calibration


def spread(n, rounds, r):
    """How many of `n` events fall in round `r` when spread evenly over
    `rounds` rounds."""
    return (r + 1) * n // rounds - r * n // rounds


def cmd_loop(config, outdir, counts, setups, result):
    """Each command runs its fixed count of calls, spread evenly over the
    rounds in study order, and so do the set-up processes: every sample of a
    metric is drawn from the whole length of the loop.  A calibration call
    follows every command call and every set-up process, so that each
    sample comes with the machine's speed at that moment."""
    pademor = import_package()
    calibration = make_calibration()
    counts = json.loads(counts)
    setups = int(setups)
    rounds = max(counts.values())
    calls, setup = [], []
    for r in range(rounds):
        for command in COMMANDS:
            if spread(counts[command], rounds, r):
                op = run_command(pademor.cli, command, config, outdir)
                calls.append({**op, "calibration": calibration()})
        for _ in range(spread(setups, rounds, r)):
            setup.append({"seconds": time_setup(config), "calibration": calibration()})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _dump(result, {"calls": calls, "setup": setup, "peak_rss_mb": peak_kb / 1024.0})


def cmd_trace(config, outdir, result, spans_path):
    """Two rounds; in each, every command runs once untraced and once traced,
    untraced first in round 0 and traced first in round 1, so that drift in
    the machine's speed cancels.  Each round has its own tracer; the spans
    of the faster traced study are kept."""
    pademor = import_package()
    tracers = [Tracer(), Tracer()]
    calls = []
    for r, tracer in enumerate(tracers):
        for command in COMMANDS:
            for traced in (False, True) if r == 0 else (True, False):
                if traced:
                    tracer.command = command
                    tracer.install(pademor)
                try:
                    op = run_command(pademor.cli, command, config, outdir)
                finally:
                    tracer.uninstall()
                calls.append({**op, "traced": traced, "round": r})
    traced_s = [sum(op["seconds"] for op in calls if op["traced"] and op["round"] == r)
                for r in range(len(tracers))]
    best = traced_s.index(min(traced_s))
    tracers[best].write_spans(spans_path)
    _dump(result, {"calls": calls, "best_round": best,
                   "layers": layer_metrics(tracers[best].spans),
                   "span_overhead_s": len(tracers[best].spans) * span_cost()})


def _dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    {"setup": cmd_setup, "loop": cmd_loop, "trace": cmd_trace}[mode](*rest)
