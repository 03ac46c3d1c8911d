"""Layered benchmark of the five pademor study commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its src/.
`--trace 0` times the commands with tracing off and prints the end-to-end
metrics; each command runs a fixed number of times, set from the seed
code's call times so that the loop lasts about `--seconds` on the seed code,
and its time is the median ratio of a call to the calibration loop timed
right after it, in seconds at a reference machine speed.  `--trace 1` runs
two rounds of untraced and traced commands (fixed work, whatever `--seconds`
says) and prints the per-layer metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  README.md in this directory
defines every metric and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import workloads
from worker import COMMANDS, OUTPUT_NAMES, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, ".work")

# One BLAS thread (nproc is 2): the closed loop has a single caller, and a
# second BLAS thread would only add scheduling noise on these small solves.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 10  # fresh set-up processes, spread over the loop
MIN_CALLS = 2  # calls of every command in a timed run, however slow
STUDY_SHARE = 0.9  # of --seconds, for whole studies
CHEAP_SHARE = 0.04  # of --seconds, at least, for each cheap command
TIME_LIMIT_S = 170  # the whole run, so that it always ends within 180 s
# Seconds of one calibration call (worker.make_calibration) at the reference
# speed: the median of each run's fastest calibration call over ten runs of
# the seed code (five seeds each of helmholtz_reference and
# synthetic_dense_grid).  Times are reported at this speed; the raw samples
# and their calibrations stay in the result file.
CAL_REF_S = 0.002775

END_TO_END = {
    "setup_s": "s",
    **{f"{c}_s": "s" for c in COMMANDS},
    "study_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported to the caller, summed over one traced study.
# The result file in .work/ holds every traced function, not only these.
PER_LAYER = {
    "modal.build_model.s": "s",
    "modal.pole_list.calls": "count",
    "modal.pole_list.s": "s",
    "modal.evaluate_exact.calls": "count",
    "modal.evaluate_exact.s": "s",
    "modal.evaluate_exact.useful_ratio": "ratio",
    "modal.taylor_coefficients.calls": "count",
    "modal.taylor_coefficients.s": "s",
    "modal.taylor_coefficients.useful_ratio": "ratio",
    "pade.build.calls": "count",
    "pade.build.s": "s",
    "pade.denominator_fast_qr.s": "s",
    "pade.denominator_standard.s": "s",
    "pade.numerator.s": "s",
    "pade.evaluate.calls": "count",
    "pade.evaluate.s": "s",
    "pade.approximant_poles.s": "s",
    "pade.approximant_to_json.s": "s",
    "numerics.hermitian_eigensystem.calls": "count",
    "numerics.hermitian_eigensystem.s": "s",
    "numerics.hermitian_eigensystem.per_denominator": "calls/den",
    "numerics.min_right_singular_vector.s": "s",
    "numerics.polynomial_roots.calls": "count",
    "numerics.polynomial_roots.s": "s",
    "poly.evaluate.calls": "count",
    "poly.evaluate.s": "s",
    "poly.roots.s": "s",
    "hilbert.norm.calls": "count",
    "hilbert.norm.s": "s",
    "harness.build_model.s": "s",
    "harness.output.s": "s",
    "harness.output_bytes": "bytes",
    "harness.self_s": "s",
    "harness.outputs_identical": "count",
    "cli.failed": "count",
    **{f"layer.{layer}.self_s": "s" for layer in
       ("cli", "harness", "modal", "pade", "numerics", "poly", "hilbert")},
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(deadline, *args):
    """Run worker.py to completion, killing it at `deadline` (perf_counter),
    and return its standard output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    timeout = max(deadline - time.perf_counter(), 0.0)
    try:
        proc = subprocess.run(cmd, timeout=timeout, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[0]} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited with {proc.returncode}")
    return proc.stdout


def call_counts(seed_call_s, seconds):
    """Calls per command in a timed run: a fixed count that depends on the
    seed code's call times and `seconds`, never on the code being measured,
    so that every commit measures a command over the same number of calls.

    Every command runs once per whole study that fits in STUDY_SHARE of
    `seconds` (at least MIN_CALLS times), since the slow commands need every
    call they can get; a cheap command runs for at least CHEAP_SHARE of
    `seconds`.  On the seed code the loop lasts at most about `seconds`."""
    studies = max(MIN_CALLS, int(STUDY_SHARE * seconds / sum(seed_call_s.values())))
    return {c: max(studies, int(CHEAP_SHARE * seconds / t)) for c, t in seed_call_s.items()}


def reference_seconds(samples):
    """A metric's value from its (seconds, calibration seconds) samples: the
    median ratio of a sample to the calibration timed right after it, in
    seconds at the reference speed (CAL_REF_S).

    Other tenants of the machine slow any CPU-bound code for stretches of
    seconds to minutes.  The calibration that follows a call runs in the same
    stretch, so the ratio stays put while raw times move; its median over
    the run uses every call."""
    return statistics.median(t / c for t, c in samples) * CAL_REF_S


def judge(calls, config, outdir, reference):
    """Whether each call passed, and the sha256 of each command's final output.

    The final output of each command is checked; every call of that command
    must have exited 0 without warnings and written the same bytes."""
    verdicts = {}
    for command in COMMANDS:
        path = os.path.join(outdir, OUTPUT_NAMES[command])
        problems = check.check_output(command, config, path, reference)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        verdicts[command] = (sha256(path) if os.path.exists(path) else None, not problems)
    oks = []
    for op in calls:
        digest, passed = verdicts[op["command"]]
        ok = op["rc"] == 0 and op["warnings"] == 0 and op["sha256"] == digest and passed
        if not ok:
            print(f"failed: {op['command']} rc={op['rc']} warnings={op['warnings']}",
                  file=sys.stderr)
        oks.append(ok)
    return oks, {c: v[0] for c, v in verdicts.items()}


def _quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload and return the full result (metrics plus detail)."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not os.path.exists(os.path.join(ROOT, "src", "pademor", "__init__.py")):
        raise BenchmarkError(f"no pademor package under {os.path.join(ROOT, 'src')}")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    config = workloads.make_config(workload, seed, tiny)
    outdir = os.path.join(WORK_DIR, workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    config_path = os.path.join(outdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)
    ref_path = os.path.join(check.REFERENCE_DIR, f"{workload}.json")
    ref = None if tiny or not os.path.exists(ref_path) else check.load_reference(workload)
    full_check = ref if ref is not None and seed == ref["seed"] else None
    result_path = os.path.join(outdir, "result-worker.json")

    if trace:
        spans_path = os.path.join(outdir, "spans.jsonl")
        _worker(deadline, "trace", config_path, outdir, result_path, spans_path)
        with open(result_path) as fh:
            res = json.load(fh)
        calls = res["calls"]
        oks, digests = judge(calls, config, outdir, full_check)
        seed_hashes = (ref or {}).get("sha256", {}).get(str(seed), {})
        layers = dict(res["layers"])
        layers["harness.output_bytes"] = sum(
            op["bytes"] for op in calls if op["traced"] and op["round"] == res["best_round"])
        layers["harness.outputs_identical"] = sum(
            seed_hashes[c] == digests[c] for c in COMMANDS if c in seed_hashes)
        layers["cli.failed"] = sum(not ok for op, ok in zip(calls, oks) if op["traced"])
        layers["trace.overhead_s"] = res["span_overhead_s"]
        # Traced minus untraced study, each command the faster of its two
        # calls: kept for the record, as it is mostly the machine's noise.
        study = {traced: sum(min(op["seconds"] for op in calls
                                 if op["command"] == c and op["traced"] == traced)
                             for c in COMMANDS)
                 for traced in (False, True)}
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        detail = {"layers": layers, "untraced_study_s": study[False],
                  "traced_study_s": study[True],
                  "measured_overhead_s": study[True] - study[False]}
    else:
        counts = call_counts(workloads.SEED_CALL_S[workload], seconds)
        _worker(deadline, "loop", config_path, outdir, json.dumps(counts),
                SETUP_SAMPLES, result_path)
        with open(result_path) as fh:
            res = json.load(fh)
        oks, _ = judge(res["calls"], config, outdir, full_check)
        pairs = {"setup_s": [(op["seconds"], op["calibration"]) for op in res["setup"]]}
        for command in COMMANDS:
            pairs[f"{command}_s"] = [(op["seconds"], op["calibration"])
                                     for op in res["calls"] if op["command"] == command]
        values = {k: reference_seconds(v) for k, v in pairs.items()}
        values["study_s"] = sum(values[f"{c}_s"] for c in COMMANDS)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        samples = {k: [t for t, _ in v] for k, v in pairs.items()}
        detail = {"counts": counts, "samples": samples,
                  "calibration": {k: [c for _, c in v] for k, v in pairs.items()}}

    failed = oks.count(False)
    summary = {"correct": failed == 0, "attempted": len(oks),
               "failed": failed, "metrics": metrics}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "config": config, **summary, **detail}, fh, indent=1)
    return summary, detail


def _report(summary, detail):
    samples = detail.get("samples", {})
    for name, m in summary["metrics"].items():
        line = f"{name:48s} {m['value']:>14.6g} {m['unit']}"
        if name in samples:
            v = samples[name]
            q1, q3 = _quartiles(v)
            line += (f"  (n={len(v)}: min {min(v):.6g}, q1 {q1:.6g}, "
                     f"median {statistics.median(v):.6g}, q3 {q3:.6g})")
        print(line)
    if "samples" in detail:
        print("times are at the reference speed; the samples in brackets are raw")
    print(f"failed {summary['failed']} of {summary['attempted']} operations")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _report(summary, detail)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
