"""Run every workload on seeds 1-10 and summarise the spread.

    python3 perfbench/baseline.py [--out FILE]

Each run is `run.py --trace 0` with its own seed, then one `--trace 1` run
per workload.  For every end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median next to the bound from
BENCHMARK.json, flags a spread of a third of the bound or more, and gives
the change of the median against the committed reference/baseline.json.
With --out it writes everything, plus the Python, NumPy and BLAS versions,
nproc and the BLAS thread setting, to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads
from make_reference import environment
from run import BLAS_THREADS, THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    with open(os.path.join(HERE, "reference", "baseline.json")) as fh:
        committed = json.load(fh)["workloads"]
    seeds = list(SEEDS)
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        metrics = {}
        print(f"{name}: failed {failed} of {attempted}")
        for metric, (bound, unit) in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            metrics[metric] = s
            change = s["median"] / committed[name]["end_to_end"][metric]["median"] - 1
            flag = "" if s["spread"] < bound / 3 else "  <-- >= bound/3"
            print(f"  {metric:14s} {unit:3s} median {s['median']:9.4f}  q1 {s['q1']:9.4f}  "
                  f"q3 {s['q3']:9.4f}  spread {s['spread']:.3f}  bound {bound}  "
                  f"vs committed {change:+.3f}{flag}")
        layers = run_once(name, seeds[0], seconds, 1)
        print(f"  traced seed {seeds[0]}: failed {layers['failed']} of {layers['attempted']}, "
              f"tracing overhead {layers['metrics']['trace.overhead_s']['value']:.3f} s")
        out["workloads"][name] = {
            "attempted": attempted, "failed": failed, "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
        }
    if args.out:
        for var in THREAD_VARS:
            os.environ[var] = BLAS_THREADS
        out["environment"] = environment()
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
