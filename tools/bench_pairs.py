"""Time two source trees against each other in alternating pairs of
benchmark runs.

    python tools/bench_pairs.py OLD_TREE NEW_TREE --out BENCH.json
        [--pairs 10] [--workloads NAME ...] [--seeds 0 ...]

Each tree is a checkout of this repository.  Its src/ and perfbench/ are
copied into a fresh directory, as old/ and new/ beside each other, so
that both run from paths of equal length: the resident-memory metric moves
with the length of the path the benchmark runs from.  Pair i runs
`perfbench/run.py --trace 0` of both copies on every workload and seed, old
first when i is even and new first when i is odd, so that a drift of the
machine over the session falls on both sides alike.  The workloads default
to BENCHMARK.json's, and every run lasts its `run_seconds`.

For each workload and seed, every end-to-end metric is summarised over the
pairs: the median on each side, the quartiles of the old side, the wins
of the new side (pairs in which it is better, by the metric's direction
in this checkout's BENCHMARK.json; a tie wins for neither side) and a
verdict.  The metric's `bound` is read as a fraction of the old median,
as perfbench/baseline.py reads it:

  unresolved  the old quartile distance is wider than the bound, and not
              every new run beats every old run;
  worse       the new median is worse than the old one by more than the
              bound;
  gain        the new side wins at least nine tenths of the pairs, and the
              medians differ by more than the old quartile distance;
  same        none of these.

For each workload and seed, the share of failed operations (failed /
attempted, over the runs of a side) is compared as well: a workload on
which the new side's share is larger is printed.

The summary is printed and written to --out as JSON with every run's
metrics; a run that fails is recorded with its exit code and left out of
the summary.  The script exits 1 if any run failed or the new side fails a
larger share of operations on any workload, 0 otherwise.  Nothing in
either tree is written.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("old", "new")


def benchmark():
    """From this checkout's BENCHMARK.json: {metric: (True if lower is
    better, bound)} of its end-to-end metrics, its workload names, both in
    its order, and its run length in seconds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: (m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]},
            [w["name"] for w in spec["workloads"]], spec["run_seconds"])


def schedule(pairs, workloads, seeds):
    """The runs in order: (pair, workload, seed, side), both sides of a
    pair on one workload and seed back to back, old first in even pairs."""
    return [(i, workload, seed, side)
            for i in range(pairs) for workload in workloads for seed in seeds
            for side in (SIDES if i % 2 == 0 else SIDES[::-1])]


def copy_trees(trees, workdir):
    """{side: copy} of each tree's src/ and perfbench/ under workdir, the
    copies' paths of equal length; no bytecode or benchmark output is
    copied."""
    skip = shutil.ignore_patterns("__pycache__", ".work")
    copies = {}
    for side, tree in zip(SIDES, trees):
        copies[side] = Path(workdir, side)
        for part in ("src", "perfbench"):
            shutil.copytree(Path(tree, part), copies[side] / part, ignore=skip)
    return copies


def run_benchmark(copy, workload, seed, seconds):
    """(exit code, the summary object run.py prints last, or None)."""
    proc = subprocess.run(
        [sys.executable, str(copy / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def verdict(old, new, spread, wins, pairs, bound):
    """The verdict on one metric (module docstring), its values given so
    that lower is better: old and new the runs of each side, spread the
    old quartile distance, wins of pairs the new side's."""
    median = statistics.median(old)
    tolerance, change = bound * abs(median), statistics.median(new) - median
    if spread > tolerance and not max(new) < min(old):
        return "unresolved"
    if change > tolerance:
        return "worse"
    if pairs and 10 * wins >= 9 * pairs and -change > spread:
        return "gain"
    return "same"


def summarise(runs, metrics):
    """{"workload/seedN": {metric: figures}} over the runs that succeeded:
    each side's median, the old side's quartiles, the new side's wins over
    the pairs in which both sides ran, and the verdict."""
    values = {}
    for run in runs:
        if run["summary"] is None:
            continue
        key = f"{run['workload']}/seed{run['seed']}"
        for name, metric in run["summary"]["metrics"].items():
            if name in metrics:
                values.setdefault(key, {}).setdefault(name, {}).setdefault(
                    run["pair"], {})[run["side"]] = metric["value"]
    summary = {}
    for key, by_metric in values.items():
        for name, by_pair in by_metric.items():
            old, new = ([p[side] for p in by_pair.values() if side in p] for side in SIDES)
            if not (old and new):
                continue
            q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else old * 3
            lower, bound = metrics[name]
            sign = 1 if lower else -1  # lower is better, or higher
            both = [p for p in by_pair.values() if len(p) == 2]
            wins = sum(sign * p["new"] < sign * p["old"] for p in both)
            summary.setdefault(key, {})[name] = {
                "old_median": statistics.median(old), "new_median": statistics.median(new),
                "old_q1": q1, "old_q3": q3, "wins": wins, "pairs": len(both),
                "verdict": verdict([sign * x for x in old], [sign * x for x in new], q3 - q1,
                                   wins, len(both), bound),
            }
    return summary


def failure_shares(runs):
    """{"workload/seedN": {side: failed / attempted}} over the runs that
    succeeded, 0.0 for a side that attempted nothing."""
    counts = {}
    for run in runs:
        if run["summary"] is not None:
            key = f"{run['workload']}/seed{run['seed']}"
            count = counts.setdefault(key, {}).setdefault(run["side"], [0, 0])
            count[0] += run["summary"]["failed"]
            count[1] += run["summary"]["attempted"]
    return {key: {side: failed / attempted if attempted else 0.0
                  for side, (failed, attempted) in by_side.items()}
            for key, by_side in counts.items()}


def report(summary):
    """The summary as text lines, one per workload, seed and metric."""
    lines = [f"{'workload/seed':34s} {'metric':14s} {'old median':>12s} {'new median':>12s} "
             f"{'change':>8s} {'old q1':>12s} {'old q3':>12s} {'verdict':>10s}  wins"]
    for key, by_metric in summary.items():
        for name, s in by_metric.items():
            change = (s["new_median"] / s["old_median"] - 1) * 100 if s["old_median"] else 0.0
            lines.append(f"{key:34s} {name:14s} {s['old_median']:12.6g} {s['new_median']:12.6g} "
                         f"{change:+7.2f}% {s['old_q1']:12.6g} {s['old_q3']:12.6g} "
                         f"{s['verdict']:>10s}  {s['wins']}/{s['pairs']}")
    return lines


def main(argv=None, run=run_benchmark):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the tree to compare against")
    parser.add_argument("new", help="the tree under test")
    parser.add_argument("--out", required=True, help="JSON file of every run and the summary")
    parser.add_argument("--pairs", type=int, default=10)
    metrics, workloads, seconds = benchmark()
    parser.add_argument("--workloads", nargs="+", default=workloads)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        copies = copy_trees((args.old, args.new), workdir)
        for pair, workload, seed, side in schedule(args.pairs, args.workloads, args.seeds):
            code, summary = run(copies[side], workload, seed, seconds)
            runs.append({"pair": pair, "workload": workload, "seed": seed, "side": side,
                         "exit_code": code, "summary": summary})
            values = summary and {k: m["value"] for k, m in summary["metrics"].items()}
            print(f"pair {pair} {workload}/seed{seed} {side}: exit {code} {values}"
                  + (f", failed {summary['failed']} of {summary['attempted']} operations"
                     if summary else ""), flush=True)
    summary = summarise(runs, metrics)
    print("\n".join(report(summary)))
    shares = failure_shares(runs)
    more = [key for key, share in shares.items() if share.get("new", 0.0) > share.get("old", 0.0)]
    for key in more:
        print(f"{key}: the new side fails {shares[key]['new']:.4g} of its operations, "
              f"the old side {shares[key].get('old', 0.0):.4g}")
    failed = sum(r["summary"] is None for r in runs)
    operations = {side: sum(r["summary"]["failed"] for r in runs
                            if r["summary"] and r["side"] == side) for side in SIDES}
    print(f"{len(runs)} runs, {failed} failed; failed operations: {operations}")
    Path(args.out).write_text(json.dumps({
        "old": str(args.old), "new": str(args.new), "pairs": args.pairs,
        "workloads": args.workloads, "seeds": args.seeds, "seconds": seconds,
        "summary": summary, "failure_shares": shares, "runs": runs}, indent=1) + "\n")
    return 1 if failed or more else 0


if __name__ == "__main__":
    sys.exit(main())
