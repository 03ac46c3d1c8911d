"""tools/bench_pairs.py without running the benchmark: the order of the
runs, the copies it runs from, and its summary and JSON file, with a stand-in
for perfbench/run.py."""

import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def fake_tree(path):
    """A tree holding what the copies take and what they leave."""
    for part in ("src/pademor", "src/pademor/__pycache__", "perfbench/.work"):
        (path / part).mkdir(parents=True)
    (path / "src/pademor/__init__.py").write_text("")
    (path / "src/pademor/__pycache__/x.pyc").write_text("")
    (path / "perfbench/run.py").write_text("")
    (path / "perfbench/.work/result.json").write_text("")
    (path / "README.md").write_text("")
    return path


def result(**values):
    """What run.py prints last, its metrics holding values."""
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_first_side_alternates():
    runs = bench_pairs.schedule(3, ["a", "b"], [0, 4])
    assert len(runs) == 3 * 2 * 2 * 2
    # both sides of a pair, workload and seed back to back
    for first, second in zip(runs[::2], runs[1::2]):
        assert first[:3] == second[:3]
        assert (first[3], second[3]) == (("old", "new") if first[0] % 2 == 0 else ("new", "old"))
    assert [r[:3] for r in runs[::2]] == [(i, w, s) for i in range(3) for w in "ab"
                                          for s in (0, 4)]


def test_copies_run_from_paths_of_equal_length(tmp_path):
    old = fake_tree(tmp_path / "parent-checkout")
    new = fake_tree(tmp_path / "x")
    copies = bench_pairs.copy_trees((old, new), tmp_path / "work")
    assert len(str(copies["old"])) == len(str(copies["new"]))
    for copy in copies.values():
        files = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
        assert files == ["perfbench/run.py", "src/pademor/__init__.py"]


def test_summary_medians_quartiles_and_wins():
    metrics = {"study_s": (True, 0.25), "score": (False, 0.1)}
    old = [1.0, 2.0, 3.0, 4.0, 5.0]
    new = [0.5, 2.5, 2.0, 3.0, 6.0]  # lower in pairs 0, 2 and 3
    runs = [{"pair": i, "workload": "w", "seed": 0, "side": side,
             "summary": result(study_s=v, score=v, unlisted=v)}
            for i, (a, b) in enumerate(zip(old, new)) for side, v in (("old", a), ("new", b))]
    runs.append({"pair": 5, "workload": "w", "seed": 0, "side": "old", "summary": None})
    summary = bench_pairs.summarise(runs, metrics)
    assert list(summary) == ["w/seed0"] and sorted(summary["w/seed0"]) == ["score", "study_s"]
    study = summary["w/seed0"]["study_s"]
    assert study == {"old_median": 3.0, "new_median": 2.5, "old_q1": 1.5, "old_q3": 4.5,
                     "wins": 3, "pairs": 5, "verdict": "unresolved"}
    assert summary["w/seed0"]["score"]["wins"] == 2  # higher is better
    lines = bench_pairs.report(summary)
    assert [(line.split()[1], line.split()[-1]) for line in lines[1:]] == [
        ("study_s", "3/5"), ("score", "2/5")]


def test_every_run_is_recorded(tmp_path, capsys):
    calls = []

    def run(copy, workload, seed, seconds):
        calls.append((copy.name, workload, seed, seconds))
        if len(calls) == 4:
            return 1, None
        return 0, result(study_s=1.0 if copy.name == "old" else 0.9, peak_rss_mb=40.0)

    trees = [fake_tree(tmp_path / name) for name in ("a", "b")]
    out = tmp_path / "bench.json"
    code = bench_pairs.main([str(trees[0]), str(trees[1]), "--out", str(out), "--pairs", "3",
                             "--workloads", "w"], run=run)
    assert code == 1
    # every run lasts the benchmark's own length
    seconds = bench_pairs.benchmark()[2]
    assert calls == [("old", "w", 0, seconds), ("new", "w", 0, seconds),
                     ("new", "w", 0, seconds), ("old", "w", 0, seconds),
                     ("old", "w", 0, seconds), ("new", "w", 0, seconds)]
    written = json.loads(out.read_text())
    assert [r["exit_code"] for r in written["runs"]] == [0, 0, 0, 1, 0, 0]
    assert written["summary"]["w/seed0"]["study_s"] == {
        "old_median": 1.0, "new_median": 0.9, "old_q1": 1.0, "old_q3": 1.0, "wins": 2,
        "pairs": 2, "verdict": "gain"}
    assert capsys.readouterr().out.splitlines()[-1] == (
        "6 runs, 1 failed; failed operations: {'old': 0, 'new': 0}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "bench.json"]


def test_workloads_default_to_the_benchmarks(tmp_path):
    calls = []

    def run(copy, workload, seed, seconds):
        calls.append(workload)
        return 0, result(study_s=1.0)

    trees = [fake_tree(tmp_path / name) for name in ("a", "b")]
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert bench_pairs.main([str(trees[0]), str(trees[1]), "--out",
                             str(tmp_path / "bench.json"), "--pairs", "1"], run=run) == 0
    assert calls == [name for name in names for _ in range(2)]


# The runs of each side in pair order, and the verdict on them: study_s,
# lower is better, bound 0.25 of the old median.
VERDICTS = {
    "same": ([1.0, 1.02, 0.98, 1.01, 0.99] * 2, [1.01, 0.99, 1.0, 1.02, 0.98] * 2),
    # nine wins of ten
    "gain": ([1.0, 1.02, 0.98, 1.01, 0.99] * 2,
             [0.8, 0.82, 0.78, 0.81, 0.79, 0.8, 1.05, 0.78, 0.81, 0.79]),
    "worse": ([1.0, 1.02, 0.98, 1.01, 0.99] * 2, [1.3, 1.32, 1.28, 1.31, 1.29] * 2),
    # the old quartiles 0.75 apart, wider than the bound, 0.375
    "unresolved": ([1.0, 2.0, 1.0, 2.0, 1.5] * 2, [1.4, 1.4, 1.4, 1.4, 0.9] * 2),
    # as wide, but every new run beats every old run
    "resolved": ([1.0, 2.0, 1.0, 2.0, 1.5] * 2, [0.2, 0.3, 0.2, 0.3, 0.25] * 2),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_verdict(tmp_path, capsys, case):
    values = {side: iter(v) for side, v in zip(("old", "new"), VERDICTS[case])}

    def run(copy, workload, seed, seconds):
        return 0, result(study_s=next(values[copy.name]))

    trees = [fake_tree(tmp_path / name) for name in ("a", "b")]
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(trees[0]), str(trees[1]), "--out", str(out), "--pairs", "10",
                             "--workloads", "w"], run=run) == 0
    want = "gain" if case == "resolved" else case
    assert json.loads(out.read_text())["summary"]["w/seed0"]["study_s"]["verdict"] == want
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("w/seed0 ")]
    assert line.split()[-2] == want
