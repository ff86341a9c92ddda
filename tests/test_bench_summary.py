import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


def _record(workload, seed, op_ms, tree="a" * 64, trace=0):
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": 15,
        "git_revision": "rev", "src_sha256": tree,
        "machine": {"nproc": 2}, "versions": {"numpy": "x"},
        "end_to_end": {"op_ms_p50": {"value": op_ms, "unit": "ms", "samples": 3},
                       "fail_ratio": {"value": 0.0, "unit": "ratio"}},
    }


def _write(directory: Path, record: dict) -> None:
    directory.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (directory / name).write_text(json.dumps(record))


def test_summary_of_synthetic_runs(tmp_path, monkeypatch):
    runs = tmp_path / "runs"
    times = [40.0, 10.0, 30.0, 20.0]
    for seed, op_ms in enumerate(times, start=21):
        _write(runs, _record("toy", seed, op_ms))
    _write(runs, _record("toy", 21, 999.0, trace=1))  # traced runs do not count
    (runs / "toy-seed21-trace1-spans.json").write_text("[]")
    _write(tmp_path / "other", _record("toy", 21, 5.0, tree="b" * 64))

    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    assert bench_summary.main(["t", "parent=other", "change=runs"]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    change = out["sets"]["change"]
    q1, _, q3 = statistics.quantiles(times, n=4)
    assert change["end_to_end"]["toy"]["op_ms_p50"] == {
        "median": 25.0, "q1": q1, "q3": q3, "runs": 4, "spread": (q3 - q1) / 25.0, "unit": "ms"}
    assert change["end_to_end"]["toy"]["fail_ratio"]["spread"] == 0.0
    assert change["seeds"] == {"toy": [21, 22, 23, 24]}
    assert change["src_sha256"] == "a" * 64
    single = out["sets"]["parent"]["end_to_end"]["toy"]["op_ms_p50"]
    assert (single["median"], single["q1"], single["q3"], single["runs"]) == (5.0, 5.0, 5.0, 1)


def test_mixed_trees_and_empty_sets_are_refused(tmp_path, monkeypatch, capsys):
    _write(tmp_path / "runs", _record("toy", 21, 1.0))
    _write(tmp_path / "runs", _record("toy", 22, 1.0, tree="b" * 64))
    (tmp_path / "empty").mkdir()
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    for spec in ("change=runs", "change=empty", "no-directory"):
        assert bench_summary.main(["t", spec]) == 2
    assert not (tmp_path / "BENCH_t.json").exists()
    err = capsys.readouterr().err
    assert "2 source trees" in err and "no --trace 0" in err and "NAME=DIR" in err


@pytest.mark.parametrize("argv", [[], ["--help"]])
def test_usage(argv, capsys):
    assert bench_summary.main(argv) == 2
    assert "BENCH_<label>.json" in capsys.readouterr().err


def test_paired_section_counts_wins_interval_and_sign_test(tmp_path, monkeypatch):
    parent_ms = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 120.0, 80.0, 100.0, 100.0]
    change_ms = [60.0, 66.0, 63.0, 52.5, 57.0, 70.0, 60.0, 88.0, 50.0, 100.0]
    for seed, (before, after) in enumerate(zip(parent_ms, change_ms), start=21):
        for name, op_ms, tree in (("parent", before, "a"), ("change", after, "b")):
            record = _record("toy", seed, op_ms, tree=tree * 64)
            record["end_to_end"]["work_per_s"] = {"value": 1000.0 / op_ms, "unit": "1/s"}
            _write(tmp_path / name, record)
    _write(tmp_path / "parent", _record("toy", 99, 1.0))  # no partner: not paired
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    assert bench_summary.main(["t", "parent=parent", "change=change"]) == 0
    paired = json.loads((tmp_path / "BENCH_t.json").read_text())["paired"]["toy"]
    assert set(paired) == {"op_ms_p50", "work_per_s"}  # gated and recorded; fail_ratio is not gated
    op = paired["op_ms_p50"]
    ratios = [a / b for a, b in zip(change_ms, parent_ms)]
    assert [p["seed"] for p in op["pairs"]] == list(range(21, 31))
    assert [p["ratio"] for p in op["pairs"]] == ratios
    # seed 28 is slower and seed 30 a tie: 8 wins of 9 untied pairs
    assert (op["wins"], op["ties"]) == (8, 1)
    assert op["sign_test_p"] == 2 * (1 + 9) / 2 ** 9
    assert op["median_ratio"] == statistics.median(ratios)
    # 10 pairs: the 2nd smallest to the 2nd largest ratio covers the median with
    # probability 1 - 2 P(B <= 1) for B ~ Binomial(10, 1/2)
    ordered = sorted(ratios)
    assert op["interval"] == {"low": ordered[1], "high": ordered[8],
                              "coverage": 1 - 2 * 11 / 1024}
    # a higher-is-better metric counts its wins the other way round
    assert (paired["work_per_s"]["wins"], paired["work_per_s"]["ties"]) == (8, 1)


def test_interval_and_sign_test_at_few_pairs():
    # five pairs cannot reach 95 %: the whole range, with its coverage 1 - 2 / 32
    assert bench_summary.median_interval([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "low": 1.0, "high": 5.0, "coverage": 1 - 2 / 32}
    assert bench_summary.sign_test_p(5, 0) == 2 / 32
    assert bench_summary.sign_test_p(3, 3) == 1.0
    assert bench_summary.sign_test_p(0, 0) == 1.0


def test_no_paired_section_without_parent_and_change(tmp_path, monkeypatch):
    _write(tmp_path / "runs", _record("toy", 21, 1.0))
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    assert bench_summary.main(["t", "other=runs"]) == 0
    assert "paired" not in json.loads((tmp_path / "BENCH_t.json").read_text())


_TOOLS = Path(__file__).resolve().parent.parent / "tools"

# a perfbench/run.py stand-in: logs its tree and seed, and writes a record whose
# op_ms_p50 is 10 ms in the parent tree and 8 ms in the change tree
_STUB_RUNNER = """
import argparse, json, pathlib, sys
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
here = pathlib.Path(__file__).resolve().parent
tree = here.parent.name
with open(here.parent.parent / "log.txt", "a") as fh:
    fh.write(f"{tree} {a.workload} {a.seed} {a.trace}\\n")
record = RECORD
record.update(workload=a.workload, seed=int(a.seed), src_sha256=tree * 10)
record["end_to_end"]["op_ms_p50"]["value"] = {"parent": 10.0, "change": 8.0}[tree]
(here / "out").mkdir(exist_ok=True)
(here / "out" / f"{a.workload}-seed{a.seed}-trace0.json").write_text(json.dumps(record))
sys.exit(EXIT)
"""


def _bench_pairs(monkeypatch, root):
    monkeypatch.syspath_prepend(str(_TOOLS))
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module.bench_summary, "ROOT", root)
    return module


def _stub_trees(tmp_path, exit_code=0):
    for tree in ("parent", "change"):
        runner = tmp_path / tree / "perfbench" / "run.py"
        runner.parent.mkdir(parents=True)
        runner.write_text(_STUB_RUNNER.replace("RECORD", repr(_record("w", 0, 0.0)))
                          .replace("EXIT", str(exit_code)))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_bench_pairs_alternates_the_trees_and_records_the_order(tmp_path, monkeypatch):
    bench_pairs = _bench_pairs(monkeypatch, tmp_path)
    trees = _stub_trees(tmp_path)
    assert bench_pairs.main(trees + ["--workload", "toy", "--pairs", "3", "--label", "t"]) == 0
    runs = [line.split() for line in (tmp_path / "log.txt").read_text().splitlines()]
    assert runs == [[tree, "toy", str(seed), "0"] for tree, seed in
                    (("parent", 301), ("change", 301), ("change", 302), ("parent", 302),
                     ("parent", 303), ("change", 303))]
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(r["tree"], r["seed"], r["exit"]) for r in out["run_order"]] == [
        (tree, int(seed), 0) for tree, _, seed, _ in runs]
    paired = out["paired"]["toy"]["op_ms_p50"]
    assert (paired["wins"], paired["ties"], paired["median_ratio"]) == (3, 0, 0.8)
    assert out["sets"]["change"]["seeds"] == {"toy": [301, 302, 303]}

    # a second workload keeps the first call's run order ahead of its own
    assert bench_pairs.main(trees + ["--workload", "other", "--pairs", "1", "--seed", "7",
                                     "--label", "t"]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(r["workload"], r["seed"]) for r in out["run_order"]][-3:] == [
        ("toy", 303), ("other", 7), ("other", 7)]
    assert set(out["paired"]) == {"toy", "other"}


def test_bench_pairs_reports_failed_runs_and_unusable_trees(tmp_path, monkeypatch):
    bench_pairs = _bench_pairs(monkeypatch, tmp_path)
    trees = _stub_trees(tmp_path, exit_code=1)
    assert bench_pairs.main(trees + ["--workload", "toy", "--pairs", "1", "--label", "t"]) == 1
    assert bench_pairs.main([trees[0], str(tmp_path / "none"), "--workload", "toy",
                             "--pairs", "1", "--label", "u"]) == 2
    assert bench_pairs.main(trees + ["--workload", "toy", "--pairs", "0", "--label", "u"]) == 2
    assert not (tmp_path / "BENCH_u.json").exists()
