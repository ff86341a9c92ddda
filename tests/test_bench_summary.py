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
