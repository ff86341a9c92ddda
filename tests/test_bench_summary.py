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
