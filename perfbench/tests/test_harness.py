"""Tests of the benchmark harness itself.

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q

The negative control and the bare-directory check start the benchmark in
subprocesses and take about half a minute together.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from perfbench import tracer as tr
from perfbench.workloads import timing

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every function object reachable by the names the wrappers replace."""
    import dispersionlab
    from dispersionlab import analysis, autograd, tensor

    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dispersionlab" or name.startswith("dispersionlab.")):
            for key, value in vars(mod).items():
                if callable(value):
                    found[(name, key)] = value
    for cls in (tensor.Tensor, autograd.Tape, analysis.BoundedSampler):
        for key, value in vars(cls).items():
            found[(cls.__name__, key)] = value
    for key, value in autograd.ADJOINTS.items():
        found[("ADJOINTS", key)] = value
    assert dispersionlab.__file__.startswith(str(ROOT / "src"))
    return found


def _exercise():
    """Touch every layer once at tiny sizes."""
    from dispersionlab import analysis, attention, autograd, ssm
    from dispersionlab.rng import rng_for

    rng = rng_for(0, "perfbench-test")
    q, k, v = rng.standard_normal((3, 16, 8))
    attention.sema_attention(q, k, v, attention.WindowSpec(4))
    attention.softmax_attention(q, k, v)
    analysis.measure_dispersion("softmax", None, analysis.BoundedSampler(d=4), [8, 16, 32],
                                1, 0)
    p = ssm.SsmParams.random(rng, 4, 2, 2)
    ssm.ssm_scan(p, rng.standard_normal((4, 2)))
    tape = autograd.Tape()
    a = autograd.leaf(tape, q)
    autograd.backward(autograd.cross_entropy(autograd.matmul(a, autograd.leaf(tape, k.T)),
                                             np.zeros(16, dtype=int)))


def test_untraced_run_executes_unwrapped_functions():
    before = _bindings()
    tracer = tr.Tracer()
    patches = tr.install(tracer, cell_peak_n=32)
    wrapped = _bindings()
    assert any(wrapped[key] is not before[key] for key in before)
    _exercise()
    names = {span[0] for span in tracer.spans}
    assert {"attention.sema_attention", "attention.window_attention",
            "attention.homogeneous_mix", "analysis.softmax.sweep", "analysis.softmax.draw",
            "ssm.ssm_scan", "tensor.construct", "autograd.matmul", "autograd.matmul.bwd",
            "autograd.backward", "autograd.push"} <= names
    # sema's parts are its children, so its self time excludes them
    sema = next(i for i, s in enumerate(tracer.spans) if s[0] == "attention.sema_attention")
    assert {s[0] for s in tracer.spans if s[3] == sema} >= {"attention.window_attention",
                                                            "attention.homogeneous_mix"}
    patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    count = len(tracer.spans)
    _exercise()
    assert len(tracer.spans) == count


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union [1, 6] counts once
        ["c", 2.0, 3.0, 1],
        ["d", 8.0, 12.0, 0],  # only [8, 10] lies inside root
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]

    tracer = tr.Tracer()
    tracer.spans = [
        ["model.train_toy", 0.0, 10.0, -1],
        ["model.forward", 1.0, 4.0, 0],
        ["autograd.matmul", 2.0, 3.0, 1],
        ["model.forward", 5.0, 6.0, 0],
        ["model.forward", 20.0, 21.0, -1],  # outside train_toy
    ]
    m = tr.layer_metrics(tracer)
    assert m["model.train_toy.self_s"] == (6.0, "s")
    assert m["model.eval_share"] == (0.4, "ratio")
    assert m["model.forward.calls"] == (3, "count")
    assert m["autograd.matmul.fwd_s"] == (1.0, "s")


def test_tail_is_highest_percentile_with_ten_beyond():
    t = timing([float(i) for i in range(1, 101)])
    assert (t["p50"], t["tail"], t["tail_percentile"], t["beyond"]) == (50.5, 90.0, 90.0, 10)
    t = timing([float(i) for i in range(1, 20)])
    assert (t["tail"], t["tail_percentile"], t["beyond"]) == (19.0, 100.0, 0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = list(tr.layer_metrics(tr.Tracer())) + ["trace.overhead_ms"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    produced = {"setup_s", "peak_rss_mb", "op_ms_p50", "op_ms_tail", "work_per_s"}
    assert {m["name"] for m in spec["end_to_end"]} <= produced


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_negative_control_fails_the_run():
    args = ["--workload", "sequence_kernels", "--seed", "3", "--seconds", "0.1"]
    clean = _run(*args)
    assert clean.returncode == 0, clean.stderr
    assert json.loads(clean.stdout.splitlines()[-1])["correct"] is True

    perturbed = _run(*args, "--perturb", "ssm.mamba_as_attention")
    assert perturbed.returncode == 1
    result = json.loads(perturbed.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    record = json.loads((ROOT / "perfbench/out/sequence_kernels-seed3-trace0.json").read_text())
    assert record["end_to_end"]["fail_ratio"]["value"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "dispersion_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
