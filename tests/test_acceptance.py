"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (a pytest FAILED line is the fail signal). The sweeps here are the
full-size ones; the per-module tests cover the same machinery at small scale.
"""

import math
import time

import numpy as np
import pytest

from dispersionlab import autograd as ag
from dispersionlab.analysis import (
    BoundedSampler,
    measure_dispersion,
    remark_counterexample,
    scaling_fit,
)
from dispersionlab.attention import (
    WindowSpec,
    homogeneous_mix,
    sema_attention,
    softmax_attention,
    window_attention,
)
from dispersionlab.cli import GRADCHECK_VARIANTS
from dispersionlab.model import (
    ModelConfig,
    SyntheticTask,
    _attention_sublayer,
    init_params,
    parameter_count,
    receptive_field_grid,
    stage_grids,
    train_toy,
    zero_lepe,
)
from dispersionlab.rng import rng_for
from dispersionlab.ssm import SsmParams, forms_max_diff

SWEEP_N = [64, 128, 256, 512, 1024, 2048, 4096]


def report(num, text):
    print(f"\ncriterion {num:02d} PASS: {text}")


def test_criterion_01_softmax_dispersion_law():
    t0 = time.time()
    sampler = BoundedSampler(d=16, logit_bound=1.0)
    rep = measure_dispersion("softmax", None, sampler, SWEEP_N, trials=32, seed=42)
    elapsed = time.time() - t0
    assert -1.15 <= rep.slope <= -0.85, rep.slope
    # measure_dispersion raises on any out-of-bounds coefficient, so reaching
    # here means 100% containment; the recorded envelopes must agree
    for mx, mn, hi, lo in zip(rep.max_coeff, rep.min_coeff, rep.upper_bound, rep.lower_bound):
        assert lo <= mn <= mx <= hi
    assert elapsed < 120.0
    report(1, f"softmax slope {rep.slope:+.3f} in [-1.15, -0.85], bounds held "
              f"({elapsed:.1f}s)")


def test_criterion_02_linear_dispersion_law():
    sampler = BoundedSampler(d=16, logit_bound=1.0)
    rep = measure_dispersion("linear", None, sampler, SWEEP_N, trials=32, seed=42)
    assert -1.15 <= rep.slope <= -0.85, rep.slope
    for mx, mn, hi, lo in zip(rep.max_coeff, rep.min_coeff, rep.upper_bound, rep.lower_bound):
        assert lo <= mn <= mx <= hi
    report(2, f"linear slope {rep.slope:+.3f} in [-1.15, -0.85], bounds held")


def test_criterion_03_window_non_dispersion():
    sampler = BoundedSampler(d=16, logit_bound=1.0, tile_rows=8)
    rep = measure_dispersion("window", None, sampler, SWEEP_N, trials=8, seed=42,
                             win=WindowSpec(8))
    first = rep.max_coeff[0]
    assert all(m == first for m in rep.max_coeff)  # bitwise constant
    assert rep.slope == 0.0
    report(3, f"window max coefficient bitwise constant ({first:.6f}) across "
              f"n=64..4096, slope exactly 0")


def test_criterion_04_remark_counterexample():
    limit = 6.0 / math.pi**2
    values = []
    for n in (1, 2, 3, 10, 100, 1000, 10**4, 10**5, 10**6):
        first, bound = remark_counterexample(n)
        assert bound == pytest.approx(limit)
        assert first > limit
        values.append(first)
    assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing
    assert abs(values[-1] - limit) < 1e-5
    report(4, f"first coefficient stays above 6/pi^2 and reaches it within "
              f"{abs(values[-1] - limit):.1e} at n=1e6")


def test_criterion_05_ssm_triple_equivalence():
    t0 = time.time()
    worst = 0.0
    for inst in range(100):
        rng = rng_for(42, "acceptance-ssm", inst)
        n = int(rng.integers(1, 17))
        d_state = int(rng.integers(1, 9))
        channels = int(rng.integers(1, 9))
        x = rng.standard_normal((n, channels))
        p = SsmParams.random(rng, n, d_state, channels)
        worst = max(worst, forms_max_diff(p, x))
    elapsed = time.time() - t0
    assert worst < 1e-12, worst
    assert elapsed < 30.0
    report(5, f"scan/closed-form/attention-form max abs diff {worst:.2e} over "
              f"100 instances ({elapsed:.1f}s)")


def test_criterion_06_sema_decomposition():
    rng = rng_for(42, "acceptance-sema")
    for _ in range(50):
        n = int(rng.choice([4, 8, 12]))
        d = int(rng.integers(2, 6))
        w = WindowSpec(int(rng.choice([1, 2, 4])))
        q, k, v = rng.standard_normal((3, n, d))
        sema = sema_attention(q, k, v, w).array
        rebuilt = window_attention(q, k, v, w).array + homogeneous_mix(v).array
        assert np.array_equal(sema, rebuilt)  # diff exactly 0.0

    # the model block's attention sublayer, with one head, one window over the
    # whole stage grid and LePE zeroed, collapses to softmax attention over the
    # axially rotated projections plus the value mean
    g, d = 4, 8
    cfg = ModelConfig(stage_dims=(d,), stage_depths=(1,), stage_heads=(1,), window=g,
                      patch_size=4, image_size=4 * g)
    params = zero_lepe(init_params(cfg))
    x = rng.standard_normal((g * g, d))
    wq, wk, wv = rng.standard_normal((3, d, d))
    params.update({"s0.b0.wq": wq, "s0.b0.wk": wk, "s0.b0.wv": wv})
    tape = ag.Tape(record=False)
    att, _ = _attention_sublayer({name: ag.leaf(tape, value) for name, value in params.items()},
                                 ag.leaf(tape, x), cfg, 0, g, "s0.b0.")
    xc = x - x.mean(axis=1, keepdims=True)
    y = xc / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)  # norm1 at init
    q, k, v = y @ wq, y @ wk, y @ wv
    rows, cols = np.divmod(np.arange(float(g * g)), g)
    theta = 10000.0 ** (-2.0 * np.arange(d // 4) / (d // 2))  # d / 4 pairs per axis
    ang = np.concatenate([rows[:, None] * theta, cols[:, None] * theta], axis=1)

    def rot(m):
        out_ = np.empty_like(m)
        out_[:, 0::2] = m[:, 0::2] * np.cos(ang) - m[:, 1::2] * np.sin(ang)
        out_[:, 1::2] = m[:, 0::2] * np.sin(ang) + m[:, 1::2] * np.cos(ang)
        return out_

    expect = softmax_attention(rot(q), rot(k), v).array + v.mean(axis=0)
    diff = np.abs(att.value - expect).max()
    assert diff < 1e-12, diff
    report(6, f"sema == window + mix exactly on 50 instances; model block attention "
              f"collapse diff {diff:.2e} < 1e-12")


def test_criterion_07_gradchecks_all_variants():
    t0 = time.time()
    rng = rng_for(7, "acceptance-gradcheck")
    q, k, v = rng.standard_normal((3, 8, 4))
    qa, ka = np.abs(q), np.abs(k)  # focused features need nonnegative support
    errs = {}
    for name, attend in GRADCHECK_VARIANTS.items():
        inputs = [qa, ka, v] if name == "focused" else [q, k, v]
        rep = ag.gradcheck(lambda a, b, c: ag.sum_all(attend(a, b, c)), inputs)
        assert rep.passed, f"{name}: {rep.max_rel_err}"
        errs[name] = rep.max_rel_err
    elapsed = time.time() - t0
    assert elapsed < 60.0
    worst = max(errs, key=errs.get)
    report(7, f"six variants pass at 1e-5 (worst {worst}: {errs[worst]:.2e}; "
              f"{elapsed:.1f}s)")


def test_criterion_08_complexity_scaling():
    # d = 64 keeps compute above dispatch overhead; CPU time on the one BLAS thread conftest pins
    _, exps, counters = scaling_fit(("sema", "full"), [256, 512, 1024, 2048, 4096, 8192], 64, 8, 42)
    assert 0.9 <= exps["sema"] <= 1.3, exps["sema"]
    assert 1.7 <= exps["full"] <= 2.3, exps["full"]
    assert all(counters.values()), counters
    report(8, f"CPU-time exponents sema {exps['sema']:+.2f} in [0.9, 1.3], "
              f"full {exps['full']:+.2f} in [1.7, 2.3]; counters match at n=64")


def test_criterion_09_receptive_field():
    cfg_on, cfg_off = ModelConfig.ablation(), ModelConfig.ablation(averaging_enabled=False)
    params = init_params(cfg_on)
    grid_on = receptive_field_grid(cfg_on, params, 9)
    assert (grid_on > 0).all()

    grid_off = receptive_field_grid(cfg_off, zero_lepe(params), 9).reshape(8, 8)
    window = np.zeros((8, 8), dtype=bool)
    window[:2, :2] = True
    assert (grid_off[window] > 0).all()
    assert (grid_off[~window] == 0).all()  # exact structural zeros
    report(9, "averaging connects every token pair; without averaging and "
              "LePE the cross-window Jacobian is exactly 0")


def test_criterion_10_ablation_direction():
    t0 = time.time()
    task = SyntheticTask()
    res_on = train_toy(ModelConfig.ablation(), task, epochs=30, seed=13)
    res_off = train_toy(ModelConfig.ablation(averaging_enabled=False), task, epochs=30, seed=13)
    elapsed = time.time() - t0
    assert res_on.best_val_acc >= 0.9, res_on.best_val_acc
    assert max(res_off.val_acc) <= 0.6, max(res_off.val_acc)
    # fixture values pinned from the first seeded run of this protocol
    assert res_on.best_val_acc == pytest.approx(1.0, abs=1e-12)
    assert res_on.best_epoch == 7
    assert max(res_off.val_acc) == pytest.approx(0.5703125, abs=1e-12)
    assert elapsed < 300.0
    report(10, f"averaging-on reaches {res_on.best_val_acc:.3f} (epoch "
               f"{res_on.best_epoch}), averaging-off stays at "
               f"{max(res_off.val_acc):.4f} ({elapsed:.0f}s)")


def test_criterion_11_architecture_fidelity():
    cfg = ModelConfig.tiny_224()
    grids = stage_grids(cfg)
    assert grids == [56, 28, 14, 7]
    count = parameter_count(cfg)
    assert 18_000_000 <= count <= 34_000_000
    report(11, f"stage grids 56/28/14/7; parameter count {count / 1e6:.2f}M "
               f"in [18M, 34M] (informational)")
