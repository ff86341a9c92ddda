"""The four workloads: seeded inputs, one timed round, and correctness checks.

Each workload times only its calls into dispersionlab; input generation and
checks run outside the timed region. The clock is the process's CPU time
(user + system): the workloads run on one thread and never wait, so it equals
wall time less the time the host gives the CPU to other tenants, which on a
shared machine moves wall time by tens of percent from one minute to the next. It calls the library through module
attributes (``attention.softmax_attention``), so the traced run's wrappers see
every call. A round repeats the same seeded inputs, so every output after the
first is also checked to be bitwise identical to the first.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path
from time import process_time as clock

import numpy as np

from dispersionlab import analysis, attention, model, ssm
from dispersionlab.errors import BoundViolationError
from dispersionlab.rng import rng_for

HERE = Path(__file__).resolve().parent
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Checks:
    """Correctness checks attempted and failed; ``fail_ratio`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)


def timing(samples_ms: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    Percentiles use the nearest rank. With fewer than 20 samples no listed
    percentile qualifies, and the tail is the maximum with ``beyond`` 0.
    """
    ordered = sorted(samples_ms)
    count = len(ordered)
    out = {"p50": statistics.median(ordered), "samples": count,
           "tail": ordered[-1], "tail_percentile": 100.0, "beyond": 0}
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * count)
        if count - rank >= 10:
            out.update(tail=ordered[rank - 1], tail_percentile=pct, beyond=count - rank)
            break
    return out


def timing_metrics(name: str, samples_ms: list[float]) -> dict:
    """``<name>_p50`` and ``<name>_tail`` in ms, with their sample counts."""
    t = timing(samples_ms)
    return {
        f"{name}_p50": {"value": t["p50"], "unit": "ms", "samples": t["samples"]},
        f"{name}_tail": {"value": t["tail"], "unit": "ms", "percentile": t["tail_percentile"],
                         "samples": t["samples"], "beyond": t["beyond"]},
    }


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max |want|."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def _timed(fn, *args):
    start = clock()
    out = fn(*args)
    return out, clock() - start


class Workload:
    """One workload; ``round`` returns the seconds its library calls took."""

    name = ""

    def __init__(self, seed: int, config: dict, checks: Checks):
        self.seed = seed
        self.cfg = config[self.name]
        self.checks = checks
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._first: dict[str, object] = {}

    def reset(self) -> None:
        """Forget measurements (kept: the first outputs that repeats must match)."""
        self.samples.clear()
        self.totals.clear()

    def repeatable(self, key: str, value, equal=lambda a, b: a == b) -> None:
        if key not in self._first:
            self._first[key] = value
        else:
            self.checks.check(f"{key} repeatable", equal(value, self._first[key]),
                              "output differs from the first round's")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> float:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks too costly to run every round; called once after timing."""

    def metrics(self) -> tuple[float, dict]:
        """``(work_per_s, named metrics)``; each metric is a dict with value and unit."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class DispersionSweep(Workload):
    """measure_dispersion for five variants at n = 64..4096; the seed goes in."""

    name = "dispersion_sweep"

    def __init__(self, seed, config, checks):
        super().__init__(seed, config, checks)
        c = self.cfg
        d, bound, w = c["d"], c["logit_bound"], c["window"]
        self.sweeps = [
            ("softmax", analysis.BoundedSampler(d, bound), None),
            ("linear", analysis.BoundedSampler(d, bound), None),
            ("focused", analysis.BoundedSampler(d, bound, nonneg=True), None),
            ("mila", analysis.BoundedSampler(d, bound), None),
            ("window", analysis.BoundedSampler(d, bound, tile_rows=w), attention.WindowSpec(w)),
        ]

    def setup(self):
        for variant, sampler, win in self.sweeps:
            analysis.measure_dispersion(variant, None, sampler, self.cfg["n_values"][:3], 1,
                                        self.seed, win=win)

    def round(self):
        n_values, trials = self.cfg["n_values"], self.cfg["trials"]
        elapsed = 0.0
        for variant, sampler, win in self.sweeps:
            start = clock()
            try:
                rep = analysis.measure_dispersion(variant, None, sampler, n_values, trials,
                                                  self.seed, win=win)
            except BoundViolationError as exc:
                elapsed += clock() - start
                self.checks.check(f"{variant} bound containment", False, str(exc))
                continue
            seconds = clock() - start
            elapsed += seconds
            self._check(variant, rep)
            self.totals["coeffs"] += trials * sum(n * (win.w if win else n) for n in n_values)
            self.totals["sweep_s"] += seconds
        return elapsed

    def _check(self, variant, rep):
        ok = all(lo <= mn <= mx <= hi for mx, mn, hi, lo in
                 zip(rep.max_coeff, rep.min_coeff, rep.upper_bound, rep.lower_bound))
        self.checks.check(f"{variant} bound containment", ok, "envelope outside its bounds")
        if variant in ("softmax", "linear"):
            lo, hi = self.cfg["slope_range"]
            self.checks.check(f"{variant} slope", lo <= rep.slope <= hi,
                              f"slope {rep.slope} outside [{lo}, {hi}]")
        if variant == "window":
            constant = all(m == rep.max_coeff[0] for m in rep.max_coeff)
            self.checks.check("window non-dispersion", constant and rep.slope == 0.0,
                              f"max coefficients {rep.max_coeff}, slope {rep.slope}")
        self.repeatable(f"{variant} sweep", rep.to_json())

    def metrics(self):
        rate = self.totals["coeffs"] / self.totals["sweep_s"]
        return rate, {"sweep_coeffs_per_s": {"value": rate, "unit": "coeff/s"}}


class ToyTraining(Workload):
    """train_toy on the criterion-10 ablation config, averaging on then off."""

    name = "toy_training"

    @staticmethod
    def model_config(averaging: bool) -> model.ModelConfig:
        return model.ModelConfig(stage_dims=(8,), stage_depths=(1,), stage_heads=(1,),
                                 window=2, patch_size=4, num_classes=2, image_size=32,
                                 head_mode="first_token", averaging_enabled=averaging)

    def setup(self):
        self.task = model.SyntheticTask()
        self.configs = {on: self.model_config(on) for on in (True, False)}
        for cfg in self.configs.values():  # data, init and the epoch-0 evaluation
            model.train_toy(cfg, self.task, 0, self.seed)

    def round(self):
        epochs = self.cfg["epochs"]
        elapsed = 0.0
        for averaging in (True, False):
            res, seconds = _timed(model.train_toy, self.configs[averaging], self.task,
                                  epochs, self.seed)
            elapsed += seconds
            self.samples["epoch_ms"].append(1000.0 * seconds / epochs)
            self.totals["epochs"] += epochs
            if averaging:
                self.checks.check("averaging-on accuracy",
                                  res.best_val_acc >= self.cfg["on_min_accuracy"],
                                  f"best val accuracy {res.best_val_acc}")
            else:
                self.checks.check("averaging-off accuracy",
                                  max(res.val_acc) <= self.cfg["off_max_accuracy"],
                                  f"max val accuracy {max(res.val_acc)}")
            self.repeatable(f"averaging={averaging} training",
                            repr((res.train_acc, res.val_acc, res.loss, res.best_epoch)))
        self.totals["seconds"] += elapsed
        return elapsed

    def metrics(self):
        return (self.totals["epochs"] / self.totals["seconds"],
                timing_metrics("epoch_ms", self.samples["epoch_ms"]))


def reference_input(image_seed: int):
    """The fixed backbone, parameters and image behind the stored reference logits."""
    cfg = model.ModelConfig.tiny_224()
    params = model.init_params(cfg)
    image = rng_for(image_seed, "perfbench", "backbone-reference").random((1, 224, 224, 3))
    return cfg, params, image


class BackboneInference(Workload):
    """model.forward on tiny_224 at batch 1, one seeded image per call."""

    name = "backbone_inference"

    def setup(self):
        ref = json.loads((HERE / self.cfg["reference"]).read_text())
        self.model_cfg, self.params, image = reference_input(ref["image_seed"])
        # the warmup call is the reference check
        logits = model.forward(self.model_cfg, self.params, image).array
        want = np.asarray(ref["logits"])
        err = relative_error(logits, want) if logits.shape == want.shape else math.inf
        self.checks.check("reference logits", err <= self.cfg["reference_rtol"],
                          f"relative error {err:.3e}")
        self.count = 0

    def round(self):
        image = rng_for(self.seed, "perfbench", "backbone", self.count).random((1, 224, 224, 3))
        self.count += 1
        logits, seconds = _timed(model.forward, self.model_cfg, self.params, image)
        self.checks.check("logits finite", logits.shape == (1, self.model_cfg.num_classes)
                          and bool(np.isfinite(logits.array).all()), f"shape {logits.shape}")
        self.samples["image_ms"].append(1000.0 * seconds)
        self.totals["seconds"] += seconds
        return seconds

    def metrics(self):
        images = self.samples["image_ms"]
        return len(images) / self.totals["seconds"], timing_metrics("image_ms", images)


def _elu_plus_one(x):
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def _rotate(x, angles):
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty_like(x)
    out[:, 0::2] = x[:, 0::2] * c - x[:, 1::2] * s
    out[:, 1::2] = x[:, 0::2] * s + x[:, 1::2] * c
    return out


def forgetting_reference(a_tilde: np.ndarray, threshold: float) -> list[int]:
    """forgetting_horizon from running products taken with np.cumprod."""
    out = []
    for m in range(1, a_tilde.shape[0] + 1):
        run = np.cumprod(a_tilde[m - 1 :: -1], axis=0).reshape(m, -1).max(axis=1)
        reach = run >= threshold
        out.append(m if reach.all() else int(np.argmin(reach)))
    return out


class SequenceKernels(Workload):
    """The public attention kernels and the three SSM forms."""

    name = "sequence_kernels"

    def setup(self):
        c = self.cfg
        d = c["d"]
        self.q4, self.k4, self.v4 = rng_for(self.seed, "perfbench", "global").standard_normal(
            (3, c["n_global"], d))
        self.q, self.k, self.v = rng_for(self.seed, "perfbench", "local").standard_normal(
            (3, c["n_local"], d))
        self.win = attention.WindowSpec(c["w"])
        self.kernels = {
            "softmax": lambda: attention.softmax_attention(self.q4, self.k4, self.v4),
            "mila": lambda: attention.mila_attention(self.q4, self.k4, self.v4),
            "window": lambda: attention.window_attention(self.q, self.k, self.v, self.win),
            "sema": lambda: attention.sema_attention(self.q, self.k, self.v, self.win),
            "linear": lambda: attention.linear_attention_fast(self.q, self.k, self.v),
        }
        self.instances = []
        for inst in range(c["ssm_check_instances"]):
            # the shapes of `ssm-check --seed 42` (n <= 16), so every seed does equal work
            shape = rng_for(c["ssm_check_shape_seed"], "ssm-check", inst)
            n, d_state, channels = (int(shape.integers(1, 17)), int(shape.integers(1, 9)),
                                    int(shape.integers(1, 9)))
            rng = rng_for(self.seed, "perfbench", "ssm-check", inst)
            x = rng.standard_normal((n, channels))
            self.instances.append((ssm.SsmParams.random(rng, n, d_state, channels), x))
        n, d_state, channels = c["ssm_large"]
        rng = rng_for(self.seed, "perfbench", "ssm-large")
        x = rng.standard_normal((n, channels))
        self.large = ssm.SsmParams.random(rng, n, d_state, channels)
        self.instances.append((self.large, x))
        self.horizons = forgetting_reference(self.large.A_tilde, c["forgetting_threshold"])
        self.outputs: dict[str, np.ndarray] = {}
        for kernel in self.kernels.values():  # warmup
            kernel()

    def round(self):
        elapsed = 0.0
        for name, kernel in self.kernels.items():
            out, seconds = _timed(kernel)
            elapsed += seconds
            self.samples[name].append(seconds)
            self.outputs.setdefault(name, out.array)
            self.repeatable(f"{name} output", out.array, np.array_equal)
        seconds = sum(self._ssm_triple(p, x) for p, x in self.instances)
        self.totals["ssm_s"] += seconds
        self.totals["ssm_steps"] += sum(p.n for p, _ in self.instances)
        horizons, fh_seconds = _timed(ssm.forgetting_horizon, self.large,
                                      self.cfg["forgetting_threshold"])
        self.checks.check("forgetting_horizon vs cumulative products", horizons == self.horizons)
        return elapsed + seconds + fh_seconds

    def _ssm_triple(self, p, x) -> float:
        """Scan, closed form at every m, and attention form; returns their seconds."""
        p0 = ssm.SsmParams(p.A_tilde, p.B, p.C_out, p.D, p.Delta, np.zeros_like(p.h0))
        start = clock()
        h_seq, y = ssm.ssm_scan(p, x)
        closed = [ssm.ssm_closed_form(p, x, m) for m in range(1, p.n + 1)]
        _, y0 = ssm.ssm_scan(p0, x)
        y_attn = ssm.mamba_as_attention(p0, x)
        seconds = clock() - start
        worst = float(np.abs(y_attn.array - y0.array).max())
        for m, (h_m, y_m) in enumerate(closed, start=1):
            worst = max(worst, float(np.abs(h_m.array - h_seq[m - 1].array).max()),
                        float(np.abs(y_m.array[0] - y.array[m - 1]).max()))
        self.checks.check(f"ssm triple equivalence n={p.n}", worst < self.cfg["tol"]["ssm_abs"],
                          f"max abs diff {worst:.3e}")
        return seconds

    def verify(self):
        tol, out = self.cfg["tol"], self.outputs
        q4, k4, v4 = self.q4, self.k4, self.v4
        want = attention.softmax_attention_coefficients(q4, k4).array @ v4
        err = relative_error(out["softmax"], want)
        self.checks.check("softmax_attention vs coefficient companion",
                          err <= tol["kernel_rel"], f"relative error {err:.3e}")

        n, d = q4.shape
        t = np.arange(d // 2, dtype=np.float64)
        angles = np.arange(n, dtype=np.float64)[:, None] * (10000.0 ** (-2.0 * t / d))[None, :]
        u, w = _elu_plus_one(q4), _elu_plus_one(k4)
        den = (u @ w.T).sum(axis=1, keepdims=True) + 1e-6
        want = (_rotate(u, angles) @ _rotate(w, angles).T / den) @ v4
        err = relative_error(out["mila"], want)
        self.checks.check("mila_attention vs quadratic form", err <= tol["kernel_rel"],
                          f"relative error {err:.3e}")

        q, k, v, w_size = self.q, self.k, self.v, self.win.w
        blocks = q.shape[0] // w_size
        coeff = attention.window_attention_coefficients(q, k, self.win).array
        want = (coeff.reshape(blocks, w_size, w_size) @ v.reshape(blocks, w_size, -1)).reshape(v.shape)
        err = relative_error(out["window"], want)
        self.checks.check("window_attention vs coefficient companion", err <= tol["kernel_rel"],
                          f"relative error {err:.3e}")

        mix = attention.homogeneous_mix(v).array
        self.checks.check("homogeneous_mix vs value mean",
                          np.array_equal(mix, np.broadcast_to(v.mean(axis=0), v.shape)))
        self.checks.check("sema == window + mix bitwise",
                          np.array_equal(out["sema"], out["window"] + mix))

        rows = rng_for(self.seed, "perfbench", "linear-rows").choice(q.shape[0], 64, replace=False)
        logits = _elu_plus_one(q[rows]) @ _elu_plus_one(k).T
        want = (logits @ v) / logits.sum(axis=1, keepdims=True)
        err = relative_error(out["linear"][rows], want)
        self.checks.check("linear_attention_fast vs quadratic form", err <= tol["kernel_rel"],
                          f"relative error {err:.3e}")

    def metrics(self):
        n_global, n_local = self.cfg["n_global"], self.cfg["n_local"]
        named = {}
        for name, n in (("softmax", n_global), ("mila", n_global), ("window", n_local),
                        ("sema", n_local), ("linear", n_local)):
            named[f"{name}_tokens_per_s"] = {
                "value": n / statistics.median(self.samples[name]), "unit": "token/s",
                "samples": len(self.samples[name])}
        named["ssm_steps_per_s"] = {"value": self.totals["ssm_steps"] / self.totals["ssm_s"],
                                    "unit": "step/s"}
        rates = [m["value"] for m in named.values()]
        return math.exp(sum(math.log(r) for r in rates) / len(rates)), named


WORKLOADS = {cls.name: cls for cls in
             (DispersionSweep, ToyTraining, BackboneInference, SequenceKernels)}
