"""Experiment runner: ``dispersion-lab <subcommand> [--flag value]...``.

Subcommands expose the library's experiments as seeded, reproducible runs
producing CSV/JSON plot data (no rendered images). Every run writes a
manifest.json next to its outputs recording the subcommand, the argument
snapshot, the seed, and the library version; rerunning with identical
arguments reproduces the outputs byte for byte (timestamps live only in the
manifest, and wall-clock timings in bench.csv are measurements, not derived
data).

Exit codes: 0 success, 1 usage or configuration error, 2 scientific check
failure (bound violation, equivalence failure, failed gradcheck, training
divergence). The environment variable DISPERSION_LAB_THREADS caps sweep
parallelism (an integer >= 1, default 1; cells derive their RNG from (seed,
variant, n, trial), so results are schedule-independent).
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    BoundedSampler,
    complexity_estimate,
    instrumented_counts,
    measure_dispersion,
)
from .attention import (
    KernelSpec,
    WindowSpec,
    homogeneous_mix,
    linear_attention_fast,
    sema_attention,
    softmax_attention,
    window_attention,
)
from .errors import BoundViolationError, DispersionLabError, TrainingError
from .model import (
    ModelConfig,
    SyntheticTask,
    init_params,
    receptive_field_grid,
    save_checkpoint,
    stage_grids,
    train_toy,
    zero_lepe,
)
from .rng import rng_for
from . import autograd as ag
from . import traced

GRADCHECK_VARIANTS = ("softmax", "linear", "focused", "window", "sema", "mila")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_n_list(text: str) -> list[int]:
    """'64..4096' doubles from 64 to 4096; '64,128,256' is explicit.

    Both consumers fit a power law across n, so at least three strictly
    ascending positive values are required.
    """
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
            values = []
            while 0 < lo <= hi:
                values.append(lo)
                lo *= 2
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad n list {text!r}: expected 'lo..hi' or a comma list of integers")
    if len(values) < 3 or values[0] < 1 or any(b <= a for a, b in zip(values, values[1:])):
        raise _UsageError(f"bad n list {text!r}: need at least 3 positive, strictly "
                          "ascending values to fit a power law")
    return values


def _positive(kind, noun: str):
    """argparse type accepting only finite values of `kind` above zero."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected a positive {noun}, got {text!r}")
        return value
    return parse


_positive_int, _positive_float = _positive(int, "integer"), _positive(float, "number")


def _write(path: str, content: str) -> str:
    with open(path, "w") as fh:
        fh.write(content)
    return path


def _write_manifest(out_dir: str, subcommand: str, config: dict, seed: int,
                    outputs: list[str]) -> str:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "library_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    return _write(path, json.dumps(manifest, indent=2, sort_keys=True))


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# disperse


def _disperse_command(args) -> str:
    """The ``dispersion-lab disperse`` command line that repeats this run."""
    argv = ["dispersion-lab", "disperse", "--variant", args.variant, "--n", args.n,
            "--trials", str(args.trials), "--seed", str(args.seed), "--d", str(args.d),
            "--logit-bound", repr(args.logit_bound), "--w", str(args.w), "--out", args.out]
    if args.kernel:
        argv += ["--kernel", args.kernel]
    if args.fixed_window_content:
        argv.append("--fixed-window-content")
    return shlex.join(argv)


def cmd_disperse(args) -> int:
    try:
        kernel = KernelSpec.from_json(args.kernel) if args.kernel else None
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad --kernel: {exc}")
    n_values = _parse_n_list(args.n)
    win = WindowSpec(args.w) if args.variant == "window" else None
    sampler = BoundedSampler(
        d=args.d,
        logit_bound=args.logit_bound,
        nonneg=args.variant == "focused",
        tile_rows=args.w if (args.variant == "window" and args.fixed_window_content) else None,
    )
    out_dir = _ensure_out(args.out)
    try:
        report = measure_dispersion(args.variant, kernel, sampler, n_values,
                                    args.trials, args.seed, win=win)
    except BoundViolationError as exc:
        command = _disperse_command(args)
        summary = {"variant": args.variant, "bounds_contained": False, "error": str(exc),
                   "reproduce": command}
        outputs = [_write(os.path.join(out_dir, "summary.json"),
                          json.dumps(summary, indent=2, sort_keys=True))]
        _write_manifest(out_dir, "disperse", vars(args), args.seed, outputs)
        print(f"bound violation: {exc}", file=sys.stderr)
        print(f"reproduce with: {command}", file=sys.stderr)
        return 2
    summary = {
        "variant": args.variant,
        "slope": report.slope,
        "bounds_contained": True,
        "n_values": report.n_values,
        "trials": args.trials,
    }
    outputs = [
        _write(os.path.join(out_dir, "report.csv"), report.to_csv()),
        _write(os.path.join(out_dir, "report.json"), report.to_json()),
        _write(os.path.join(out_dir, "summary.json"),
               json.dumps(summary, indent=2, sort_keys=True)),
    ]
    _write_manifest(out_dir, "disperse", vars(args), args.seed, outputs)
    print(f"{args.variant}: slope {report.slope:+.4f} over n={report.n_values}, "
          "all coefficients inside bounds")
    return 0


# ---------------------------------------------------------------------------
# ssm-check


def cmd_ssm_check(args) -> int:
    from .ssm import SsmParams, mamba_as_attention, ssm_closed_form, ssm_scan

    worst = 0.0
    for inst in range(args.instances):
        rng = rng_for(args.seed, "ssm-check", inst)
        n = int(rng.integers(1, args.n + 1))
        d_state = int(rng.integers(1, args.d_state + 1))
        channels = int(rng.integers(1, args.channels + 1))
        x = rng.standard_normal((n, channels))
        p = SsmParams.random(rng, n, d_state, channels)
        h_seq, y = ssm_scan(p, x)
        for m in range(1, n + 1):
            h_m, y_m = ssm_closed_form(p, x, m)
            worst = max(worst,
                        float(np.abs(h_m.array - h_seq[m - 1].array).max()),
                        float(np.abs(y_m.array[0] - y.array[m - 1]).max()))
        p0 = SsmParams(p.A_tilde, p.B, p.C_out, p.D, p.Delta,
                       np.zeros_like(p.h0))
        _, y0 = ssm_scan(p0, x)
        y_attn = mamba_as_attention(p0, x)
        worst = max(worst, float(np.abs(y0.array - y_attn.array).max()))
    if args.perturb:  # negative-control hook for exit-code tests
        worst += 1e-9
    print(f"ssm triple equivalence: max abs diff {worst:.3e} over {args.instances} instances")
    if args.out:
        out_dir = _ensure_out(args.out)
        outputs = [_write(os.path.join(out_dir, "summary.json"),
                          json.dumps({"max_abs_diff": worst,
                                      "instances": args.instances,
                                      "tolerance": 1e-12}, indent=2, sort_keys=True))]
        _write_manifest(out_dir, "ssm-check", vars(args), args.seed, outputs)
    return 0 if worst < 1e-12 else 2


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_case(variant: str, seed: int):
    rng = rng_for(seed, "gradcheck", variant)
    q = rng.standard_normal((8, 4))
    k = rng.standard_normal((8, 4))
    v = rng.standard_normal((8, 4))
    if variant == "focused":
        # relu-based features need inputs from the op's valid domain
        q, k = np.abs(q), np.abs(k)
    fns = {
        "softmax": lambda a, b, c: ag.sum_all(traced.softmax_attention(a, b, c)),
        "linear": lambda a, b, c: ag.sum_all(traced.linear_attention(a, b, c)),
        "focused": lambda a, b, c: ag.sum_all(traced.focused_attention(a, b, c, 3)),
        "window": lambda a, b, c: ag.sum_all(traced.window_attention(a, b, c, 4)),
        "sema": lambda a, b, c: ag.sum_all(traced.sema_attention(a, b, c, 4)),
        "mila": lambda a, b, c: ag.sum_all(traced.mila_attention(a, b, c)),
    }
    return fns[variant], [q, k, v]


def cmd_gradcheck(args) -> int:
    variants = args.variants.split(",") if args.variants else list(GRADCHECK_VARIANTS)
    rows, all_pass = [], True
    for variant in variants:
        if variant not in GRADCHECK_VARIANTS:
            raise _UsageError(f"unknown variant {variant!r}")
        fn, inputs = _gradcheck_case(variant, args.seed)
        report = ag.gradcheck(fn, inputs, step=args.step, tol=args.tol)
        all_pass &= report.passed
        rows.append({"variant": variant, "max_rel_err": report.max_rel_err,
                     "passed": report.passed})
        print(f"{variant:8s} max rel err {report.max_rel_err:.3e} "
              f"{'pass' if report.passed else 'FAIL'}")
    if args.out:
        out_dir = _ensure_out(args.out)
        outputs = [_write(os.path.join(out_dir, "gradcheck.json"),
                          json.dumps(rows, indent=2, sort_keys=True))]
        _write_manifest(out_dir, "gradcheck", vars(args), args.seed, outputs)
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# bench


_BENCH_FNS = {
    "full": lambda q, k, v, w: softmax_attention(q, k, v),
    "window": lambda q, k, v, w: window_attention(q, k, v, WindowSpec(w)),
    "sema": lambda q, k, v, w: sema_attention(q, k, v, WindowSpec(w)),
    "linear": lambda q, k, v, w: linear_attention_fast(q, k, v),
    "mix": lambda q, k, v, w: homogeneous_mix(v),
}

_BENCH_COUNT_NAMES = {"full": "full", "window": "window", "sema": "sema",
                      "linear": "linear", "mix": "homogeneous_mix"}


def cmd_bench(args) -> int:
    variants = args.variants.split(",")
    for variant in variants:
        if variant not in _BENCH_FNS:
            raise _UsageError(f"unknown bench variant {variant!r}")
    n_values = _parse_n_list(args.n)
    out_dir = _ensure_out(args.out)
    rows, exponents = [], {}
    for variant in variants:
        times = []
        for n in n_values:
            rng = rng_for(args.seed, "bench", variant, n)
            q = rng.standard_normal((n, args.d))
            k = rng.standard_normal((n, args.d))
            v = rng.standard_normal((n, args.d))
            fn = _BENCH_FNS[variant]
            fn(q, k, v, args.w)  # warmup: exclude first-call allocation noise
            reps = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                fn(q, k, v, args.w)
                reps.append(time.perf_counter() - t0)
            seconds = float(np.median(reps))
            times.append(seconds)
            madds = complexity_estimate(_BENCH_COUNT_NAMES[variant], n, args.d,
                                        args.w if variant in ("window", "sema") else None)
            rows.append({"variant": variant, "n": n, "seconds": seconds, "madds": madds})
        exponents[variant] = float(np.polyfit(np.log(n_values), np.log(times), 1)[0])
        print(f"{variant:8s} time exponent {exponents[variant]:+.3f}")

    # verify the analytic counters against loop-instrumented counts at n=64
    rng = rng_for(args.seed, "bench", "counter")
    q64 = rng.standard_normal((64, args.d))
    counters_match = True
    for variant in variants:
        name = _BENCH_COUNT_NAMES[variant]
        w = args.w if variant in ("window", "sema") else None
        analytic = complexity_estimate(name, 64, args.d, w)
        measured = instrumented_counts(name, q64, q64, q64, w)
        if analytic != measured:
            counters_match = False
            print(f"counter mismatch for {variant}: analytic {analytic} vs "
                  f"instrumented {measured}", file=sys.stderr)

    csv_lines = ["variant,n,seconds,madds"]
    csv_lines += [f"{r['variant']},{r['n']},{r['seconds']!r},{r['madds']}" for r in rows]
    outputs = [
        _write(os.path.join(out_dir, "bench.csv"), "\n".join(csv_lines) + "\n"),
        _write(os.path.join(out_dir, "summary.json"),
               json.dumps({"exponents": exponents, "counters_match": counters_match},
                          indent=2, sort_keys=True)),
    ]
    _write_manifest(out_dir, "bench", vars(args), args.seed, outputs)
    return 0 if counters_match else 2


# ---------------------------------------------------------------------------
# train-toy


def _load_config(path: str | None, averaging: str | None) -> ModelConfig:
    if path:
        try:
            with open(path) as fh:
                cfg = ModelConfig.from_json(fh.read())
        except (OSError, TypeError, ValueError) as exc:
            raise _UsageError(f"bad --config {path!r}: {exc}")
    else:
        cfg = ModelConfig(stage_dims=(8,), stage_depths=(1,), stage_heads=(1,),
                          window=2, patch_size=4, num_classes=2, image_size=32,
                          head_mode="first_token")
    if averaging is not None:
        cfg = ModelConfig(**{**json.loads(cfg.to_json()),
                             "averaging_enabled": averaging == "on"})
    return cfg


def cmd_train_toy(args) -> int:
    cfg = _load_config(args.config, args.averaging)
    task = SyntheticTask(grid_tokens=cfg.image_size // cfg.patch_size,
                         num_classes=cfg.num_classes)
    out_dir = _ensure_out(args.out)
    try:
        result = train_toy(cfg, task, epochs=args.epochs, seed=args.seed)
    except TrainingError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    lines = ["epoch,train_acc,val_acc,loss"]
    for e, (tr, va, lo) in enumerate(zip(result.train_acc, result.val_acc, result.loss)):
        lines.append(f"{e},{tr!r},{va!r},{lo!r}")
    ckpt_idx, ckpt_bin = save_checkpoint(result.params, os.path.join(out_dir, "best"))
    outputs = [
        _write(os.path.join(out_dir, "metrics.csv"), "\n".join(lines) + "\n"),
        _write(os.path.join(out_dir, "summary.json"),
               json.dumps({"best_val_acc": result.best_val_acc,
                           "best_epoch": result.best_epoch,
                           "averaging_enabled": cfg.averaging_enabled},
                          indent=2, sort_keys=True)),
        ckpt_idx, ckpt_bin,
    ]
    _write_manifest(out_dir, "train-toy", vars(args), args.seed, outputs)
    print(f"best val acc {result.best_val_acc:.4f} at epoch {result.best_epoch} "
          f"(averaging {'on' if cfg.averaging_enabled else 'off'})")
    return 0


# ---------------------------------------------------------------------------
# probe-rf


def cmd_probe_rf(args) -> int:
    cfg = _load_config(args.config, args.averaging)
    params = init_params(cfg)
    if args.zero_lepe:
        params = zero_lepe(params)
    grid_side = stage_grids(cfg)[0]
    magnitudes = receptive_field_grid(cfg, params, args.token)
    heat = magnitudes.reshape(grid_side, grid_side)
    lines = [",".join(repr(float(v)) for v in row) for row in heat]
    out_dir = _ensure_out(args.out)
    outputs = [
        _write(os.path.join(out_dir, "receptive_field.csv"), "\n".join(lines) + "\n"),
        _write(os.path.join(out_dir, "summary.json"),
               json.dumps({"token": args.token,
                           "grid": grid_side,
                           "averaging_enabled": cfg.averaging_enabled,
                           "nonzero_fraction": float((magnitudes > 0).mean())},
                          indent=2, sort_keys=True)),
    ]
    _write_manifest(out_dir, "probe-rf", vars(args), cfg.seed, outputs)
    print(f"receptive field of token {args.token}: "
          f"{(magnitudes > 0).sum()}/{magnitudes.size} tokens reachable")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="dispersion-lab",
                     description="dispersion experiments for attention variants")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("disperse", help="empirical dispersion sweep with bound checks")
    p.add_argument("--variant", required=True,
                   choices=["softmax", "linear", "focused", "window", "mila"])
    p.add_argument("--kernel", help="KernelSpec JSON; defaults to the variant's kernel")
    p.add_argument("--n", default="64..4096", help="'lo..hi' doubling range or comma list")
    p.add_argument("--trials", type=_positive_int, default=32)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--d", type=_positive_int, default=16)
    p.add_argument("--logit-bound", type=_positive_float, default=1.0)
    p.add_argument("--w", type=_positive_int, default=8, help="window size (window variant)")
    p.add_argument("--fixed-window-content", action="store_true",
                   help="tile one window's rows at every n (non-dispersion check)")
    p.add_argument("--out", default="out/disperse")

    p = sub.add_parser("ssm-check", help="scan / closed-form / attention-form equivalence")
    p.add_argument("--n", type=_positive_int, default=16)
    p.add_argument("--d-state", type=_positive_int, default=8)
    p.add_argument("--channels", type=_positive_int, default=8)
    p.add_argument("--instances", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out")

    p = sub.add_parser("gradcheck", help="finite-difference checks per attention variant")
    p.add_argument("--variants", help="comma list; default all six")
    p.add_argument("--tol", type=_positive_float, default=1e-5)
    p.add_argument("--step", type=_positive_float, default=1e-5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="wall-time scaling and multiply-add counters")
    p.add_argument("--variants", default="sema,full")
    p.add_argument("--n", default="256..8192")
    p.add_argument("--d", type=_positive_int, default=16)
    p.add_argument("--w", type=_positive_int, default=8)
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="out/bench")

    p = sub.add_parser("train-toy", help="seeded toy training on the majority task")
    p.add_argument("--config", help="ModelConfig JSON path; default single-block ablation model")
    p.add_argument("--averaging", choices=["on", "off"])
    p.add_argument("--epochs", type=_positive_int, default=30)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--out", default="out/train-toy")

    p = sub.add_parser("probe-rf", help="receptive-field heat map of one block")
    p.add_argument("--config", help="ModelConfig JSON path; default single-block model")
    p.add_argument("--averaging", choices=["on", "off"])
    p.add_argument("--zero-lepe", action="store_true")
    p.add_argument("--token", type=int, default=0)
    p.add_argument("--out", default="out/probe-rf")
    return parser


_COMMANDS = {
    "disperse": cmd_disperse,
    "ssm-check": cmd_ssm_check,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
    "train-toy": cmd_train_toy,
    "probe-rf": cmd_probe_rf,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except DispersionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
