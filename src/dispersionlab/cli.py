"""Experiment runner: ``dispersion-lab <subcommand> [--flag value]...``.

Subcommands expose the library's experiments as seeded, reproducible runs
producing CSV/JSON plot data (no rendered images). ``_save_run`` writes every
run's files and a manifest.json recording the subcommand, the argument
snapshot, the seed, the library and numpy versions, the BLAS that ran
(``blas_environment``), the BLAS thread variables and the process's resource
use so far (peak RSS, CPU seconds, minor page faults); rerunning with identical
arguments and thread settings reproduces the outputs byte for byte
(timestamps and resource use live only in the manifest, and the CPU-time
measurements in bench.csv are not derived data). ``main`` creates --out before any
computation, so an unusable path is one error line.

Exit codes: 0 success, 1 usage or configuration error, 2 scientific check
failure (bound violation, equivalence failure, failed gradcheck, training
divergence).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import resource
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    TIMED_KERNELS,
    VARIANTS,
    BoundedSampler,
    complexity_estimate,
    measure_dispersion,
    scaling_fit,
    _check_window_sweep,
)
from .attention import KernelSpec, WindowSpec
from .errors import BoundViolationError, ConfigurationError, DispersionLabError, TrainingError
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
from .posenc import GridSpec, rope_angles
from .rng import rng_for
from . import autograd as ag

# Each attention variant on the tape, traced (q, k, v) -> output; windows hold 4 rows
GRADCHECK_VARIANTS = {
    "softmax": lambda q, k, v: ag.blocked_softmax_attention(q, k, v, q.shape[0]),
    "linear": lambda q, k, v: ag.blocked_linear_attention(
        ag.elu_plus_one(q), ag.elu_plus_one(k), v, q.shape[0]),
    "focused": lambda q, k, v: ag.blocked_linear_attention(
        ag.focused_map_rows(q, 3), ag.focused_map_rows(k, 3), v, q.shape[0]),
    "window": lambda q, k, v: ag.blocked_softmax_attention(q, k, v, 4),
    "sema": lambda q, k, v: ag.add(ag.blocked_softmax_attention(q, k, v, 4),
                                   ag.blocked_mean_broadcast(v, v.shape[0])),
    "mila": lambda q, k, v: ag.mila_attention(
        ag.elu_plus_one(q), ag.elu_plus_one(k), v,
        rope_angles(GridSpec.linear(q.shape[0]), q.shape[1])),
}


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


def _bounded(kind, low: float, noun: str):
    """argparse type accepting only finite values of `kind` above `low`."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low < value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected a {noun}, got {text!r}")
        return value
    return parse


def _names(known):
    """argparse type accepting a comma list of names from `known`, none named twice."""
    def parse(text: str) -> list[str]:
        names = text.split(",")
        unknown = [name for name in names if name not in known]
        if unknown or len(set(names)) != len(names):
            raise argparse.ArgumentTypeError(f"unknown variant {unknown[0]!r}" if unknown
                                             else f"{text!r} names a variant twice")
        return names
    return parse


_positive_int = _bounded(int, 0, "positive integer")
_positive_float = _bounded(float, 0, "positive number")
_seed = _bounded(int, -1, "seed, an integer >= 0")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _openblas_runtime() -> tuple[str, str] | None:
    """(configuration string, thread count) asked of the OpenBLAS this process loaded.

    numpy's show_config() keeps the string of the machine that built the wheel;
    the loaded library names the core it picked here. None when no mapped
    library exports the calls (another BLAS, or no /proc).
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    mapped = {line.split()[-1] for line in maps.splitlines()}
    for path in sorted(p for p in mapped if p.startswith("/") and "openblas" in p):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                return config().decode(), str(threads())
    return None


def blas_environment() -> dict[str, str]:
    """The BLAS that runs: name and version, loaded configuration and thread count.

    The configuration string of a loaded OpenBLAS names its version, build
    options and the core its DYNAMIC_ARCH dispatch picked at load time; where
    the library cannot be asked, the build machine's string stands in, marked
    "(build)", and the thread count is "unknown".
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas_runtime()
    return {
        "blas": f"{blas['name']} {blas['version']}",
        "openblas configuration": (runtime[0] if runtime else
                                   f"{blas.get('openblas configuration', 'unknown')} (build)"),
        "blas threads": runtime[1] if runtime else "unknown",
    }


def _resource_usage() -> dict:
    """This process's peak RSS (MB), CPU seconds (user + system) and minor page faults."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports kB
            "cpu_s": usage.ru_utime + usage.ru_stime, "minor_faults": usage.ru_minflt}


def _save_run(args, seed: int, files: dict[str, str], written=()) -> None:
    """Write each name -> text of `files` under args.out, then manifest.json.

    The manifest's outputs list those files and the `written` paths, files the
    command saved itself (train-toy's checkpoint). Without --out, nothing.
    """
    if args.out is None:
        return
    manifest = {
        "subcommand": args.subcommand,
        "config": vars(args),
        "seed": seed,
        "library_version": __version__,
        "numpy_version": np.__version__,
        "blas": blas_environment(),
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "resources": _resource_usage(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted([*files, *(os.path.basename(path) for path in written)]),
    }
    for name, text in {**files, "manifest.json": _json(manifest)}.items():
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)


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
    _check_window_sweep(args.variant, n_values, win)
    sampler = BoundedSampler(
        d=args.d,
        logit_bound=args.logit_bound,
        nonneg=args.variant == "focused",
        tile_rows=args.w if (args.variant == "window" and args.fixed_window_content) else None,
    )
    try:
        report = measure_dispersion(args.variant, kernel, sampler, n_values,
                                    args.trials, args.seed, win=win)
    except BoundViolationError as exc:
        command = _disperse_command(args)
        summary = {"variant": args.variant, "bounds_contained": False, "error": str(exc),
                   "reproduce": command}
        _save_run(args, args.seed, {"summary.json": _json(summary)})
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
    _save_run(args, args.seed, {"report.csv": report.to_csv(), "report.json": report.to_json(),
                                "summary.json": _json(summary)})
    print(f"{args.variant}: slope {report.slope:+.4f} over n={report.n_values}, "
          "all coefficients inside bounds")
    return 0


# ---------------------------------------------------------------------------
# ssm-check


def cmd_ssm_check(args) -> int:
    from .ssm import SsmParams, forms_max_diff

    worst = 0.0
    for inst in range(args.instances):
        rng = rng_for(args.seed, "ssm-check", inst)
        n = int(rng.integers(1, args.n + 1))
        d_state = int(rng.integers(1, args.d_state + 1))
        channels = int(rng.integers(1, args.channels + 1))
        x = rng.standard_normal((n, channels))
        p = SsmParams.random(rng, n, d_state, channels)
        worst = max(worst, forms_max_diff(p, x))
    print(f"ssm triple equivalence: max abs diff {worst:.3e} over {args.instances} instances")
    _save_run(args, args.seed, {"summary.json": _json(
        {"max_abs_diff": worst, "instances": args.instances, "tolerance": 1e-12})})
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
    attend = GRADCHECK_VARIANTS[variant]
    return (lambda a, b, c: ag.sum_all(attend(a, b, c))), [q, k, v]


def cmd_gradcheck(args) -> int:
    rows, all_pass = [], True
    for variant in args.variants:
        fn, inputs = _gradcheck_case(variant, args.seed)
        report = ag.gradcheck(fn, inputs)
        all_pass &= report.passed
        rows.append({"variant": variant, "max_rel_err": report.max_rel_err,
                     "passed": report.passed})
        print(f"{variant:8s} max rel err {report.max_rel_err:.3e} "
              f"{'pass' if report.passed else 'FAIL'}")
    _save_run(args, args.seed, {"gradcheck.json": _json(rows)})
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    n_values = _parse_n_list(args.n)
    if {"window", "sema"} & set(args.variants) and any(n % args.w for n in (64, *n_values)):
        raise _UsageError(f"--w {args.w} must divide every --n value and 64, the n of the "
                          "counter check")
    seconds, exponents, counters = scaling_fit(args.variants, n_values, args.d, args.w, args.seed)
    csv_lines = ["variant,n,seconds,madds"]
    for variant in args.variants:
        print(f"{variant:8s} time exponent {exponents[variant]:+.3f}")
        if not counters[variant]:
            print(f"counter mismatch for {variant} at n = 64", file=sys.stderr)
        csv_lines += [f"{variant},{n},{t!r},{complexity_estimate(variant, n, args.d, args.w)}"
                      for n, t in zip(n_values, seconds[variant])]
    counters_match = all(counters.values())
    _save_run(args, args.seed, {
        "bench.csv": "\n".join(csv_lines) + "\n",
        "summary.json": _json({"exponents": exponents, "counters_match": counters_match}),
    })
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
        cfg = ModelConfig.ablation()
    if averaging is not None:
        cfg = dataclasses.replace(cfg, averaging_enabled=averaging == "on")
    return cfg


def cmd_train_toy(args) -> int:
    cfg = _load_config(args.config, args.averaging)
    task = SyntheticTask(grid_tokens=cfg.image_size // cfg.patch_size)
    try:
        result = train_toy(cfg, task, epochs=args.epochs, seed=args.seed)
    except TrainingError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    lines = ["epoch,train_acc,val_acc,loss"]
    for e, (tr, va, lo) in enumerate(zip(result.train_acc, result.val_acc, result.loss)):
        lines.append(f"{e},{tr!r},{va!r},{lo!r}")
    _save_run(args, args.seed, {
        "metrics.csv": "\n".join(lines) + "\n",
        "summary.json": _json({"best_val_acc": result.best_val_acc,
                               "best_epoch": result.best_epoch,
                               "averaging_enabled": cfg.averaging_enabled}),
    }, written=save_checkpoint(result.params, os.path.join(args.out, "best")))
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
    _save_run(args, cfg.seed, {
        "receptive_field.csv": "\n".join(lines) + "\n",
        "summary.json": _json({"token": args.token, "grid": grid_side,
                               "averaging_enabled": cfg.averaging_enabled,
                               "nonzero_fraction": float((magnitudes > 0).mean())}),
    })
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
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--kernel", help="KernelSpec JSON; defaults to the variant's kernel")
    p.add_argument("--n", default="64..4096", help="'lo..hi' doubling range or comma list")
    p.add_argument("--trials", type=_positive_int, default=32)
    p.add_argument("--seed", type=_seed, default=42)
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
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--out")

    p = sub.add_parser("gradcheck", help="finite-difference checks per attention variant")
    p.add_argument("--variants", type=_names(GRADCHECK_VARIANTS),
                   default=",".join(GRADCHECK_VARIANTS), help="comma list; default all six")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="CPU-time scaling and multiply-add counters")
    p.add_argument("--variants", type=_names(TIMED_KERNELS), default="sema,full")
    p.add_argument("--n", default="256..8192")
    p.add_argument("--d", type=_positive_int, default=16)
    p.add_argument("--w", type=_positive_int, default=8)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--out", default="out/bench")

    p = sub.add_parser("train-toy", help="seeded toy training on the majority task")
    p.add_argument("--config", help="ModelConfig JSON path; default single-block ablation model")
    p.add_argument("--averaging", choices=["on", "off"])
    p.add_argument("--epochs", type=_positive_int, default=30)
    p.add_argument("--seed", type=_seed, default=13)
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
    made = []
    try:
        args = parser.parse_args(argv)
        if args.out is not None and not os.path.isdir(args.out):
            path = os.path.abspath(args.out)
            while not os.path.exists(path):  # the levels makedirs creates, deepest first
                made.append(path)
                path = os.path.dirname(path)
            try:
                os.makedirs(args.out)
            except OSError as exc:
                raise ConfigurationError(f"cannot use --out {args.out!r}: {exc.strerror}")
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except DispersionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in made:  # a run that wrote nothing removes every level of --out it made
            if os.path.isdir(path) and not os.listdir(path):
                os.rmdir(path)


if __name__ == "__main__":
    sys.exit(main())
